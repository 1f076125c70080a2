// Wire codec for the multi-process shard harness: ShardRequest /
// ShardResponse <-> length-prefixed binary frames. Built on the same
// util/coding primitives as the row codec; versioned so a frame from a
// different build fails loudly (Corruption) instead of misparsing.
//
// Frame layout (both directions):
//   u32 big-endian payload length | payload
// Payload starts with a version byte; DecodeX reject anything else, and
// reject bytes left over after the last field (a peer whose field lists
// differ fails loudly instead of misparsing).
//
// Status crosses the wire as (code byte, message); the code table is
// private to wire.cc and round-trips every Status constructor in
// util/status.h.

#ifndef TRASS_SERVE_WIRE_H_
#define TRASS_SERVE_WIRE_H_

#include <string>
#include <vector>

#include "core/trajectory.h"
#include "serve/shard_transport.h"
#include "util/slice.h"
#include "util/status.h"

namespace trass {
namespace serve {

/// Maximum accepted payload (guards a corrupt length prefix from
/// triggering a giant allocation).
constexpr uint32_t kMaxWireFrameBytes = 256u << 20;

/// Appends the 4-byte length prefix + `payload` to `out`.
void FrameMessage(const std::string& payload, std::string* out);

void EncodeShardRequest(const ShardRequest& request, std::string* payload);
Status DecodeShardRequest(Slice payload, ShardRequest* request);

/// `exec_status` is the shard-side Execute() result the frame carries
/// alongside the response payload.
void EncodeShardResponse(const ShardResponse& response,
                         const Status& exec_status, std::string* payload);
Status DecodeShardResponse(Slice payload, ShardResponse* response,
                           Status* exec_status);

/// Standalone trajectory-list codec (the kPut payload encoding), shared
/// with the coordinator's hinted-handoff journal so a journaled write
/// round-trips through exactly the bytes the wire would carry.
void EncodeTrajectoryList(const std::vector<core::Trajectory>& trajectories,
                          std::string* dst);
Status DecodeTrajectoryList(Slice payload,
                            std::vector<core::Trajectory>* trajectories);

}  // namespace serve
}  // namespace trass

#endif  // TRASS_SERVE_WIRE_H_
