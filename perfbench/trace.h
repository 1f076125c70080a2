// Tracing for the benchmark's separate traced run: spans kept in memory
// and written out when the run ends, plus TimingTransport, the
// ShardTransport wrapper that times each shard attempt from outside the
// serving tier.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/shard_transport.h"

namespace perfbench {

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  double start_s = 0.0;  // WallSeconds()
  double end_s = 0.0;
};

class Tracer {
 public:
  /// Spans are recorded only while active.
  void SetActive(bool active) { active_.store(active); }
  bool active() const { return active_.load(std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Record(Span span);
  size_t size() const;
  /// One JSON object per line; false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  std::atomic<bool> active_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// One shard attempt as seen from the coordinator's side of a transport.
struct AttemptRecord {
  uint64_t query_id = 0;  // span id of the query it served
  bool followup = false;  // top-k follow-up wave (finite bound)
  double bound = 0.0;     // wave key: attempts of one wave share it
  double start_s = 0.0;
  double end_s = 0.0;
  uint64_t request_bytes = 0;   // EncodeShardRequest size
  uint64_t response_bytes = 0;  // EncodeShardResponse size
};

/// Forwards to `inner`; while the tracer is active, records every
/// attempt (timed, sized by re-encoding with the wire codec) and emits
/// an attempt span under the current query span.
class TimingTransport : public trass::serve::ShardTransport {
 public:
  TimingTransport(std::shared_ptr<trass::serve::ShardTransport> inner,
                  Tracer* tracer, const std::atomic<uint64_t>* query_id)
      : inner_(std::move(inner)), tracer_(tracer), query_id_(query_id) {}

  trass::Status Execute(const trass::serve::ShardRequest& request,
                        const std::atomic<bool>* cancel,
                        trass::serve::ShardResponse* response) override;
  std::string Describe() const override { return inner_->Describe(); }

  /// Moves out the attempts recorded so far.
  std::vector<AttemptRecord> TakeAttempts();

 private:
  std::shared_ptr<trass::serve::ShardTransport> inner_;
  Tracer* tracer_;
  const std::atomic<uint64_t>* query_id_;
  std::mutex mu_;
  std::vector<AttemptRecord> attempts_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
