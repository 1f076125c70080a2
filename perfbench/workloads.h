// The benchmark's three deployments and the code that runs them. Each
// workload generates its inputs from the seed, sets its deployment up
// through public APIs only, runs a timed phase, checks every sampled
// answer against the oracle, and fills two reports: the end-to-end
// metrics and (for the traced run) the per-layer metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy input sizes (self-test): every phase and check, little work.
  bool toy = false;
  /// Scratch directory for stores, sockets and the trace file; created
  /// and emptied by the workload. Relative paths keep socket names short.
  std::string work_dir;
};

struct Outcome {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Report end_to_end;
  Report per_layer;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Returns false (with a message on stderr) when the
/// deployment could not be set up at all; check failures are reported
/// through Outcome::correct instead.
bool RunWorkload(const Config& config, Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
