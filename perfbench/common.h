// Clocks, statistics and report plumbing shared by the benchmark's
// workloads. Every speed figure the benchmark compares is a process CPU
// cost (all threads of the deployment, which lives in this process);
// wall figures are printed for reference only.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Process CPU seconds (every thread), CLOCK_PROCESS_CPUTIME_ID.
double CpuSeconds();
/// Monotonic wall seconds.
double WallSeconds();
/// Hypervisor steal seconds summed over all CPUs (/proc/stat), or 0
/// where the kernel does not report it.
double StealSeconds();
/// Peak resident set of this process in MiB (getrusage).
double PeakRssMb();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// FNV-1a over 64-bit words: the work digest's hash.
struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

/// One printed metric: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics in insertion order, printed as "name value unit" lines and
/// as the result object's "metrics" member.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Marks a per-layer metric the run cannot measure, with the reason.
  /// It still appears in the result object (value 0) so the metric set
  /// is the same on every workload, and the reason is printed.
  void Unmeasured(const std::string& name, const std::string& unit,
                  const std::string& reason);
  const std::vector<std::pair<std::string, Metric>>& metrics() const {
    return metrics_;
  }
  /// Human-readable lines, then the unmeasured list.
  void Print() const;
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{...}}
  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, Metric>> metrics_;
  std::map<std::string, std::string> unmeasured_;
};

/// Failed checks collected during a run; any entry makes the run
/// incorrect.
class Checks {
 public:
  void Fail(const std::string& what);
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  bool ok() const { return failures_ == 0; }

 private:
  uint64_t failures_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
