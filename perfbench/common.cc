#include "common.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double CpuSeconds() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return 0.0;
  // user nice system idle iowait irq softirq steal
  uint64_t fields[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (uint64_t& f : fields) {
    if (!(in >> f)) return 0.0;
  }
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(fields[7]) / static_cast<double>(hz)
                : 0.0;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& entry : metrics_) {
    if (entry.first == name) {
      entry.second = Metric{value, unit};
      return;
    }
  }
  metrics_.emplace_back(name, Metric{value, unit});
}

void Report::Unmeasured(const std::string& name, const std::string& unit,
                        const std::string& reason) {
  Set(name, 0.0, unit);
  unmeasured_[name] = reason;
}

void Report::Print() const {
  for (const auto& [name, metric] : metrics_) {
    if (unmeasured_.count(name) != 0) continue;
    std::printf("metric %-36s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const auto& [name, reason] : unmeasured_) {
    std::printf("unmeasured %-32s %s\n", name.c_str(), reason.c_str());
  }
}

std::string Report::ResultJson(bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    char value[64];
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void Checks::Fail(const std::string& what) {
  ++failures_;
  if (failures_ <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

}  // namespace perfbench
