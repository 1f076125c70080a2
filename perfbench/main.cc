// perfbench: end-to-end benchmark of the TraSS store.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//   perfbench --self-test [--work-dir <dir>]
//
// Prints metric lines and diagnostics, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

// The metric names every run reports; BENCHMARK.json lists the same.
const std::vector<std::string> kEndToEnd = {
    "setup_s",
    "queries_per_cpu_s",
    "threshold_cpu_p50_ms",
    "threshold_cpu_p90_ms",
    "topk_cpu_p50_ms",
    "topk_cpu_p90_ms",
    "range_cpu_p50_ms",
    "sparse_threshold_cpu_p50_ms",
    "ingest_rows_per_cpu_s",
    "space_amp",
    "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "serve.attempts_per_query", "serve.followup_attempts_per_topk",
    "serve.request_bytes", "serve.response_bytes", "serve.attempt_p50_ms",
    "serve.fanout_overhead_ms", "serve.hedges_sent", "prune.ms",
    "prune.scan_ranges", "prune.index_values", "filter.elements_pruned",
    "filter.mbr_pruned", "filter.fingerprint_skips", "filter.memory_bytes",
    "kv.scan_ms", "kv.rows_read", "kv.bytes_read_per_result",
    "kv.readahead_bytes", "kv.readahead_reads", "kv.cache_hits",
    "kv.cache_misses", "kv.cache_fills", "kv.cache_hit_ratio",
    "kv.write_stalls", "kv.stall_ms", "io.read_calls", "io.read_bytes",
    "io.wal_bytes_per_user_byte", "io.table_bytes_written_per_user_byte",
    "io.syncs", "io.tables_created", "io.tables_deleted",
    "local_filter.candidates", "local_filter.kept_ratio", "refine.ms",
    "refine.refined", "refine.lb_rejected", "refine.dp_runs",
    "refine.precision", "refine.decode_ms", "refine.lb_ms", "refine.dp_ms",
    "query.unaccounted_ms", "ingest.batches", "ingest.rows_per_batch",
    "ingest.max_batch_rows", "ingest.queue_high_water",
    "ingest.submit_p50_ms", "ingest.generator_lag_ms",
    "ingest.visible_p50_ms", "trace.overhead_ratio"};

// True when `report` holds exactly `names`.
bool HasExactly(const Report& report, const std::vector<std::string>& names) {
  std::set<std::string> want(names.begin(), names.end()), got;
  for (const auto& [name, metric] : report.metrics()) got.insert(name);
  for (const std::string& n : want) {
    if (got.count(n) == 0) std::fprintf(stderr, "metric missing: %s\n", n.c_str());
  }
  for (const std::string& n : got) {
    if (want.count(n) == 0) std::fprintf(stderr, "metric unlisted: %s\n", n.c_str());
  }
  return want == got;
}

// Runs one workload and prints its report; returns the result line.
bool RunAndPrint(const Config& config, std::string* result_line) {
  std::printf("workload %s seed %llu seconds %.3f trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  Outcome outcome;
  if (!RunWorkload(config, &outcome)) return false;
  const Report& shown = config.trace ? outcome.per_layer : outcome.end_to_end;
  const bool complete =
      HasExactly(shown, config.trace ? kPerLayer : kEndToEnd);
  std::printf("-- end-to-end%s\n", config.trace ? " (reference only)" : "");
  outcome.end_to_end.Print();
  if (config.trace) {
    std::printf("-- per-layer\n");
    outcome.per_layer.Print();
  }
  std::printf("attempted %llu failed %llu correct %d\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.correct ? 1 : 0);
  *result_line =
      shown.ResultJson(outcome.correct && complete, outcome.attempted,
                       outcome.failed);
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n"
               "       perfbench --self-test [--work-dir <dir>]\n"
               "workloads:");
  for (const std::string& w : WorkloadNames()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Config config;
  config.work_dir = "perfbench-work";
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--self-test") {
      self_test = true;
    } else if ((arg == "--workload") && (v = value())) {
      config.workload = v;
    } else if (arg == "--seed" && (v = value())) {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      config.seconds = std::atof(v);
    } else if (arg == "--trace" && (v = value())) {
      config.trace = std::string(v) == "1";
    } else if (arg == "--work-dir" && (v = value())) {
      config.work_dir = v;
    } else {
      return Usage();
    }
  }
  if (self_test) {
    // Every workload at toy size, untraced and traced, all checks on.
    bool all_ok = true;
    for (const std::string& w : WorkloadNames()) {
      for (bool trace : {false, true}) {
        Config c = config;
        c.workload = w;
        c.seed = 7;
        c.seconds = 0.5;
        c.trace = trace;
        c.toy = true;
        std::string line;
        const bool ok = RunAndPrint(c, &line) &&
                        line.find("\"correct\": true") != std::string::npos &&
                        line.find("\"failed\": 0,") != std::string::npos;
        std::printf("self-test %s trace %d: %s\n", w.c_str(), trace ? 1 : 0,
                    ok ? "ok" : "FAILED");
        all_ok = all_ok && ok;
      }
    }
    std::printf("{\"self_test\": %s}\n", all_ok ? "true" : "false");
    return all_ok ? 0 : 1;
  }
  bool known = false;
  for (const std::string& w : WorkloadNames()) known = known || w == config.workload;
  if (!known || config.seconds <= 0) return Usage();
  std::string line;
  if (!RunAndPrint(config, &line)) {
    std::fprintf(stderr, "workload %s could not be set up\n",
                 config.workload.c_str());
    return 1;
  }
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
