#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "core/trass_store.h"
#include "counting_env.h"
#include "oracle.h"
#include "serve/coordinator.h"
#include "serve/shard_server.h"
#include "serve/socket_transport.h"
#include "trace.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using trass::Status;
using trass::core::QueryMetrics;
using trass::core::SearchResult;
using trass::core::Trajectory;
using trass::core::TrassOptions;
using trass::core::TrassStore;
using trass::geo::Mbr;
using trass::geo::Point;

// The paper's query parameters (Fig. 9/10/17/19): eps = 0.01 degree,
// k = 50, discrete Fréchet.
constexpr double kEps = 0.01 * trass::geo::kDegree;
constexpr int kTopK = 50;
constexpr auto kMeasure = trass::core::Measure::kFrechet;
// Off-corridor queries are shifted this many eps along each axis.
constexpr double kSparseShiftEps = 3.0;

enum Kind { kThreshold = 0, kTopKQuery = 1, kRange = 2, kSparse = 3 };
constexpr int kKinds = 4;
const char* const kKindNames[kKinds] = {"threshold", "topk", "range",
                                        "sparse_threshold"};
// Queries of each kind in one round, in this order.
constexpr std::array<int, kKinds> kRoundMix = {4, 2, 1, 2};

struct QuerySpec {
  Kind kind = kThreshold;
  size_t instance = 0;
  std::vector<Point> points;
  Mbr window;
};

struct Sizes {
  size_t trajectories = 0;  // loaded in set-up (preload for ingest)
  size_t stream_rows = 0;   // tdrive_ingest_filter's SubmitAsync stream
  double stream_rate = 0;   // rows per second
  size_t oracle_sample = 0; // instances per kind checked by the oracle
  int setup_reps = 3;
  double rounds_per_second = 0;  // query rounds per --seconds
  double range_side_deg = 0;
};

struct QueryRecord {
  Kind kind = kThreshold;
  size_t instance = 0;
  bool traced = false;
  uint64_t span_id = 0;
  double cpu_ms = 0, wall_ms = 0;
  QueryMetrics m;
  IoCounts io;
  uint64_t kv_bytes = 0;  // block + readahead bytes read (traced only)
  uint64_t results = 0;
  uint64_t result_hash = 0;
};

// What a query phase needs from a deployment.
struct Target {
  std::function<Status(const QuerySpec&, std::vector<SearchResult>*,
                       std::vector<uint64_t>*, QueryMetrics*)>
      run;
  std::function<trass::kv::IoStats::Snapshot()> kv_stats;
};

uint64_t RawBytes(const std::vector<Trajectory>& data, size_t begin,
                  size_t end) {
  uint64_t points = 0;
  for (size_t i = begin; i < end; ++i) points += data[i].points.size();
  return points * sizeof(Point);
}

// Query instances for `rounds` rounds, every one distinct. Probes are
// stored trajectories (the paper's query choice), drawn by systematic
// sampling over the data sorted by bounding-box diagonal, so each run's
// mix of stationary, short and long trips matches the data's and
// does not drift with the sample; the seed picks the offset and the
// order.
std::array<std::vector<QuerySpec>, kKinds> MakePools(
    const std::vector<Trajectory>& data, const Sizes& sizes, int rounds,
    uint64_t seed) {
  std::vector<std::pair<double, size_t>> by_span;
  for (size_t i = 0; i < data.size(); ++i) {
    const Mbr b = data[i].Bounds();
    by_span.emplace_back(std::hypot(b.width(), b.height()), i);
  }
  std::sort(by_span.begin(), by_span.end());
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::uniform_real_distribution<double> offset(0.0, 1.0);
  const double half = 0.5 * sizes.range_side_deg * trass::geo::kDegree;
  const double shift = kSparseShiftEps * kEps;
  std::array<std::vector<QuerySpec>, kKinds> pools;
  for (int kind = 0; kind < kKinds; ++kind) {
    const size_t n = static_cast<size_t>(rounds) * kRoundMix[kind];
    const double stride = static_cast<double>(data.size()) / static_cast<double>(n);
    const double start = offset(rng);
    std::vector<size_t> picks;
    for (size_t j = 0; j < n; ++j) {
      const size_t pos = std::min(
          data.size() - 1, static_cast<size_t>((static_cast<double>(j) + start) * stride));
      picks.push_back(by_span[pos].second);
    }
    std::shuffle(picks.begin(), picks.end(), rng);
    for (size_t j = 0; j < n; ++j) {
      const Trajectory& t = data[picks[j]];
      QuerySpec q;
      q.kind = static_cast<Kind>(kind);
      q.instance = j;
      if (kind == kRange) {
        const Point c = t.points[t.points.size() / 2];
        q.window = Mbr(c.x - half, c.y - half, c.x + half, c.y + half);
      } else {
        q.points = t.points;
        if (kind == kSparse) {
          for (Point& p : q.points) {
            p.x = std::clamp(p.x + shift, 0.0, 1.0);
            p.y = std::clamp(p.y + shift, 0.0, 1.0);
          }
        }
      }
      pools[kind].push_back(std::move(q));
    }
  }
  return pools;
}

// Runs whole rounds of queries against one deployment, records each
// query's process CPU and wall time, keeps the first answer of every
// oracle-sampled instance, and checks repeats of an instance (traced
// runs) for identical answers.
class QueryPhase {
 public:
  QueryPhase(Target target, std::array<std::vector<QuerySpec>, kKinds> pools,
             const Sizes& sizes, CountingEnv* env, Tracer* tracer,
             std::atomic<uint64_t>* current_query, Checks* checks)
      : target_(std::move(target)),
        pools_(std::move(pools)),
        sizes_(sizes),
        env_(env),
        tracer_(tracer),
        current_query_(current_query),
        checks_(checks) {}

  // Runs every round once. With `traced`, runs the first half of the
  // rounds twice each on the same queries, once untraced and once
  // traced, in alternating order, so the traced run can state its own
  // overhead at the same amount of work.
  void Run(bool traced) {
    const int rounds = static_cast<int>(pools_[kThreshold].size()) /
                       kRoundMix[kThreshold];
    const int run = traced ? std::max(1, rounds / 2) : rounds;
    for (int round = 0; round < run; ++round) {
      if (!traced) {
        RunRound(round, false);
      } else {
        const bool traced_first = round % 2 == 1;
        RunRound(round, traced_first);
        RunRound(round, !traced_first);
      }
      ++rounds_;
    }
  }

  const std::vector<QueryRecord>& records() const { return records_; }
  const std::array<std::vector<QuerySpec>, kKinds>& pools() const {
    return pools_;
  }
  int rounds() const { return rounds_; }
  uint64_t failed() const { return failed_; }
  uint64_t repeat_work_mismatches() const { return repeat_work_mismatches_; }
  uint64_t digest() const { return digest_.h; }

  std::string DigestScope() const {
    std::string scope = "rows read, index values, result ids, DP runs";
    if (!digest_topk_dp_) scope += " except top-k";
    if (digest_readahead_) scope += ", readahead bytes";
    return scope;
  }

  const std::vector<SearchResult>* first_results(Kind kind, size_t i) const {
    auto it = first_results_.find({kind, i});
    return it == first_results_.end() ? nullptr : &it->second;
  }
  const std::vector<uint64_t>* first_ids(size_t i) const {
    auto it = first_ids_.find(i);
    return it == first_ids_.end() ? nullptr : &it->second;
  }

  // What the work digest covers beyond rows read, index values and
  // result ids. Readahead bytes repeat only on a fixed file layout; top-k
  // DP runs only with serial refinement, because parallel refine workers
  // tighten the shared k-th bound at timing-dependent moments.
  void DigestAlso(bool readahead, bool topk_dp_runs) {
    digest_readahead_ = readahead;
    digest_topk_dp_ = topk_dp_runs;
  }

 private:
  struct Work {
    uint64_t retrieved, index_values, dp_runs, result_hash;
  };

  void RunRound(int round, bool traced) {
    for (int kind = 0; kind < kKinds; ++kind) {
      for (int j = 0; j < kRoundMix[kind]; ++j) {
        RunOne(pools_[kind][static_cast<size_t>(round) * kRoundMix[kind] + j],
               traced);
      }
    }
  }

  void RunOne(const QuerySpec& spec, bool traced) {
    QueryRecord r;
    r.kind = spec.kind;
    r.instance = spec.instance;
    r.traced = traced;
    std::vector<SearchResult> results;
    std::vector<uint64_t> ids;
    trass::kv::IoStats::Snapshot kv0{};
    if (traced) {
      r.span_id = tracer_->NewId();
      current_query_->store(r.span_id);
      tracer_->SetActive(true);
      kv0 = target_.kv_stats();
    }
    const IoCounts io0 = env_->Read();
    const double w0 = WallSeconds();
    const double c0 = CpuSeconds();
    const Status s = target_.run(spec, &results, &ids, &r.m);
    const double c1 = CpuSeconds();
    const double w1 = WallSeconds();
    r.io = env_->Read().Minus(io0);
    r.cpu_ms = (c1 - c0) * 1e3;
    r.wall_ms = (w1 - w0) * 1e3;
    if (traced) {
      tracer_->SetActive(false);
      const auto kv1 = target_.kv_stats();
      r.kv_bytes = (kv1.block_bytes_read - kv0.block_bytes_read) +
                   (kv1.readahead_bytes_read - kv0.readahead_bytes_read);
      tracer_->Record(
          Span{kKindNames[spec.kind], r.span_id, 0, w0, w1});
    }
    if (!s.ok()) {
      ++failed_;
      checks_->Fail(std::string(kKindNames[spec.kind]) + " query failed: " +
                    s.ToString());
      return;
    }
    Fnv h;
    if (spec.kind == kRange) {
      std::sort(ids.begin(), ids.end());
      for (uint64_t id : ids) h.Add(id);
      r.results = ids.size();
    } else {
      std::vector<SearchResult> sorted = results;
      std::sort(sorted.begin(), sorted.end());
      for (const SearchResult& x : sorted) {
        h.Add(x.id);
        uint64_t bits;
        std::memcpy(&bits, &x.distance, sizeof(bits));
        h.Add(bits);
      }
      r.results = results.size();
    }
    r.result_hash = h.h;

    const Work work{r.m.retrieved, r.m.index_values, r.m.refine_dp_runs,
                    r.result_hash};
    auto [it, fresh] = first_work_.try_emplace({spec.kind, spec.instance}, work);
    if (fresh) {
      if (spec.instance < sizes_.oracle_sample) {
        if (spec.kind == kRange) {
          first_ids_[spec.instance] = ids;
        } else {
          first_results_[{spec.kind, spec.instance}] = results;
        }
      }
    } else {
      if (it->second.result_hash != work.result_hash) {
        checks_->Fail(std::string(kKindNames[spec.kind]) + " instance " +
                      std::to_string(spec.instance) +
                      " answered differently on a repeat");
      }
      if (it->second.retrieved != work.retrieved ||
          it->second.index_values != work.index_values ||
          it->second.dp_runs != work.dp_runs) {
        ++repeat_work_mismatches_;
      }
    }
    if (!traced) {
      digest_.Add(static_cast<uint64_t>(spec.kind));
      digest_.Add(spec.instance);
      digest_.Add(work.retrieved);
      digest_.Add(work.index_values);
      if (spec.kind != kTopKQuery || digest_topk_dp_) digest_.Add(work.dp_runs);
      digest_.Add(work.result_hash);
      if (digest_readahead_) digest_.Add(r.m.readahead_bytes_read);
    }
    records_.push_back(std::move(r));
  }

  Target target_;
  std::array<std::vector<QuerySpec>, kKinds> pools_;
  Sizes sizes_;
  CountingEnv* env_;
  Tracer* tracer_;
  std::atomic<uint64_t>* current_query_;
  Checks* checks_;
  bool digest_readahead_ = false;
  bool digest_topk_dp_ = false;
  int rounds_ = 0;
  uint64_t failed_ = 0;
  uint64_t repeat_work_mismatches_ = 0;
  Fnv digest_;
  std::vector<QueryRecord> records_;
  std::map<std::pair<int, size_t>, Work> first_work_;
  std::map<std::pair<int, size_t>, std::vector<SearchResult>> first_results_;
  std::map<size_t, std::vector<uint64_t>> first_ids_;
};

// Oracle checks of the sampled instances' first answers.
void CheckWithOracle(const QueryPhase& phase,
                     const std::vector<Trajectory>& data, Checks* checks) {
  int checked = 0;
  for (int kind = 0; kind < kKinds; ++kind) {
    for (const QuerySpec& spec : phase.pools()[kind]) {
      std::string err;
      if (kind == kRange) {
        const auto* got = phase.first_ids(spec.instance);
        if (got == nullptr) continue;
        err = CompareRange(*got, OracleRange(data, spec.window));
      } else {
        const auto* got = phase.first_results(static_cast<Kind>(kind),
                                              spec.instance);
        if (got == nullptr) continue;
        if (kind == kTopKQuery) {
          err = CompareTopK(*got, OracleTopK(data, spec.points, kTopK), kTopK,
                            data, spec.points);
        } else {
          err = CompareThreshold(*got, OracleThreshold(data, spec.points, kEps),
                                 kEps);
        }
      }
      ++checked;
      if (!err.empty()) {
        checks->Fail(std::string("oracle: ") + kKindNames[kind] +
                     " instance " + std::to_string(spec.instance) + ": " + err);
      }
    }
  }
  std::printf("oracle: %d sampled answers checked\n", checked);
}

std::vector<double> Select(const std::vector<QueryRecord>& records, int kind,
                           bool traced, double QueryRecord::*field) {
  std::vector<double> out;
  for (const QueryRecord& r : records) {
    if (r.traced == traced && (kind < 0 || r.kind == kind)) {
      out.push_back(r.*field);
    }
  }
  return out;
}

// End-to-end query metrics from the untraced records.
void ReportQueries(const QueryPhase& phase, Report* e2e) {
  const auto& recs = phase.records();
  const std::vector<double> cpu = Select(recs, -1, false, &QueryRecord::cpu_ms);
  double total_cpu_ms = 0;
  for (double c : cpu) total_cpu_ms += c;
  e2e->Set("queries_per_cpu_s",
           total_cpu_ms > 0 ? 1e3 * static_cast<double>(cpu.size()) / total_cpu_ms
                            : 0.0,
           "1/s");
  const auto t = Select(recs, kThreshold, false, &QueryRecord::cpu_ms);
  const auto k = Select(recs, kTopKQuery, false, &QueryRecord::cpu_ms);
  e2e->Set("threshold_cpu_p50_ms", Quantile(t, 0.5), "ms");
  e2e->Set("threshold_cpu_p90_ms", Quantile(t, 0.9), "ms");
  e2e->Set("topk_cpu_p50_ms", Quantile(k, 0.5), "ms");
  e2e->Set("topk_cpu_p90_ms", Quantile(k, 0.9), "ms");
  e2e->Set("range_cpu_p50_ms",
           Quantile(Select(recs, kRange, false, &QueryRecord::cpu_ms), 0.5),
           "ms");
  e2e->Set("sparse_threshold_cpu_p50_ms",
           Quantile(Select(recs, kSparse, false, &QueryRecord::cpu_ms), 0.5),
           "ms");
  std::printf("queries: %zu untraced in %d rounds (threshold %zu, topk %zu)\n",
              cpu.size(), phase.rounds(), t.size(), k.size());
  for (int kind = 0; kind < kKinds; ++kind) {
    const auto wall = Select(recs, kind, false, &QueryRecord::wall_ms);
    std::printf("wall %-18s p50 %9.3f ms  p90 %9.3f ms  (n=%zu)\n",
                kKindNames[kind], Quantile(wall, 0.5), Quantile(wall, 0.9),
                wall.size());
  }
}

// Per-layer metrics from the traced records.
void ReportLayers(const QueryPhase& phase, bool single_store,
                  const std::vector<AttemptRecord>& attempts,
                  double attempt_hedges, Report* layers) {
  const auto& recs = phase.records();
  double n = 0, pruning = 0, ranges = 0, values = 0, elements_pruned = 0,
         mbr_pruned = 0, fp_skips = 0, filter_mem = 0, scan_ms = 0,
         retrieved = 0, kv_bytes = 0, ra_bytes = 0, ra_reads = 0, hits = 0,
         misses = 0, fills = 0, read_calls = 0, read_bytes = 0, candidates = 0,
         refine_ms = 0, refined = 0, lb = 0, dp = 0, decode_ms = 0, lb_ms = 0,
         dp_ms = 0, results = 0, sim_results = 0, unaccounted = 0, cpu_traced = 0,
         cpu_untraced = 0;
  std::map<uint64_t, const QueryRecord*> by_span;
  for (const QueryRecord& r : recs) {
    if (!r.traced) {
      cpu_untraced += r.cpu_ms;
      continue;
    }
    cpu_traced += r.cpu_ms;
    by_span[r.span_id] = &r;
    n += 1;
    pruning += r.m.pruning_ms;
    ranges += static_cast<double>(r.m.scan_ranges);
    values += static_cast<double>(r.m.index_values);
    elements_pruned += static_cast<double>(r.m.filter_elements_pruned);
    mbr_pruned += static_cast<double>(r.m.filter_mbr_pruned);
    fp_skips += static_cast<double>(r.m.fingerprint_skips);
    filter_mem = std::max(filter_mem, static_cast<double>(r.m.filter_memory_bytes));
    scan_ms += r.m.scan_ms;
    retrieved += static_cast<double>(r.m.retrieved);
    kv_bytes += static_cast<double>(r.kv_bytes);
    ra_bytes += static_cast<double>(r.m.readahead_bytes_read);
    ra_reads += static_cast<double>(r.m.readahead_reads);
    hits += static_cast<double>(r.m.block_cache_hits);
    misses += static_cast<double>(r.m.block_cache_misses);
    fills += static_cast<double>(r.m.block_cache_fills);
    read_calls += static_cast<double>(r.io.read_calls);
    read_bytes += static_cast<double>(r.io.read_bytes);
    candidates += static_cast<double>(r.m.candidates);
    refine_ms += r.m.refine_ms;
    refined += static_cast<double>(r.m.refined);
    lb += static_cast<double>(r.m.lb_rejected);
    dp += static_cast<double>(r.m.refine_dp_runs);
    decode_ms += r.m.refine_decode_ms;
    lb_ms += r.m.refine_lb_ms;
    dp_ms += r.m.refine_dp_ms;
    results += static_cast<double>(r.results);
    if (r.kind != kRange) sim_results += static_cast<double>(r.results);
    unaccounted += r.wall_ms - r.m.pruning_ms - r.m.scan_ms - r.m.refine_ms;
  }
  auto per_query = [&](double v) { return n > 0 ? v / n : 0.0; };
  layers->Set("prune.ms", per_query(pruning), "ms");
  layers->Set("prune.scan_ranges", per_query(ranges), "count");
  layers->Set("prune.index_values", per_query(values), "count");
  layers->Set("filter.elements_pruned", per_query(elements_pruned), "count");
  layers->Set("filter.mbr_pruned", per_query(mbr_pruned), "count");
  layers->Set("filter.fingerprint_skips", per_query(fp_skips), "count");
  layers->Set("filter.memory_bytes", filter_mem, "bytes");
  layers->Set("kv.scan_ms", per_query(scan_ms), "ms");
  layers->Set("kv.rows_read", per_query(retrieved), "count");
  layers->Set("kv.bytes_read_per_result", results > 0 ? kv_bytes / results : 0,
              "bytes");
  layers->Set("kv.readahead_bytes", per_query(ra_bytes), "bytes");
  layers->Set("kv.readahead_reads", per_query(ra_reads), "count");
  layers->Set("kv.cache_hits", per_query(hits), "count");
  layers->Set("kv.cache_misses", per_query(misses), "count");
  layers->Set("kv.cache_fills", per_query(fills), "count");
  if (hits + misses > 0) {
    layers->Set("kv.cache_hit_ratio", hits / (hits + misses), "ratio");
  } else {
    layers->Unmeasured("kv.cache_hit_ratio", "ratio",
                       "no block-cache lookups in the traced queries");
  }
  layers->Set("io.read_calls", per_query(read_calls), "count");
  layers->Set("io.read_bytes", per_query(read_bytes), "bytes");
  layers->Set("local_filter.candidates", per_query(candidates), "count");
  layers->Set("local_filter.kept_ratio",
              retrieved > 0 ? candidates / retrieved : 0.0, "ratio");
  layers->Set("refine.ms", per_query(refine_ms), "ms");
  layers->Set("refine.refined", per_query(refined), "count");
  layers->Set("refine.lb_rejected", per_query(lb), "count");
  layers->Set("refine.dp_runs", per_query(dp), "count");
  layers->Set("refine.precision", refined > 0 ? sim_results / refined : 0.0,
              "ratio");
  const char* kWireGap =
      "src/serve/wire.cc PutMetrics/GetMetrics do not carry the refine "
      "breakdown, so it reaches the coordinator as 0";
  if (single_store) {
    layers->Set("refine.decode_ms", per_query(decode_ms), "ms");
    layers->Set("refine.lb_ms", per_query(lb_ms), "ms");
    layers->Set("refine.dp_ms", per_query(dp_ms), "ms");
    layers->Set("query.unaccounted_ms", per_query(unaccounted), "ms");
  } else {
    layers->Unmeasured("refine.decode_ms", "ms", kWireGap);
    layers->Unmeasured("refine.lb_ms", "ms", kWireGap);
    layers->Unmeasured("refine.dp_ms", "ms", kWireGap);
  }

  const char* kNoServe = "no serving tier in this deployment";
  if (single_store) {
    for (const char* name :
         {"serve.attempts_per_query", "serve.followup_attempts_per_topk",
          "serve.request_bytes", "serve.response_bytes",
          "serve.attempt_p50_ms", "serve.fanout_overhead_ms",
          "serve.hedges_sent"}) {
      const std::string s(name);
      layers->Unmeasured(
          s,
          s.find("bytes") != std::string::npos ? "bytes"
          : s.find("_ms") != std::string::npos ? "ms"
                                               : "count",
          kNoServe);
    }
  } else {
    // Group attempts by query; within a query, attempts that share a
    // bound form one wave, and the slowest attempt of each wave blocks.
    std::map<uint64_t, std::map<double, double>> wave_slowest;
    std::vector<double> attempt_ms;
    double followups = 0, req = 0, resp = 0;
    for (const AttemptRecord& a : attempts) {
      const double ms = (a.end_s - a.start_s) * 1e3;
      attempt_ms.push_back(ms);
      double& slowest = wave_slowest[a.query_id][a.bound];
      slowest = std::max(slowest, ms);
      if (a.followup) followups += 1;
      req += static_cast<double>(a.request_bytes);
      resp += static_cast<double>(a.response_bytes);
    }
    double overhead = 0;
    for (const auto& [span, waves] : wave_slowest) {
      auto it = by_span.find(span);
      if (it == by_span.end()) continue;
      double blocked = 0;
      for (const auto& [bound, ms] : waves) blocked += ms;
      overhead += it->second->wall_ms - blocked;
    }
    double topk = 0;
    for (const auto& [span, r] : by_span) topk += r->kind == kTopKQuery ? 1 : 0;
    layers->Set("serve.attempts_per_query",
                per_query(static_cast<double>(attempts.size())), "count");
    layers->Set("serve.followup_attempts_per_topk",
                topk > 0 ? followups / topk : 0.0, "count");
    layers->Set("serve.request_bytes", per_query(req), "bytes");
    layers->Set("serve.response_bytes", per_query(resp), "bytes");
    layers->Set("serve.attempt_p50_ms", Quantile(attempt_ms, 0.5), "ms");
    layers->Set("serve.fanout_overhead_ms", per_query(overhead), "ms");
    layers->Set("serve.hedges_sent", attempt_hedges, "count");
    layers->Set("query.unaccounted_ms", per_query(overhead), "ms");
  }
  layers->Set("trace.overhead_ratio",
              cpu_untraced > 0 ? cpu_traced / cpu_untraced - 1.0 : 0.0,
              "ratio");
}

// Write-phase counters at the Env and KV boundaries: how many bytes the
// stores wrote per user byte, syncs, and the table churn that shows how
// many flush and compaction cycles ran.
struct WritePhase {
  IoCounts io;
  trass::kv::IoStats::Snapshot kv_before{}, kv_after{};
  uint64_t user_bytes = 0;
  double cpu_s = 0;
  uint64_t rows = 0;
};

void ReportWritePhase(const WritePhase& w, Report* layers) {
  const double user = static_cast<double>(std::max<uint64_t>(w.user_bytes, 1));
  layers->Set("io.wal_bytes_per_user_byte",
              static_cast<double>(w.io.wal_bytes) / user, "ratio");
  layers->Set("io.table_bytes_written_per_user_byte",
              static_cast<double>(w.io.table_bytes) / user, "ratio");
  layers->Set("io.syncs", static_cast<double>(w.io.syncs), "count");
  layers->Set("io.tables_created", static_cast<double>(w.io.tables_created),
              "count");
  layers->Set("io.tables_deleted", static_cast<double>(w.io.tables_deleted),
              "count");
  layers->Set("kv.write_stalls",
              static_cast<double>(w.kv_after.write_stalls -
                                  w.kv_before.write_stalls),
              "count");
  layers->Set("kv.stall_ms",
              static_cast<double>(w.kv_after.stall_ms - w.kv_before.stall_ms),
              "ms");
}

void UnmeasuredIngest(Report* layers) {
  const char* kNoStream = "no SubmitAsync stream in this workload";
  layers->Unmeasured("ingest.batches", "count", kNoStream);
  layers->Unmeasured("ingest.rows_per_batch", "count", kNoStream);
  layers->Unmeasured("ingest.max_batch_rows", "count", kNoStream);
  layers->Unmeasured("ingest.queue_high_water", "count", kNoStream);
  layers->Unmeasured("ingest.submit_p50_ms", "ms", kNoStream);
  layers->Unmeasured("ingest.generator_lag_ms", "ms", kNoStream);
  layers->Unmeasured("ingest.visible_p50_ms", "ms", kNoStream);
}

trass::kv::IoStats::Snapshot SumKv(
    const std::vector<TrassStore*>& stores) {
  trass::kv::IoStats::Snapshot total{};
  for (TrassStore* s : stores) {
    const auto x = s->region_store()->TotalIoStats();
    total.block_bytes_read += x.block_bytes_read;
    total.readahead_bytes_read += x.readahead_bytes_read;
    total.write_stalls += x.write_stalls;
    total.stall_ms += x.stall_ms;
  }
  return total;
}

// The query mix against anything with the store's query API (a
// TrassStore or the ShardCoordinator).
template <typename Api>
Target MakeTarget(Api* api, std::vector<TrassStore*> stores) {
  Target target;
  target.run = [api](const QuerySpec& q, std::vector<SearchResult>* res,
                     std::vector<uint64_t>* ids, QueryMetrics* m) {
    switch (q.kind) {
      case kTopKQuery:
        return api->TopKSearch(q.points, kTopK, kMeasure, res, m);
      case kRange:
        return api->RangeQuery(q.window, ids, m);
      default:
        return api->ThresholdSearch(q.points, kEps, kMeasure, res, m);
    }
  };
  target.kv_stats = [stores] { return SumKv(stores); };
  return target;
}

uint64_t TableBytes(const std::vector<TrassStore*>& stores) {
  uint64_t total = 0;
  for (TrassStore* s : stores) total += s->region_store()->TotalTableBytes();
  return total;
}

Status LoadInBatches(
    const std::vector<Trajectory>& data, size_t begin, size_t end,
    const std::function<Status(const std::vector<Trajectory>&)>& put) {
  constexpr size_t kBatch = 1000;
  std::vector<Trajectory> batch;
  for (size_t i = begin; i < end; i += kBatch) {
    batch.assign(data.begin() + i, data.begin() + std::min(end, i + kBatch));
    Status s = put(batch);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// A whole-extent range query after close and reopen must return every
// acknowledged id.
void CheckReopen(const TrassOptions& options,
                 const std::vector<std::string>& paths, uint64_t expected_ids,
                 Checks* checks) {
  std::vector<uint64_t> all;
  for (const std::string& path : paths) {
    std::unique_ptr<TrassStore> store;
    Status s = TrassStore::Open(options, path, &store);
    if (!s.ok()) {
      checks->Fail("reopen " + path + ": " + s.ToString());
      return;
    }
    std::vector<uint64_t> ids;
    s = store->RangeQuery(Mbr(0, 0, 1, 1), &ids);
    if (!s.ok()) {
      checks->Fail("whole-extent range after reopen: " + s.ToString());
      return;
    }
    all.insert(all.end(), ids.begin(), ids.end());
  }
  std::sort(all.begin(), all.end());
  bool ok = all.size() == expected_ids;
  for (size_t i = 0; ok && i < all.size(); ++i) ok = all[i] == i + 1;
  checks->Expect(ok, "reopen: whole-extent range returned " +
                         std::to_string(all.size()) + " ids, expected 1.." +
                         std::to_string(expected_ids));
  std::printf("reopen: whole-extent range returned %zu ids\n", all.size());
}

Sizes SizesFor(const std::string& workload, bool toy) {
  Sizes s;
  s.setup_reps = 3;
  s.oracle_sample = toy ? 4 : 6;
  if (workload == "tdrive_store_read") {
    s.trajectories = toy ? 1500 : 20000;
    s.range_side_deg = 0.1;
    s.rounds_per_second = 16;
  } else if (workload == "lorry_coord_socket") {
    s.trajectories = toy ? 1500 : 20000;
    s.range_side_deg = 1.0;
    s.rounds_per_second = 12;
  } else {
    s.rounds_per_second = 16;
    s.trajectories = toy ? 1500 : 40000;
    s.stream_rows = toy ? 600 : 12000;
    s.stream_rate = toy ? 1000 : 3000;
    s.range_side_deg = 0.1;
  }
  if (toy) {
    s.setup_reps = 1;
    s.rounds_per_second = 6;
  }
  return s;
}

// State shared by the three workloads.
struct Harness {
  const Config& config;
  Sizes sizes;
  Outcome* out;
  CountingEnv env;
  Tracer tracer;
  std::atomic<uint64_t> current_query{0};
  Checks checks;
  uint64_t attempted = 0;
  std::vector<double> setup_cpu;
  std::vector<double> load_rate;  // rows per CPU second, per set-up
  WritePhase write_phase;         // of the kept set-up
  double run_wall0 = WallSeconds(), run_cpu0 = CpuSeconds(),
         run_steal0 = StealSeconds();

  Harness(const Config& c, Outcome* o)
      : config(c), sizes(SizesFor(c.workload, c.toy)), out(o) {
    if (c.trace) sizes.setup_reps = 1;
  }

  TrassOptions StoreOptions() {
    TrassOptions options;
    options.db_options.env = &env;
    return options;
  }

  // Query rounds for `seconds` of the timed phase: the work is fixed by
  // the arguments, so a run's query set never depends on how fast the
  // machine happened to be.
  int Rounds(double seconds) const {
    return std::max(1, static_cast<int>(std::lround(seconds * sizes.rounds_per_second)));
  }

  std::string Dir(const std::string& name) const {
    return config.work_dir + "/" + name;
  }

  // Settles background work, then measures space amplification and
  // prints the input make-up against the stores' block caches.
  void Settle(const std::vector<TrassStore*>& stores,
              const std::vector<Trajectory>& data) {
    if (!env.Settle()) checks.Fail("background compaction did not settle");
    const uint64_t raw = RawBytes(data, 0, data.size());
    const uint64_t tables = TableBytes(stores);
    out->end_to_end.Set(
        "space_amp",
        static_cast<double>(tables) /
            static_cast<double>(std::max<uint64_t>(raw, 1)),
        "ratio");
    double cache = 0;
    for (TrassStore* s : stores) {
      cache += static_cast<double>(s->options().shards) *
               static_cast<double>(s->options().db_options.block_cache_size);
    }
    std::printf("inputs: %zu trajectories, %.1f mean points, %.1f MB raw, "
                "%.1f MB in tables, %.1f MB of block caches\n",
                data.size(),
                static_cast<double>(raw) / sizeof(Point) /
                    static_cast<double>(data.size()),
                static_cast<double>(raw) / 1e6, static_cast<double>(tables) / 1e6,
                cache / 1e6);
  }

  void Finish(const QueryPhase& phase, const std::vector<Trajectory>& data) {
    out->end_to_end.Set("setup_s", Quantile(setup_cpu, 0.5), "s");
    std::printf("setup_cpu_s:");
    for (double s : setup_cpu) std::printf(" %.4f", s);
    std::printf("\n");
    ReportQueries(phase, &out->end_to_end);
    if (config.workload != "tdrive_ingest_filter") {
      out->end_to_end.Set("ingest_rows_per_cpu_s", Quantile(load_rate, 0.5),
                          "rows/s");
    }
    const double run_cpu = CpuSeconds() - run_cpu0;
    const double run_wall = WallSeconds() - run_wall0;
    // Oracle work runs after every timed phase.
    CheckWithOracle(phase, data, &checks);
    out->end_to_end.Set("peak_rss_mb", PeakRssMb(), "MiB");
    std::printf("digest: %016llx over %d rounds (%s)\n",
                static_cast<unsigned long long>(phase.digest()),
                phase.rounds(), phase.DigestScope().c_str());
    std::printf("repeat_work_mismatches: %llu\n",
                static_cast<unsigned long long>(phase.repeat_work_mismatches()));
    std::printf("run: wall %.3f s, process cpu %.3f s, steal %.3f s\n",
                run_wall, run_cpu, StealSeconds() - run_steal0);
    attempted += phase.records().size();
    out->failed += phase.failed();
  }
};

// Runs the set-up `reps` times (fresh directories), keeping the last
// deployment; every earlier one is torn down and deleted. `open` builds a
// deployment in the given directory and returns its load phase.
template <typename Deployment>
bool RepeatSetup(Harness* h,
                 const std::function<bool(const std::string&, Deployment*,
                                          WritePhase*)>& open,
                 Deployment* kept) {
  for (int rep = 0; rep < h->sizes.setup_reps; ++rep) {
    const std::string dir = h->Dir("setup" + std::to_string(rep));
    h->env.RemoveDirRecursively(dir);
    h->env.CreateDir(dir);
    auto d = std::make_unique<Deployment>();
    WritePhase w;
    const double c0 = CpuSeconds();
    if (!open(dir, d.get(), &w)) return false;
    h->setup_cpu.push_back(CpuSeconds() - c0);
    h->load_rate.push_back(static_cast<double>(w.rows) / w.cpu_s);
    if (rep + 1 < h->sizes.setup_reps) {
      d.reset();
      h->env.RemoveDirRecursively(dir);
    } else {
      *kept = std::move(*d);
      h->write_phase = w;
    }
  }
  return true;
}

// ---- tdrive_store_read --------------------------------------------------

struct StoreDeployment {
  std::string path;
  std::unique_ptr<TrassStore> store;
};

// Sets up a single store (three times, see RepeatSetup) and loads the
// first `rows` trajectories with PutBatch, then flush, settle and, with
// the filter tier on, the first snapshot publish — work a first query
// would otherwise pay.
bool SetUpStore(Harness* h, const TrassOptions& options,
                const std::vector<Trajectory>& data, size_t rows,
                StoreDeployment* dep) {
  return RepeatSetup<StoreDeployment>(
      h,
      [&](const std::string& dir, StoreDeployment* d, WritePhase* w) {
        d->path = dir + "/store";
        Status s = TrassStore::Open(options, d->path, &d->store);
        if (!s.ok()) {
          std::fprintf(stderr, "open: %s\n", s.ToString().c_str());
          return false;
        }
        const IoCounts io0 = h->env.Read();
        w->kv_before = SumKv({d->store.get()});
        const double c0 = CpuSeconds();
        s = LoadInBatches(data, 0, rows,
                          [&](const std::vector<Trajectory>& b) {
                            return d->store->PutBatch(b);
                          });
        if (s.ok()) s = d->store->Flush();
        if (!s.ok()) {
          std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
          return false;
        }
        if (!h->env.Settle()) h->checks.Fail("load did not settle");
        if (d->store->filter_tier() != nullptr) d->store->filter_tier()->snapshot();
        w->cpu_s = CpuSeconds() - c0;
        w->rows = rows;
        w->user_bytes = RawBytes(data, 0, rows);
        w->io = h->env.Read().Minus(io0);
        w->kv_after = SumKv({d->store.get()});
        return true;
      },
      dep);
}

bool RunStoreRead(Harness* h) {
  const std::vector<Trajectory> data =
      trass::workload::TDriveLike(h->sizes.trajectories, h->config.seed);
  const TrassOptions options = h->StoreOptions();
  StoreDeployment dep;
  if (!SetUpStore(h, options, data, data.size(), &dep)) return false;
  h->Settle({dep.store.get()}, data);

  TrassStore* store = dep.store.get();
  const Target target = MakeTarget(store, {store});
  QueryPhase phase(target,
                   MakePools(data, h->sizes, h->Rounds(h->config.seconds),
                             h->config.seed),
                   h->sizes, &h->env, &h->tracer, &h->current_query,
                   &h->checks);
  phase.DigestAlso(/*readahead=*/true, /*topk_dp_runs=*/false);
  phase.Run(h->config.trace);

  ReportLayers(phase, true, {}, 0, &h->out->per_layer);
  ReportWritePhase(h->write_phase, &h->out->per_layer);
  UnmeasuredIngest(&h->out->per_layer);
  h->Finish(phase, data);
  dep.store.reset();
  CheckReopen(options, {dep.path}, data.size(), &h->checks);
  return true;
}

// ---- lorry_coord_socket -------------------------------------------------

constexpr int kShards = 4;

struct TierDeployment {
  std::vector<std::string> paths;
  // Destroyed in reverse: coordinator, transports, servers, stores.
  std::vector<std::unique_ptr<TrassStore>> stores;
  std::vector<std::unique_ptr<trass::serve::ShardServer>> servers;
  std::vector<std::shared_ptr<TimingTransport>> transports;
  std::unique_ptr<trass::serve::ShardCoordinator> coordinator;

  // Tears the tier down in dependency order.
  void Close() {
    coordinator.reset();
    transports.clear();
    servers.clear();
    stores.clear();
  }

  std::vector<TrassStore*> raw_stores() const {
    std::vector<TrassStore*> out;
    for (const auto& s : stores) out.push_back(s.get());
    return out;
  }
};

TrassOptions ShardStoreOptions(Harness* h) {
  TrassOptions options = h->StoreOptions();
  // Four shards in one process: one scan worker each and serial
  // refinement keep the tier's pool threads near the core count.
  options.scan_threads = 1;
  options.refine_threads = 1;
  return options;
}

bool RunCoordSocket(Harness* h) {
  const std::vector<Trajectory> data =
      trass::workload::LorryLike(h->sizes.trajectories, h->config.seed);
  const uint64_t raw = RawBytes(data, 0, data.size());
  const TrassOptions options = ShardStoreOptions(h);
  TierDeployment dep;
  const bool ok = RepeatSetup<TierDeployment>(
      h,
      [&](const std::string& dir, TierDeployment* d, WritePhase* w) {
        std::vector<std::shared_ptr<trass::serve::ShardTransport>> transports;
        for (int i = 0; i < kShards; ++i) {
          d->paths.push_back(dir + "/shard" + std::to_string(i));
          std::unique_ptr<TrassStore> store;
          Status s = TrassStore::Open(options, d->paths.back(), &store);
          if (!s.ok()) {
            std::fprintf(stderr, "open shard: %s\n", s.ToString().c_str());
            return false;
          }
          auto server = std::make_unique<trass::serve::ShardServer>(
              store.get(), dir + "/s" + std::to_string(i) + ".sock");
          s = server->Start();
          if (!s.ok()) {
            std::fprintf(stderr, "shard server: %s\n", s.ToString().c_str());
            return false;
          }
          auto transport = std::make_shared<TimingTransport>(
              std::make_shared<trass::serve::SocketShardTransport>(
                  server->socket_path()),
              &h->tracer, &h->current_query);
          d->transports.push_back(transport);
          transports.push_back(transport);
          d->servers.push_back(std::move(server));
          d->stores.push_back(std::move(store));
        }
        trass::serve::CoordinatorOptions co;
        co.max_resolution = options.max_resolution;
        co.pool_threads = kShards;
        co.enable_hedging = false;
        d->coordinator = std::make_unique<trass::serve::ShardCoordinator>(
            co, std::move(transports));
        const IoCounts io0 = h->env.Read();
        w->kv_before = SumKv(d->raw_stores());
        const double c0 = CpuSeconds();
        Status s = LoadInBatches(data, 0, data.size(),
                                 [&](const std::vector<Trajectory>& b) {
                                   return d->coordinator->PutBatch(b);
                                 });
        for (auto& store : d->stores) {
          if (s.ok()) s = store->Flush();
        }
        if (!s.ok()) {
          std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
          return false;
        }
        if (!h->env.Settle()) h->checks.Fail("load did not settle");
        w->cpu_s = CpuSeconds() - c0;
        w->rows = data.size();
        w->user_bytes = raw;
        w->io = h->env.Read().Minus(io0);
        w->kv_after = SumKv(d->raw_stores());
        return true;
      },
      &dep);
  if (!ok) return false;
  h->Settle(dep.raw_stores(), data);

  trass::serve::ShardCoordinator* coord = dep.coordinator.get();
  const Target target = MakeTarget(coord, dep.raw_stores());
  QueryPhase phase(target,
                   MakePools(data, h->sizes, h->Rounds(h->config.seconds),
                             h->config.seed),
                   h->sizes, &h->env, &h->tracer, &h->current_query,
                   &h->checks);
  phase.DigestAlso(/*readahead=*/true, /*topk_dp_runs=*/true);
  phase.Run(h->config.trace);

  std::vector<AttemptRecord> attempts;
  for (auto& t : dep.transports) {
    auto a = t->TakeAttempts();
    attempts.insert(attempts.end(), a.begin(), a.end());
  }
  double hedges = 0;
  for (const auto& st : coord->Stats()) {
    hedges += static_cast<double>(st.hedges_sent);
  }
  h->checks.Expect(hedges == 0, "hedges fired with hedging off");
  ReportLayers(phase, false, attempts, hedges, &h->out->per_layer);
  ReportWritePhase(h->write_phase, &h->out->per_layer);
  UnmeasuredIngest(&h->out->per_layer);
  h->Finish(phase, data);
  dep.Close();
  CheckReopen(options, dep.paths, data.size(), &h->checks);
  return true;
}

// ---- tdrive_ingest_filter -----------------------------------------------

TrassOptions FilterStoreOptions(Harness* h) {
  TrassOptions options = h->StoreOptions();
  options.filter_tier.enable = true;
  // A 1 MiB memtable (default 4 MiB) lets a stream of seconds run
  // several flushes and compaction cycles in every region.
  options.db_options.write_buffer_size = 1024 * 1024;
  return options;
}

// The open-loop stream: a paced producer, a watcher that timestamps
// each ticket's visibility, and a light query client that self-queries
// sampled rows once they are covered.
struct StreamResult {
  std::vector<double> submit_ms, lag_ms, visible_ms;
  uint64_t acked = 0;
  uint64_t failed = 0;
  uint64_t probes = 0;
};

StreamResult RunStream(Harness* h, TrassStore* store,
                       const std::vector<Trajectory>& data, size_t begin) {
  const size_t n = data.size() - begin;
  constexpr size_t kProbeEvery = 100;
  constexpr double kProbeEps = 1e-9;
  StreamResult r;
  r.submit_ms.assign(n, 0);
  r.lag_ms.assign(n, 0);
  r.visible_ms.assign(n, 0);
  std::vector<uint64_t> tickets(n, 0);
  std::vector<double> submitted_at(n, 0);
  std::atomic<size_t> submitted{0};
  std::atomic<uint64_t> probe_failures{0};
  std::atomic<uint64_t> invisible{0};
  const bool traced = h->config.trace;
  Tracer* tracer = &h->tracer;
  if (traced) tracer->SetActive(true);

  auto wait_submitted = [&](size_t i) {
    size_t seen = submitted.load();
    while (seen <= i) {
      submitted.wait(seen);
      seen = submitted.load();
    }
  };
  std::thread watcher([&] {
    for (size_t i = 0; i < n; ++i) {
      wait_submitted(i);
      if (tickets[i] == 0) continue;  // shed
      if (!store->WaitForWatermark(tickets[i], 60000).ok()) {
        invisible.fetch_add(1);
        continue;
      }
      const double now = WallSeconds();
      r.visible_ms[i] = (now - submitted_at[i]) * 1e3;
      if (traced) {
        tracer->Record(Span{"ingest.visible", tracer->NewId(), 0,
                            submitted_at[i], now});
      }
    }
  });
  std::thread prober([&] {
    for (size_t i = kProbeEvery - 1; i < n; i += kProbeEvery) {
      wait_submitted(i);
      if (tickets[i] == 0) continue;
      if (!store->WaitForWatermark(tickets[i], 60000).ok()) {
        probe_failures.fetch_add(1);
        continue;
      }
      const Trajectory& t = data[begin + i];
      std::vector<SearchResult> res;
      const Status s =
          store->ThresholdSearch(t.points, kProbeEps, kMeasure, &res);
      bool found = false;
      for (const SearchResult& x : res) {
        found = found || (x.id == t.id && x.distance == 0.0);
      }
      if (!s.ok() || !found) probe_failures.fetch_add(1);
    }
  });

  const double t0 = WallSeconds();
  const double period = 1.0 / h->sizes.stream_rate;
  for (size_t i = 0; i < n; ++i) {
    const double due = t0 + static_cast<double>(i) * period;
    double now = WallSeconds();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      now = WallSeconds();
    }
    r.lag_ms[i] = (now - due) * 1e3;
    uint64_t ticket = 0;
    const Status s = store->SubmitAsync(data[begin + i], 1000, &ticket);
    const double end = WallSeconds();
    r.submit_ms[i] = (end - now) * 1e3;
    if (traced) {
      tracer->Record(Span{"ingest.submit", tracer->NewId(), 0, now, end});
    }
    if (s.ok()) {
      tickets[i] = ticket;
      submitted_at[i] = now;
      ++r.acked;
    } else {
      ++r.failed;
      h->checks.Fail("SubmitAsync: " + s.ToString());
    }
    submitted.store(i + 1);
    submitted.notify_all();
  }
  watcher.join();
  prober.join();
  if (traced) tracer->SetActive(false);
  r.probes = n / kProbeEvery;
  h->checks.Expect(invisible.load() == 0,
                   std::to_string(invisible.load()) +
                       " accepted rows not visible within 60 s");
  h->checks.Expect(probe_failures.load() == 0,
                   std::to_string(probe_failures.load()) +
                       " sampled rows not found at distance 0 once covered");
  return r;
}

bool RunIngestFilter(Harness* h) {
  const size_t preload = h->sizes.trajectories;
  const std::vector<Trajectory> data = trass::workload::TDriveLike(
      preload + h->sizes.stream_rows, h->config.seed);
  const TrassOptions options = FilterStoreOptions(h);
  StoreDeployment dep;
  if (!SetUpStore(h, options, data, preload, &dep)) return false;
  TrassStore* store = dep.store.get();

  // Timed: the stream, until every row is visible and compaction quiet.
  const auto stats0 = store->ingest_stats();
  WritePhase w;
  w.kv_before = SumKv({store});
  const IoCounts io0 = h->env.Read();
  const double c0 = CpuSeconds();
  const double w0 = WallSeconds();
  StreamResult stream = RunStream(h, store, data, preload);
  Status s = store->DrainIngest(60000);
  h->checks.Expect(s.ok(), "DrainIngest: " + s.ToString());
  if (!h->env.Settle()) h->checks.Fail("stream did not settle");
  const double stream_cpu = CpuSeconds() - c0;
  const double stream_wall = WallSeconds() - w0;
  w.io = h->env.Read().Minus(io0);
  w.kv_after = SumKv({store});
  w.user_bytes = RawBytes(data, preload, data.size());
  const auto stats1 = store->ingest_stats();
  h->attempted += stream.acked + stream.failed + stream.probes;
  h->out->failed += stream.failed;

  h->checks.Expect(stats1.encode_failures == 0 && stats1.commit_failures == 0,
                   "ingest encode/commit failures");
  h->checks.Expect(stats1.rows_committed == stats1.accepted,
                   "rows committed " + std::to_string(stats1.rows_committed) +
                       " != accepted " + std::to_string(stats1.accepted));
  h->checks.Expect(stats1.shed == 0, "stream shed rows");
  h->checks.Expect(store->ingest_last_error().ok(),
                   "ingest error: " + store->ingest_last_error().ToString());

  h->out->end_to_end.Set("ingest_rows_per_cpu_s",
                         static_cast<double>(stream.acked) / stream_cpu,
                         "rows/s");
  std::printf("stream: %llu rows in %.3f s wall, %.3f s cpu; visible p50 "
              "%.3f ms wall\n",
              static_cast<unsigned long long>(stream.acked), stream_wall,
              stream_cpu, Quantile(stream.visible_ms, 0.5));

  Report* layers = &h->out->per_layer;
  const double batches =
      static_cast<double>(stats1.batches_committed - stats0.batches_committed);
  layers->Set("ingest.batches", batches, "count");
  layers->Set("ingest.rows_per_batch",
              batches > 0 ? static_cast<double>(stats1.rows_committed -
                                                stats0.rows_committed) /
                                batches
                          : 0.0,
              "count");
  layers->Set("ingest.max_batch_rows",
              static_cast<double>(stats1.max_batch_rows), "count");
  layers->Set("ingest.queue_high_water",
              static_cast<double>(stats1.queue_high_water), "count");
  layers->Set("ingest.submit_p50_ms", Quantile(stream.submit_ms, 0.5), "ms");
  layers->Set("ingest.generator_lag_ms", Quantile(stream.lag_ms, 0.99), "ms");
  layers->Set("ingest.visible_p50_ms", Quantile(stream.visible_ms, 0.5), "ms");
  ReportWritePhase(w, layers);

  // Flushing the stream's tail makes the table bytes cover every row.
  s = store->Flush();
  h->checks.Expect(s.ok(), "flush: " + s.ToString());
  h->Settle({store}, data);

  const Target target = MakeTarget(store, {store});
  // The stream takes its nominal share of --seconds; queries the rest.
  const double stream_s =
      static_cast<double>(h->sizes.stream_rows) / h->sizes.stream_rate;
  QueryPhase phase(
      target,
      MakePools(data, h->sizes,
                h->Rounds(std::max(0.0, h->config.seconds - stream_s)),
                h->config.seed),
      h->sizes, &h->env, &h->tracer, &h->current_query, &h->checks);
  // Background compaction during the stream leaves a timing-dependent
  // file layout, so readahead bytes stay out of this workload's digest.
  phase.DigestAlso(/*readahead=*/false, /*topk_dp_runs=*/false);
  phase.Run(h->config.trace);

  ReportLayers(phase, true, {}, 0, layers);
  h->Finish(phase, data);
  dep.store.reset();
  CheckReopen(options, {dep.path}, preload + stream.acked, &h->checks);
  return true;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "tdrive_store_read", "lorry_coord_socket", "tdrive_ingest_filter"};
  return names;
}

bool RunWorkload(const Config& config, Outcome* outcome) {
  Harness h(config, outcome);
  h.env.RemoveDirRecursively(config.work_dir);
  if (!h.env.CreateDir(config.work_dir).ok()) {
    std::fprintf(stderr, "cannot create %s\n", config.work_dir.c_str());
    return false;
  }
  bool ok = false;
  if (config.workload == "tdrive_store_read") {
    ok = RunStoreRead(&h);
  } else if (config.workload == "lorry_coord_socket") {
    ok = RunCoordSocket(&h);
  } else if (config.workload == "tdrive_ingest_filter") {
    ok = RunIngestFilter(&h);
  }
  if (ok && config.trace) {
    const std::string path = config.work_dir + ".trace.jsonl";
    if (h.tracer.Write(path)) {
      std::printf("trace: %zu spans written to %s\n", h.tracer.size(),
                  path.c_str());
    } else {
      h.checks.Fail("cannot write " + path);
    }
  }
  h.env.RemoveDirRecursively(config.work_dir);
  outcome->attempted = h.attempted;
  outcome->correct = ok && h.checks.ok();
  return ok;
}

}  // namespace perfbench
