// Per-query metrics matching what the paper's evaluation reports:
// pruning/filtering times, trajectories retrieved from the store (global
// pruning quality), candidates surviving local filtering, and precision.

#ifndef TRASS_CORE_METRICS_H_
#define TRASS_CORE_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>

namespace trass {
namespace core {

/// How a metric combines when one query folds another part's metrics
/// into its own (shard answers into a coordinator rollup, join probes
/// into the join, top-k rounds into the top-k).
enum class MetricFold {
  kSum,    // counters and ms fields
  kMax,    // per-query levels: refine parallelism, ingest watermark
  kOr,     // degradation flags: one partial part makes the whole partial
  kGauge,  // point-in-time level; see QueryMetrics::Gauges
};

// The QueryMetrics field list, X(type, name, fold) once per field in
// declaration (and wire) order. The members, QueryMetrics::Merge and the
// shard wire codec (serve/wire.cc) are all generated from it, so a field
// is added here and nowhere else.
//
// Timings are ms. The refine_*_ms breakdown is CPU time summed across
// refine workers (with refine_threads > 1 it can exceed the wall-clock
// refine_ms).
//
// `index_values` counts the index values the query submitted to store
// scans. For threshold/range/join these are the *present* values (ones
// the value directory holds) inside the final scanned ranges, after
// directory intersection and the filter tier; for top-k it counts
// drained index spaces handed to a store round-trip, less those the
// filter tier pruned at drain time. Either way an index value counts iff
// the store was asked to read it.
//
// `refined` counts candidates the refinement engine (core/refiner.h)
// decoded; of those, `lb_rejected` were disposed of by the lower-bound
// cascade and `refine_dp_runs` ran the exact O(n*m) DP.
//
// Degraded mode (RegionStore::RegionOptions): `partial` means one or
// more store regions (or coordinator shards) were skipped and the answer
// may miss their rows. `replica_failovers` are reads that moved to
// another replica after a fault; a query can fail over and still be
// complete. The stop flags record why an allow_partial query stopped
// (QueryOptions); without allow_partial the reason is the returned
// Status instead.
//
// The shard/hedge/breaker fields describe the scatter-gather tier
// (serve/coordinator.h) and are zero on single-store queries.
// `shards_skipped` counts shards missing from the merge (non-zero only
// with allow_partial, and always with `partial` set); `shard_failovers`
// counts missing shards whose key space replica shards fully covered, so
// the answer stays complete.
//
// The filter fields are zero with the filter tier (src/filter/) off.
// The block-cache and readahead fields are the store scans' IoStats
// deltas (see kv::ScanReport; approximate under concurrent compactions
// or queries on the same replica).
//
// `ingest_watermark`: every trajectory with ticket <= this value was
// fully visible to the query (see TrassStore::SubmitAsync).
// `read_only_replicas` counts replicas wedged read-only by a background
// error when the query started; reads still succeed, but the answer may
// predate unresumed ingest.
#define TRASS_QUERY_METRICS(X)                                            \
  X(double, pruning_ms, kSum)     /* global pruning (range generation) */ \
  X(double, scan_ms, kSum)        /* store scan incl. pushdown filter */  \
  X(double, refine_ms, kSum)      /* exact similarity computations */     \
  X(double, total_ms, kSum)                                               \
  X(uint64_t, scan_ranges, kSum)  /* key ranges issued to the store */    \
  X(uint64_t, index_values, kSum)                                         \
  X(uint64_t, retrieved, kSum)    /* rows scanned in the store (I/O) */   \
  X(uint64_t, candidates, kSum)   /* rows surviving local filtering */    \
  X(uint64_t, refined, kSum)      /* candidates entering refinement */    \
  X(uint64_t, results, kSum)      /* final answers */                     \
  X(uint64_t, lb_rejected, kSum)  /* cascade proved dist > bound */       \
  X(uint64_t, refine_dp_runs, kSum)                                       \
  X(uint64_t, refine_threads, kMax)                                       \
  X(double, refine_decode_ms, kSum) /* row decode + SoA flatten */        \
  X(double, refine_lb_ms, kSum)     /* lower-bound cascade */             \
  X(double, refine_dp_ms, kSum)     /* exact DP kernels */                \
  X(bool, partial, kOr)                                                   \
  X(uint64_t, skipped_regions, kSum) /* region-skip events */             \
  X(uint64_t, scan_retries, kSum)    /* scan attempts beyond the first */ \
  X(uint64_t, replica_failovers, kSum)                                    \
  X(bool, deadline_expired, kOr)   /* stopped at the deadline */          \
  X(bool, cancelled, kOr)          /* stopped via QueryOptions::cancel */ \
  X(bool, budget_exhausted, kOr)   /* stopped at max_candidates */        \
  X(double, admission_wait_ms, kSum) /* queued in admission control */    \
  X(uint64_t, shards_contacted, kSum)                                     \
  X(uint64_t, shards_skipped, kSum)                                       \
  X(uint64_t, hedges_sent, kSum)                                          \
  X(uint64_t, hedge_wins, kSum)    /* hedges that beat their primary */   \
  X(uint64_t, breaker_open, kSum)  /* fan-outs an open breaker refused */ \
  X(uint64_t, shard_failovers, kSum)                                      \
  X(uint64_t, filter_elements_pruned, kSum) /* values proved empty */     \
  X(uint64_t, filter_mbr_pruned, kSum)      /* killed by the MBR bound */ \
  X(uint64_t, fingerprint_skips, kSum)      /* rows skipped unread */     \
  X(uint64_t, filter_memory_bytes, kGauge)  /* filter snapshot RAM */     \
  X(uint64_t, block_cache_hits, kSum)                                     \
  X(uint64_t, block_cache_misses, kSum)                                   \
  X(uint64_t, block_cache_fills, kSum)                                    \
  X(uint64_t, readahead_reads, kSum)                                      \
  X(uint64_t, readahead_bytes_read, kSum)                                 \
  X(uint64_t, ingest_watermark, kMax)                                     \
  X(uint64_t, read_only_replicas, kGauge)

struct QueryMetrics {
#define TRASS_DECLARE_METRIC(type, name, fold) type name{};
  TRASS_QUERY_METRICS(TRASS_DECLARE_METRIC)
#undef TRASS_DECLARE_METRIC

  /// How Merge folds the kGauge fields. The shards of one fan-out each
  /// hold their own share of the fleet, so their gauges sum. A query
  /// that fans out or probes several times re-reads the same fleet, so
  /// it keeps the value of its first fan-out that reported the gauge
  /// (zero counts as not reported).
  enum class Gauges { kSumShards, kKeepFirst };

  /// Folds `from` into this query's metrics, field by field per its
  /// MetricFold.
  void Merge(const QueryMetrics& from, Gauges gauges) {
#define TRASS_MERGE_METRIC(type, name, fold) \
  name = FoldMetric<MetricFold::fold>(name, from.name, gauges);
    TRASS_QUERY_METRICS(TRASS_MERGE_METRIC)
#undef TRASS_MERGE_METRIC
  }

  double precision() const {
    return candidates == 0
               ? 1.0
               : static_cast<double>(results) / static_cast<double>(candidates);
  }

 private:
  template <MetricFold kFold, typename T>
  static T FoldMetric(T to, T from, Gauges gauges) {
    static_assert((kFold == MetricFold::kOr) == std::is_same_v<T, bool>,
                  "flags fold by OR, and only flags do");
    if constexpr (kFold == MetricFold::kOr) {
      return to || from;
    } else if constexpr (kFold == MetricFold::kMax) {
      return std::max(to, from);
    } else if constexpr (kFold == MetricFold::kGauge) {
      return gauges == Gauges::kSumShards || to == T{} ? to + from : to;
    } else {
      return to + from;
    }
  }
};

}  // namespace core
}  // namespace trass

#endif  // TRASS_CORE_METRICS_H_
