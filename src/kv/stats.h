// I/O counters the evaluation harness reads: the paper's comparisons are
// largely about how many rows/bytes each index forces the store to touch.

#ifndef TRASS_KV_STATS_H_
#define TRASS_KV_STATS_H_

#include <atomic>
#include <cstdint>

namespace trass {
namespace kv {

// The IoStats counter list, X(name) once per counter. The atomics,
// Reset, Snapshot, Read and the Snapshot arithmetic are all generated
// from it, so a counter is added here and nowhere else.
#define TRASS_IO_STATS(X)                                               \
  X(blocks_read)            /* data blocks fetched from disk */         \
  X(block_bytes_read)       /* payload bytes of those blocks */         \
  X(cache_hits)             /* data blocks served from cache */         \
  X(cache_misses)           /* cache lookups that went to disk */       \
  X(cache_fills)            /* blocks inserted into the cache */        \
  X(readahead_reads)        /* readahead window preads issued */        \
  X(readahead_bytes_read)   /* bytes those preads fetched */            \
  X(rows_scanned)           /* entries yielded to scans */              \
  X(bloom_skips)            /* tables skipped by bloom */               \
  X(point_gets)                                                         \
  X(range_scans)                                                        \
  X(checksum_verifications) /* blocks CRC-checked */                    \
  X(corruptions_detected)   /* checksum mismatches */                   \
  X(replica_failovers)      /* reads moved to another replica */        \
  X(scrub_rounds)           /* anti-entropy passes started */           \
  X(replicas_rebuilt)       /* replicas restored from a peer */         \
  X(batch_commits)          /* group-commit batches applied */          \
  X(batch_rows)             /* rows inside those batches */             \
  X(degraded_writes)        /* batches acked by < all replicas */       \
  X(background_errors)      /* sticky write-path failures */            \
  X(write_stalls)           /* writes throttled or shed */              \
  X(stall_ms)               /* total time writes spent stalled */       \
  X(resume_attempts)        /* Resume() calls (incl. probes) */

struct IoStats {
#define TRASS_IO_ATOMIC(name) std::atomic<uint64_t> name{0};
  TRASS_IO_STATS(TRASS_IO_ATOMIC)
#undef TRASS_IO_ATOMIC

  void Reset() {
#define TRASS_IO_RESET(name) name.store(0);
    TRASS_IO_STATS(TRASS_IO_RESET)
#undef TRASS_IO_RESET
  }

  struct Snapshot {
#define TRASS_IO_FIELD(name) uint64_t name = 0;
    TRASS_IO_STATS(TRASS_IO_FIELD)
#undef TRASS_IO_FIELD
    // Gauge, not a counter: replicas currently wedged read-only. Always
    // 0 at the DB level; RegionStore::TotalIoStats fills it live. The
    // arithmetic below covers the counters only.
    uint64_t read_only_replicas = 0;

    Snapshot& operator+=(const Snapshot& other) {
#define TRASS_IO_ADD(name) name += other.name;
      TRASS_IO_STATS(TRASS_IO_ADD)
#undef TRASS_IO_ADD
      return *this;
    }
    Snapshot& operator-=(const Snapshot& other) {
#define TRASS_IO_SUB(name) name -= other.name;
      TRASS_IO_STATS(TRASS_IO_SUB)
#undef TRASS_IO_SUB
      return *this;
    }
    friend Snapshot operator-(Snapshot a, const Snapshot& b) { return a -= b; }
  };

  Snapshot Read() const {
    Snapshot s;
#define TRASS_IO_LOAD(name) s.name = name.load();
    TRASS_IO_STATS(TRASS_IO_LOAD)
#undef TRASS_IO_LOAD
    return s;
  }
};

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_STATS_H_
