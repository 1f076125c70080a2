// RegionStore: the HBase-cluster analog. Row keys carry a 1-byte shard
// prefix (the paper's `shards` component); each shard maps to a region,
// each region is backed by `replication_factor` independent LSM
// databases (replicas), and scans fan out across regions on a thread
// pool with the filter pushed down (coprocessor style). I/O counters
// aggregate across regions/replicas for the evaluation.
//
// Replication & failover: ingest writes synchronously to every replica
// of the key's region; scans read from a preferred replica and, on a
// fault, fail over to the next healthy replica of the same region
// *before* consuming the region retry budget. A region is only retried
// (with bounded exponential backoff) or degraded-skipped once a full
// pass over all of its replicas has faulted — single-replica faults are
// invisible to callers except through the failover counters.
//
// Replica health: consecutive failures past `replica_demote_threshold`
// demote a replica; demoted replicas drop to the back of the scan order
// (still tried as a last resort, so demotion never reduces
// availability). Every `replica_probe_interval`-th scan of a region
// piggybacks a probe: demoted replicas are tried first, and a success
// reinstates them as preferred. The anti-entropy scrub
// (ScrubReplicas) range-checksums replicas of the same shard against
// each other, verifies table integrity, and rebuilds a corrupt or
// divergent replica by streaming rows from the healthiest peer.
//
// Availability (unchanged from the single-replica model once every
// replica of a region is down): failures are tracked per region; in
// opt-in degraded mode a region that still fails after retries is
// skipped — the scan returns rows from the healthy regions plus a
// ScanReport naming the skipped shards — instead of failing the query.
// Without degraded mode the error is returned, attributed to its region.
//
// Cooperative cancellation: scans accept an optional QueryContext whose
// deadline/cancel/budget is polled inside the worker tasks every
// kControlCheckInterval rows, around every retry sleep, and before every
// replica failover. A query stop is caller-attributed, never a region
// fault: it is not retried, not counted against region or replica
// health, and degraded mode does not "skip" the region over it. A stop
// that fires *mid-pass* before any full pass over the replicas has
// faulted fails the scan with the stop status — the region was never
// proven down, so it must not be degraded-skipped. A stop that fires
// after a full replica pass faulted (between retries, or while failing
// over during a retry pass) stops the retrying, but the fault outcome
// stands, so degraded mode can still skip that region.
//
// Thread-safety contract:
//  * Scan / ScanWithLimit / Get are safe to call concurrently with each
//    other, with ScrubReplicas, and with writes (Put / Delete /
//    ApplyBatch) — the LSM substrate supports one writer with any number
//    of concurrent readers. Writes themselves are single-writer: the
//    caller must serialize Put / Delete / ApplyBatch against each other
//    and against ScrubReplicas (a rebuild would miss concurrent writes;
//    TrassStore serializes both under its ingest mutex). A write against
//    a replica that is mid-rebuild fails with IoError for that replica.
//  * All health counters are guarded by one internal mutex.
//    Health()/HealthSnapshot() return a copy taken under a single lock
//    hold, so every field of the returned value is mutually consistent;
//    the live structures are never exposed. Do not cache the copy
//    across scans — it is a snapshot, not a view.
//  * Replica databases are handed to workers as shared_ptr snapshots;
//    the scrub may swap a rebuilt replica in concurrently, and in-flight
//    scans finish safely against the database they started on.

#ifndef TRASS_KV_REGION_STORE_H_
#define TRASS_KV_REGION_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kv/db.h"
#include "kv/scan.h"
#include "util/query_context.h"
#include "util/retry_policy.h"
#include "util/thread_pool.h"

namespace trass {
namespace kv {

/// One region a degraded scan skipped after exhausting retries.
struct SkippedRegion {
  int shard = 0;
  std::string error;  // final attempt's status, region-attributed
};

/// Outcome of one fan-out scan. `skipped` is empty for a complete
/// result; callers surfacing partial results must propagate it.
struct ScanReport {
  /// Per-region outcome: which replica served the rows and how many
  /// replica failovers it took to get there.
  struct RegionScan {
    int served_replica = -1;  // -1: no replica served (skipped/failed)
    uint32_t failovers = 0;   // replica switches within this region
  };

  std::vector<SkippedRegion> skipped;
  uint64_t retries = 0;    // scan attempts beyond the first, all regions
  uint64_t failovers = 0;  // replica failovers across all regions
  std::vector<RegionScan> regions;  // indexed by shard

  /// I/O this scan caused, measured as before/after deltas of each
  /// scanned replica's IoStats and summed over regions (failed attempts
  /// included — their I/O was real). Approximate when compactions or
  /// other queries touch the same replica concurrently; exact on an
  /// otherwise idle store.
  IoStats::Snapshot io;

  bool complete() const { return skipped.empty(); }
};

/// Availability counters for one replica of a region.
struct ReplicaHealth {
  uint64_t failed_attempts = 0;       // replica scan attempts that errored
  uint64_t consecutive_failures = 0;  // cleared by a successful scan
  bool demoted = false;   // deprioritized until a probe succeeds
  bool offline = false;   // detached while the scrub rebuilds it
  uint64_t rebuilds = 0;  // anti-entropy rebuilds of this replica
  std::string last_error;
  /// Live (not counter) state, read off the replica database at snapshot
  /// time: a read-only replica is wedged by a sticky background error
  /// (disk full, write fault). It rejects writes — so it demotes like any
  /// failing writer and drags ApplyBatch into degraded acks — but it
  /// still serves Get/scan failover; Resume() un-wedges it.
  bool read_only = false;
  std::string background_error;  // empty when healthy
};

/// Cumulative availability counters for one region. Returned only by
/// value from Health()/HealthSnapshot(), copied under a single lock
/// hold (see the thread-safety contract above).
struct RegionHealth {
  uint64_t failed_attempts = 0;       // attempts where *every* replica failed
  uint64_t consecutive_failures = 0;  // cleared by a successful scan
  uint64_t skipped_scans = 0;         // degraded-mode skips
  uint64_t failovers = 0;             // replica failovers on this region
  std::string last_error;
  std::vector<ReplicaHealth> replicas;
};

/// Outcome of one anti-entropy pass (see ScrubReplicas).
struct ScrubReport {
  uint64_t regions_checked = 0;
  uint64_t corrupt_replicas = 0;    // failed the checksum walk
  uint64_t divergent_replicas = 0;  // readable but content-mismatched
  uint64_t replicas_rebuilt = 0;
  uint64_t rows_copied = 0;  // rows streamed into rebuilt replicas
};

class RegionStore {
 public:
  struct RegionOptions {
    Options db_options;
    /// Number of regions == number of shard values callers may use.
    int num_regions = 8;
    /// Independent copies of each region, in [1, 8]. Writes go to all
    /// replicas synchronously; reads fail over between them. Raising the
    /// factor on an existing store opens empty new replicas — run
    /// ScrubReplicas to populate them before relying on failover.
    int replication_factor = 1;
    /// Worker threads for parallel region scans.
    size_t scan_threads = 4;
    /// Retries per region scan after a failure (0 disables). Each retry
    /// rebuilds the region iterator, so transient faults heal. With
    /// replication, one "attempt" is a full pass over all replicas.
    int max_scan_retries = 2;
    /// Backoff before the first retry; doubles per retry up to the cap.
    /// These three knobs configure the store's shared RetryPolicy, which
    /// also paces Resume() probing.
    uint64_t retry_backoff_ms = 2;
    uint64_t max_retry_backoff_ms = 100;
    /// Consecutive replica failures that demote the replica to the back
    /// of the scan order (it is still tried as a last resort).
    int replica_demote_threshold = 2;
    /// Every Nth scan of a region probes demoted replicas first so a
    /// healed replica is reinstated (0 disables probing; demoted
    /// replicas then only recover by serving as a last resort).
    uint64_t replica_probe_interval = 8;
    /// Opt-in degraded mode: skip regions that fail after retries and
    /// report them instead of failing the scan. Callers must check the
    /// ScanReport (or query metrics) to learn the result is partial.
    bool degraded_scans = false;
  };

  /// Opens `num_regions * replication_factor` databases under directory
  /// `path`. Replica 0 of region i lives at `region-<i>` (compatible
  /// with single-replica stores); replica r>0 at
  /// `region-<i>-replica-<r>`.
  static Status Open(const RegionOptions& options, const std::string& path,
                     std::unique_ptr<RegionStore>* store);

  int num_regions() const { return static_cast<int>(replicas_.size()); }
  int replication_factor() const { return options_.replication_factor; }

  /// Routes by the first key byte (the shard). Keys must be non-empty and
  /// their first byte must be < num_regions. Writes go to every replica
  /// of the shard; the first failing replica fails the write (replicas
  /// may then diverge until the next scrub). Read paths verify block
  /// checksums regardless of the passed options (torn-page detection is
  /// part of the store's contract). Get fails over between replicas on a
  /// fault; NotFound is authoritative (replicas are write-synchronous).
  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value);
  Status Delete(const WriteOptions& options, const Slice& key);

  /// Applies one group-commit batch to region `shard`. Every key in the
  /// batch must carry that shard byte (the caller groups rows by shard).
  /// The batch is written to each replica as a single WAL record (one
  /// fsync per replica when syncing), which is where group commit beats
  /// per-row Put. `min_acks` replicas must accept the write for success:
  /// 0 (the default) means all replicas, i.e. the strict Put semantics;
  /// 1..factor tolerates that many failures — failed replicas are
  /// recorded against replica health (feeding demotion) and the batch is
  /// counted as a degraded write, to be healed by the next
  /// ScrubReplicas. Single-writer like Put (see the contract above).
  Status ApplyBatch(const WriteOptions& options, int shard, WriteBatch* batch,
                    int min_acks = 0);
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value);

  /// Scans every range in every region, applying `filter` server-side
  /// (null keeps all rows). Appends kept rows to *out (unordered across
  /// regions). Ranges must NOT include the shard byte: the store prepends
  /// each shard to each range, mirroring how TraSS replicates a scan
  /// across salted key spaces. When `report` is non-null it receives the
  /// scan outcome (retries, failovers, which replica served each shard,
  /// skipped shards in degraded mode). `control`, when non-null, is
  /// polled cooperatively inside the workers; an expired/cancelled query
  /// returns the stop status (rows gathered so far are discarded) and
  /// charges kept rows against its budget.
  Status Scan(const std::vector<ScanRange>& ranges, const ScanFilter* filter,
              std::vector<Row>* out, ScanReport* report = nullptr,
              const QueryContext* control = nullptr);

  /// Like Scan but stops globally after `limit` kept rows (approximate:
  /// each region stops at `limit`, the caller trims).
  Status ScanWithLimit(const std::vector<ScanRange>& ranges,
                       const ScanFilter* filter, size_t limit,
                       std::vector<Row>* out, ScanReport* report = nullptr,
                       const QueryContext* control = nullptr);

  /// Rows a scan worker processes between QueryContext polls.
  static constexpr size_t kControlCheckInterval = 128;

  /// Snapshot of one region's availability counters (including its
  /// replicas), copied under a single lock hold.
  RegionHealth Health(int region) const;

  /// Snapshot of every region's counters under one lock hold, so the
  /// regions are mutually consistent too.
  std::vector<RegionHealth> HealthSnapshot() const;

  /// Flushes all replicas of all regions (memtables -> SSTs).
  Status Flush();

  /// Checksum-scrubs every replica of every region (see
  /// DB::VerifyIntegrity); failures are attributed to region + replica.
  Status VerifyIntegrity();

  /// Anti-entropy pass: for each region, range-checksums every replica
  /// (a full ordered walk of keys and values with block checksums
  /// verified, plus a DB::VerifyIntegrity table walk), picks the
  /// healthiest replica as the source of truth (most rows among the
  /// clean ones), and rebuilds every corrupt or divergent replica by
  /// streaming the source's rows into a fresh database (the old replica
  /// directory is quarantined as `<dir>.bad`). Rebuilt replicas are
  /// reinstated into the scan order. Safe to run concurrently with
  /// scans; must not run concurrently with ingest. Returns the first
  /// unrecoverable error (every replica of some region corrupt), after
  /// still scrubbing the remaining regions.
  Status ScrubReplicas(ScrubReport* report = nullptr);

  /// Attempts DB::Resume on every replica wedged read-only by a
  /// background error, each under the shared retry policy. A resumed
  /// replica has its write-failure demotion cleared so it returns to the
  /// preferred scan order. Returns the first replica that stayed wedged
  /// (with region/replica context), OK when none were wedged or all
  /// resumed. Resume restores *writability* only — rows the replica
  /// missed while read-only are healed by the next ScrubReplicas.
  /// Single-writer like Put (see the thread-safety contract).
  Status Resume();

  /// True when some region has fewer writable (non-read-only,
  /// non-offline) replicas than `min_acks` requires (<= 0 means all
  /// replicas, mirroring ApplyBatch). This is the backpressure signal
  /// ingest uses to shed new work instead of queueing doomed writes.
  bool WritesDegraded(int min_acks = 0) const;

  /// Replicas currently wedged read-only (live gauge).
  uint64_t ReadOnlyReplicas() const;

  /// First replica's sticky background error (with region/replica
  /// context); OK when every replica is writable.
  Status FirstBackgroundError() const;

  /// Sums I/O counters across all replicas of all regions, plus the
  /// store-level failover/scrub/rebuild counters. The
  /// `read_only_replicas` field is filled live (it is a gauge).
  IoStats::Snapshot TotalIoStats() const;
  void ResetIoStats();

  uint64_t TotalTableBytes() const;

 private:
  RegionStore(const RegionOptions& options, std::string path);

  std::string ReplicaPath(size_t region, int replica) const;

  /// Fills the live read_only/background_error fields of a health copy
  /// taken under health_mu_ (called with no locks held — the replica
  /// databases are queried one at a time via Replica()).
  void FillLiveReplicaState(size_t region, RegionHealth* health) const;

  /// Snapshot of one replica's database (null while it is offline for a
  /// rebuild). Workers keep the shared_ptr for the duration of their
  /// scan so a concurrent swap cannot destroy the database under them.
  std::shared_ptr<DB> Replica(size_t region, int replica) const;

  /// Health-aware replica order for the next scan of `region`: healthy
  /// replicas (lowest index first) before demoted ones, except on every
  /// `replica_probe_interval`-th scan, when demoted replicas are probed
  /// first. Offline replicas are excluded. Also bumps the region's scan
  /// counter that drives the probe cadence.
  std::vector<int> ReplicaScanOrder(size_t region);

  Status ScanInternal(const std::vector<ScanRange>& ranges,
                      const ScanFilter* filter, size_t limit,
                      std::vector<Row>* out, ScanReport* report,
                      const QueryContext* control);

  /// One scan attempt over one replica; *rows is only filled on success.
  Status ScanReplicaOnce(DB* db, size_t region,
                         const std::vector<ScanRange>& ranges,
                         const ScanFilter* filter, size_t limit,
                         const QueryContext* control, std::vector<Row>* rows);

  /// Ordered walk of every row in `db` with checksums verified,
  /// producing a content fingerprint replicas can be compared by.
  struct Fingerprint {
    uint64_t rows = 0;
    uint32_t crc = 0;
    bool operator==(const Fingerprint& other) const {
      return rows == other.rows && crc == other.crc;
    }
  };
  static Status FingerprintReplica(DB* db, Fingerprint* fp);

  /// Streams `source`'s rows into a fresh database at the replica's
  /// path, quarantining the old directory, and swaps the rebuilt
  /// database into the replica table.
  Status RebuildReplica(size_t region, int replica,
                        const std::shared_ptr<DB>& source,
                        ScrubReport* report);

  void RecordFailure(size_t region, const Status& s);
  void RecordSuccess(size_t region, int replica);
  void RecordSkip(size_t region);
  void RecordReplicaFailure(size_t region, int replica, const Status& s);
  void RecordFailovers(size_t region, uint64_t n);
  void SetReplicaOffline(size_t region, int replica, bool offline);

  RegionOptions options_;
  std::string path_;
  Env* env_ = nullptr;

  // Guards the replica table (pointer swaps only; the databases
  // themselves are internally synchronized).
  mutable std::mutex replicas_mu_;
  std::vector<std::vector<std::shared_ptr<DB>>> replicas_;  // [region][r]

  std::unique_ptr<ThreadPool> pool_;

  // Shared backoff schedule for scan retries and Resume probing.
  RetryPolicy retry_policy_;

  // Guards health_ and scans_started_ (see thread-safety contract).
  mutable std::mutex health_mu_;
  std::vector<RegionHealth> health_;
  std::vector<uint64_t> scans_started_;  // per region, for probe cadence

  IoStats store_stats_;  // failover/scrub/rebuild counters
};

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_REGION_STORE_H_
