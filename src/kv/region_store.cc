#include "kv/region_store.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "util/coding.h"
#include "util/crc32c.h"

namespace trass {
namespace kv {

RegionStore::RegionStore(const RegionOptions& options, std::string path)
    : options_(options),
      path_(std::move(path)),
      retry_policy_(RetryPolicy::Options{
          options.max_scan_retries, options.retry_backoff_ms,
          options.max_retry_backoff_ms, /*jitter=*/0.0}) {
  env_ = options_.db_options.env != nullptr ? options_.db_options.env
                                            : Env::Default();
}

std::string RegionStore::ReplicaPath(size_t region, int replica) const {
  std::string p = path_ + "/region-" + std::to_string(region);
  if (replica > 0) p += "-replica-" + std::to_string(replica);
  return p;
}

Status RegionStore::Open(const RegionOptions& options, const std::string& path,
                         std::unique_ptr<RegionStore>* store) {
  store->reset();
  if (options.num_regions < 1 || options.num_regions > 256) {
    return Status::InvalidArgument("num_regions must be in [1, 256]");
  }
  if (options.replication_factor < 1 || options.replication_factor > 8) {
    return Status::InvalidArgument("replication_factor must be in [1, 8]");
  }
  std::unique_ptr<RegionStore> impl(new RegionStore(options, path));
  Status s = impl->env_->CreateDir(path);
  if (!s.ok()) return s;
  impl->replicas_.resize(options.num_regions);
  impl->health_.resize(options.num_regions);
  impl->scans_started_.assign(options.num_regions, 0);
  for (int i = 0; i < options.num_regions; ++i) {
    impl->replicas_[i].resize(options.replication_factor);
    impl->health_[i].replicas.resize(options.replication_factor);
    for (int r = 0; r < options.replication_factor; ++r) {
      std::unique_ptr<DB> db;
      s = DB::Open(options.db_options, impl->ReplicaPath(i, r), &db);
      if (!s.ok()) {
        return s.WithContext("region " + std::to_string(i) + " replica " +
                             std::to_string(r));
      }
      impl->replicas_[i][r] = std::move(db);
    }
  }
  impl->pool_ = std::make_unique<ThreadPool>(options.scan_threads);
  *store = std::move(impl);
  return Status::OK();
}

namespace {

Status CheckKey(const Slice& key, int num_regions) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  const int shard = static_cast<unsigned char>(key[0]);
  if (shard >= num_regions) {
    return Status::InvalidArgument("shard byte out of range");
  }
  return Status::OK();
}

Status OfflineStatus() {
  return Status::IoError("replica offline (rebuilding)");
}

}  // namespace

std::shared_ptr<DB> RegionStore::Replica(size_t region, int replica) const {
  std::lock_guard<std::mutex> lock(replicas_mu_);
  return replicas_[region][replica];
}

Status RegionStore::Put(const WriteOptions& options, const Slice& key,
                        const Slice& value) {
  Status s = CheckKey(key, num_regions());
  if (!s.ok()) return s;
  const size_t shard = static_cast<unsigned char>(key[0]);
  for (int r = 0; r < options_.replication_factor; ++r) {
    std::shared_ptr<DB> db = Replica(shard, r);
    s = db != nullptr ? db->Put(options, key, value) : OfflineStatus();
    if (!s.ok()) {
      return s.WithContext("region " + std::to_string(shard) + " replica " +
                           std::to_string(r));
    }
  }
  return Status::OK();
}

Status RegionStore::ApplyBatch(const WriteOptions& options, int shard,
                               WriteBatch* batch, int min_acks) {
  if (shard < 0 || shard >= num_regions()) {
    return Status::InvalidArgument("shard out of range");
  }
  if (batch == nullptr || batch->Count() == 0) return Status::OK();
  const int factor = options_.replication_factor;
  const int required =
      min_acks <= 0 ? factor : std::min(min_acks, factor);
  int acks = 0;
  Status first_failure;
  for (int r = 0; r < factor; ++r) {
    std::shared_ptr<DB> db = Replica(shard, r);
    // DB::Write stamps the batch with that replica's own sequence
    // numbers, so reusing one batch across replicas is safe.
    Status s = db != nullptr ? db->Write(options, batch) : OfflineStatus();
    if (s.ok()) {
      ++acks;
      continue;
    }
    s = s.WithContext("region " + std::to_string(shard) + " replica " +
                      std::to_string(r));
    RecordReplicaFailure(shard, r, s);
    if (first_failure.ok()) first_failure = s;
  }
  if (acks < required) return first_failure;
  store_stats_.batch_commits.fetch_add(1, std::memory_order_relaxed);
  store_stats_.batch_rows.fetch_add(batch->Count(),
                                    std::memory_order_relaxed);
  if (acks < factor) {
    store_stats_.degraded_writes.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status RegionStore::Delete(const WriteOptions& options, const Slice& key) {
  Status s = CheckKey(key, num_regions());
  if (!s.ok()) return s;
  const size_t shard = static_cast<unsigned char>(key[0]);
  for (int r = 0; r < options_.replication_factor; ++r) {
    std::shared_ptr<DB> db = Replica(shard, r);
    s = db != nullptr ? db->Delete(options, key) : OfflineStatus();
    if (!s.ok()) {
      return s.WithContext("region " + std::to_string(shard) + " replica " +
                           std::to_string(r));
    }
  }
  return Status::OK();
}

Status RegionStore::Get(const ReadOptions& options, const Slice& key,
                        std::string* value) {
  Status s = CheckKey(key, num_regions());
  if (!s.ok()) return s;
  ReadOptions read_options = options;
  read_options.verify_checksums = true;
  const size_t shard = static_cast<unsigned char>(key[0]);
  Status last;
  for (int r = 0; r < options_.replication_factor; ++r) {
    if (r > 0) {
      store_stats_.replica_failovers.fetch_add(1, std::memory_order_relaxed);
      RecordFailovers(shard, 1);
    }
    std::shared_ptr<DB> db = Replica(shard, r);
    last = db != nullptr ? db->Get(read_options, key, value)
                         : OfflineStatus();
    // A hit is served; a miss is authoritative (writes are synchronous
    // to every replica) — only a *fault* fails over.
    if (last.ok() || last.IsNotFound()) {
      return last.WithContext("region " + std::to_string(shard));
    }
  }
  return last.WithContext("region " + std::to_string(shard));
}

Status RegionStore::Scan(const std::vector<ScanRange>& ranges,
                         const ScanFilter* filter, std::vector<Row>* out,
                         ScanReport* report, const QueryContext* control) {
  return ScanInternal(ranges, filter, /*limit=*/0, out, report, control);
}

Status RegionStore::ScanWithLimit(const std::vector<ScanRange>& ranges,
                                  const ScanFilter* filter, size_t limit,
                                  std::vector<Row>* out, ScanReport* report,
                                  const QueryContext* control) {
  return ScanInternal(ranges, filter, limit, out, report, control);
}

Status RegionStore::ScanReplicaOnce(DB* db, size_t region,
                                    const std::vector<ScanRange>& ranges,
                                    const ScanFilter* filter, size_t limit,
                                    const QueryContext* control,
                                    std::vector<Row>* rows) {
  ReadOptions read_options;
  read_options.verify_checksums = true;
  std::unique_ptr<Iterator> iter(db->NewIterator(read_options));
  const char shard = static_cast<char>(region);
  std::vector<Row> kept;
  size_t since_check = 0;
  for (const ScanRange& range : ranges) {
    std::string start(1, shard);
    start += range.start;
    std::string end;
    if (!range.end.empty()) {
      end.assign(1, shard);
      end += range.end;
    }
    for (iter->Seek(Slice(start)); iter->Valid(); iter->Next()) {
      const Slice key = iter->key();
      // An unbounded range needs no end check: a replica database holds
      // exactly one shard, so every key of this region matches.
      if (!end.empty() && key.compare(Slice(end)) >= 0) break;
      if (control != nullptr && ++since_check >= kControlCheckInterval) {
        since_check = 0;
        Status stop = control->Check();
        if (!stop.ok()) return stop;
      }
      if (filter == nullptr || filter->Keep(key, iter->value())) {
        if (control != nullptr && !control->ChargeCandidates(1)) {
          return control->Check();  // Busy: candidate budget exhausted
        }
        kept.push_back(Row{key.ToString(), iter->value().ToString()});
        if (limit != 0 && kept.size() >= limit) break;
      }
    }
    if (!iter->status().ok()) return iter->status();
    if (limit != 0 && kept.size() >= limit) break;
  }
  *rows = std::move(kept);
  return Status::OK();
}

std::vector<int> RegionStore::ReplicaScanOrder(size_t region) {
  std::lock_guard<std::mutex> lock(health_mu_);
  const uint64_t scan_number = ++scans_started_[region];
  std::vector<int> healthy;
  std::vector<int> demoted;
  for (int r = 0; r < options_.replication_factor; ++r) {
    const ReplicaHealth& rh = health_[region].replicas[r];
    if (rh.offline) continue;
    (rh.demoted ? demoted : healthy).push_back(r);
  }
  const bool probe_due = options_.replica_probe_interval > 0 &&
                         scan_number % options_.replica_probe_interval == 0;
  std::vector<int> order;
  if (probe_due) {
    // Piggybacked probe: try the demoted replicas first this scan; a
    // success reinstates them, a failure costs one extra failover.
    order = demoted;
    order.insert(order.end(), healthy.begin(), healthy.end());
  } else {
    order = healthy;
    order.insert(order.end(), demoted.begin(), demoted.end());
  }
  if (order.empty()) {
    // Everything offline (scrub rebuilding the last replica): fall
    // through to the replica table, which reports the offline fault.
    for (int r = 0; r < options_.replication_factor; ++r) order.push_back(r);
  }
  return order;
}

Status RegionStore::ScanInternal(const std::vector<ScanRange>& ranges,
                                 const ScanFilter* filter, size_t limit,
                                 std::vector<Row>* out, ScanReport* report,
                                 const QueryContext* control) {
  if (report != nullptr) *report = ScanReport{};
  if (ranges.empty()) return Status::OK();
  const size_t n = replicas_.size();
  std::vector<std::vector<Row>> per_region(n);
  std::vector<Status> statuses(n);
  std::vector<char> attempted(n, 0);
  std::vector<int> served(n, -1);
  std::vector<uint32_t> failovers(n, 0);
  // IoStats deltas per region (each region is scanned by one worker, so
  // plain slots suffice — same pattern as `failovers`).
  std::vector<IoStats::Snapshot> region_io(n);
  std::atomic<uint64_t> retries{0};

  const int attempts = 1 + std::max(0, options_.max_scan_retries);
  auto scan_region = [&](size_t region) {
    attempted[region] = 1;
    Status last;
    for (int attempt = 0; attempt < attempts; ++attempt) {
      if (attempt > 0) {
        // A query stop between attempts ends the retrying, but the
        // *fault* outcome stands — a full replica pass already failed —
        // so degraded mode may still skip this region; sleeping past
        // the deadline is pointless, so the backoff is clamped to it.
        if (control != nullptr && control->ShouldStop()) break;
        retries.fetch_add(1, std::memory_order_relaxed);
        retry_policy_.SleepBeforeRetry(
            attempt, control != nullptr
                         ? std::max(control->RemainingMillis(), 0.0)
                         : -1.0);
      }
      const std::vector<int> order = ReplicaScanOrder(region);
      bool pass_complete = true;
      for (size_t oi = 0; oi < order.size(); ++oi) {
        if (oi > 0) {
          // Failing over, not retrying: the switch is free of backoff
          // but still polled against the query stop.
          if (control != nullptr && control->ShouldStop()) {
            if (attempt == 0) {
              // Stop before any full pass could prove the region down
              // (replicas untried): the stop — not a fault — is the
              // region's outcome.
              statuses[region] = control->Check();
              RecordFailovers(region, failovers[region]);
              return;
            }
            // An earlier full pass already faulted on every replica;
            // the stop only ends the failing-over and the fault
            // outcome stands, so degraded mode may still skip the
            // region (PR-2 composition at any replication factor).
            pass_complete = false;
            break;
          }
          ++failovers[region];
        }
        const int replica = order[oi];
        std::shared_ptr<DB> db = Replica(region, replica);
        if (db != nullptr) {
          const IoStats::Snapshot before = db->io_stats().Read();
          last = ScanReplicaOnce(db.get(), region, ranges, filter, limit,
                                 control, &per_region[region]);
          region_io[region] += db->io_stats().Read() - before;
        } else {
          last = OfflineStatus();
        }
        if (last.ok()) {
          served[region] = replica;
          RecordSuccess(region, replica);
          RecordFailovers(region, failovers[region]);
          return;
        }
        if (last.IsQueryStop()) {
          // Caller-attributed stop, not a region fault: no retry, no
          // health bookkeeping, no region attribution.
          statuses[region] = last;
          RecordFailovers(region, failovers[region]);
          return;
        }
        RecordReplicaFailure(region, replica, last);
      }
      if (!pass_complete) break;  // interrupted pass: not a new attempt
      // Every replica of the region faulted: that is one failed
      // region-level attempt, eligible for retry with backoff.
      RecordFailure(region, last);
    }
    RecordFailovers(region, failovers[region]);
    // Attribute the failure to its region (shard == region index).
    statuses[region] =
        last.WithContext("region " + std::to_string(region));
  };
  if (control != nullptr) {
    // Early-exit fan-out: regions not yet started when the query stops
    // are never scanned (their statuses stay OK with no rows, and the
    // stop status below fails the whole scan anyway).
    pool_->ParallelFor(n, scan_region,
                       [control] { return control->ShouldStop(); });
  } else {
    pool_->ParallelFor(n, scan_region);
  }

  uint64_t total_failovers = 0;
  for (size_t region = 0; region < n; ++region) {
    total_failovers += failovers[region];
  }
  store_stats_.replica_failovers.fetch_add(total_failovers,
                                           std::memory_order_relaxed);

  Status failure;
  Status query_stop;
  for (size_t region = 0; region < n; ++region) {
    if (statuses[region].ok()) continue;
    if (statuses[region].IsQueryStop()) {
      // Never degraded-skipped: a timed-out/cancelled scan is not a
      // partial-but-complete-per-region answer, it is an aborted query.
      if (query_stop.ok()) query_stop = statuses[region];
      continue;
    }
    if (options_.degraded_scans) {
      RecordSkip(region);
      if (report != nullptr) {
        report->skipped.push_back(SkippedRegion{
            static_cast<int>(region), statuses[region].ToString()});
      }
    } else if (failure.ok()) {
      failure = statuses[region];
    }
  }
  if (report != nullptr) {
    report->retries = retries.load(std::memory_order_relaxed);
    report->failovers = total_failovers;
    report->regions.resize(n);
    for (size_t region = 0; region < n; ++region) {
      report->regions[region].served_replica = served[region];
      report->regions[region].failovers = failovers[region];
      report->io += region_io[region];
    }
  }
  if (!query_stop.ok()) return query_stop;
  if (!failure.ok()) return failure;
  // The fan-out may also have stopped before some regions even started
  // (skipped by the cancellation-aware ParallelFor, statuses left OK);
  // surface that as the stop status rather than a silently short result.
  // A scan whose every region completed stays OK even if the deadline
  // expired at the tail — partial-result policy belongs to the caller.
  for (size_t region = 0; region < n; ++region) {
    if (attempted[region]) continue;
    Status stop =
        control != nullptr ? control->Check() : Status::OK();
    return stop.ok()
               ? Status::Cancelled("scan aborted before reaching region " +
                                   std::to_string(region))
               : stop;
  }
  for (size_t region = 0; region < n; ++region) {
    if (!statuses[region].ok()) continue;  // degraded: skip failed region
    for (auto& row : per_region[region]) {
      out->push_back(std::move(row));
    }
  }
  return Status::OK();
}

void RegionStore::RecordFailure(size_t region, const Status& s) {
  std::lock_guard<std::mutex> lock(health_mu_);
  RegionHealth& health = health_[region];
  ++health.failed_attempts;
  ++health.consecutive_failures;
  health.last_error = s.ToString();
}

void RegionStore::RecordSuccess(size_t region, int replica) {
  std::lock_guard<std::mutex> lock(health_mu_);
  RegionHealth& health = health_[region];
  health.consecutive_failures = 0;
  ReplicaHealth& rh = health.replicas[replica];
  rh.consecutive_failures = 0;
  rh.demoted = false;  // a successful scan (or probe) reinstates
}

void RegionStore::RecordSkip(size_t region) {
  std::lock_guard<std::mutex> lock(health_mu_);
  ++health_[region].skipped_scans;
}

void RegionStore::RecordReplicaFailure(size_t region, int replica,
                                       const Status& s) {
  std::lock_guard<std::mutex> lock(health_mu_);
  ReplicaHealth& rh = health_[region].replicas[replica];
  ++rh.failed_attempts;
  ++rh.consecutive_failures;
  rh.last_error = s.ToString();
  if (options_.replica_demote_threshold > 0 &&
      rh.consecutive_failures >=
          static_cast<uint64_t>(options_.replica_demote_threshold)) {
    rh.demoted = true;
  }
}

void RegionStore::RecordFailovers(size_t region, uint64_t n) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(health_mu_);
  health_[region].failovers += n;
}

void RegionStore::SetReplicaOffline(size_t region, int replica,
                                    bool offline) {
  std::lock_guard<std::mutex> lock(health_mu_);
  ReplicaHealth& rh = health_[region].replicas[replica];
  rh.offline = offline;
  if (!offline) {
    rh.demoted = false;
    rh.consecutive_failures = 0;
    ++rh.rebuilds;
  }
}

void RegionStore::FillLiveReplicaState(size_t region,
                                       RegionHealth* health) const {
  for (int r = 0; r < options_.replication_factor &&
                  r < static_cast<int>(health->replicas.size());
       ++r) {
    std::shared_ptr<DB> db = Replica(region, r);
    if (db == nullptr) continue;  // offline: read-only state is moot
    ReplicaHealth& rh = health->replicas[r];
    rh.read_only = db->read_only();
    if (rh.read_only) rh.background_error = db->background_error().ToString();
  }
}

RegionHealth RegionStore::Health(int region) const {
  RegionHealth copy;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    copy = health_.at(region);
  }
  // Live replica state is read after the counter copy, one lock at a
  // time (health_mu_ and replicas_mu_ are never held together).
  FillLiveReplicaState(static_cast<size_t>(region), &copy);
  return copy;
}

std::vector<RegionHealth> RegionStore::HealthSnapshot() const {
  std::vector<RegionHealth> copy;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    copy = health_;
  }
  for (size_t region = 0; region < copy.size(); ++region) {
    FillLiveReplicaState(region, &copy[region]);
  }
  return copy;
}

Status RegionStore::Resume() {
  Status first_failure;
  for (size_t region = 0; region < replicas_.size(); ++region) {
    for (int r = 0; r < options_.replication_factor; ++r) {
      std::shared_ptr<DB> db = Replica(region, r);
      if (db == nullptr || !db->read_only()) continue;
      // Probe under the shared retry policy: a resume that fails because
      // the disk is *still* full is retryable, one that fails on a
      // structural error is not.
      Status s = retry_policy_.Run([&db] { return db->Resume(); });
      if (s.ok()) {
        // Writable again: clear the write-failure demotion so the
        // replica returns to the preferred scan order. Divergence
        // accumulated while read-only is ScrubReplicas' job.
        std::lock_guard<std::mutex> lock(health_mu_);
        ReplicaHealth& rh = health_[region].replicas[r];
        rh.demoted = false;
        rh.consecutive_failures = 0;
      } else if (first_failure.ok()) {
        first_failure =
            s.WithContext("region " + std::to_string(region) + " replica " +
                          std::to_string(r));
      }
    }
  }
  return first_failure;
}

bool RegionStore::WritesDegraded(int min_acks) const {
  const int factor = options_.replication_factor;
  const int required = min_acks <= 0 ? factor : std::min(min_acks, factor);
  for (size_t region = 0; region < replicas_.size(); ++region) {
    int writable = 0;
    for (int r = 0; r < factor; ++r) {
      std::shared_ptr<DB> db = Replica(region, r);
      if (db != nullptr && !db->read_only()) ++writable;
    }
    if (writable < required) return true;
  }
  return false;
}

uint64_t RegionStore::ReadOnlyReplicas() const {
  uint64_t wedged = 0;
  for (size_t region = 0; region < replicas_.size(); ++region) {
    for (int r = 0; r < options_.replication_factor; ++r) {
      std::shared_ptr<DB> db = Replica(region, r);
      if (db != nullptr && db->read_only()) ++wedged;
    }
  }
  return wedged;
}

Status RegionStore::FirstBackgroundError() const {
  for (size_t region = 0; region < replicas_.size(); ++region) {
    for (int r = 0; r < options_.replication_factor; ++r) {
      std::shared_ptr<DB> db = Replica(region, r);
      if (db == nullptr) continue;
      Status s = db->background_error();
      if (!s.ok()) {
        return s.WithContext("region " + std::to_string(region) +
                             " replica " + std::to_string(r));
      }
    }
  }
  return Status::OK();
}

Status RegionStore::Flush() {
  for (size_t i = 0; i < replicas_.size(); ++i) {
    for (int r = 0; r < options_.replication_factor; ++r) {
      std::shared_ptr<DB> db = Replica(i, r);
      if (db == nullptr) continue;  // offline for rebuild
      Status s = db->Flush();
      if (!s.ok()) {
        return s.WithContext("region " + std::to_string(i) + " replica " +
                             std::to_string(r));
      }
    }
  }
  return Status::OK();
}

Status RegionStore::VerifyIntegrity() {
  for (size_t i = 0; i < replicas_.size(); ++i) {
    for (int r = 0; r < options_.replication_factor; ++r) {
      std::shared_ptr<DB> db = Replica(i, r);
      if (db == nullptr) continue;  // offline for rebuild
      Status s = db->VerifyIntegrity();
      if (!s.ok()) {
        return s.WithContext("region " + std::to_string(i) + " replica " +
                             std::to_string(r));
      }
    }
  }
  return Status::OK();
}

Status RegionStore::FingerprintReplica(DB* db, Fingerprint* fp) {
  *fp = Fingerprint{};
  ReadOptions read_options;
  read_options.verify_checksums = true;
  read_options.fill_cache = false;  // a scrub must not evict hot blocks
  std::unique_ptr<Iterator> iter(db->NewIterator(read_options));
  uint32_t crc = 0;
  uint64_t rows = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    const Slice key = iter->key();
    const Slice value = iter->value();
    // Length-framed so (k="ab", v="c") never collides with (k="a",
    // v="bc"); iteration order is bytewise-sorted, hence deterministic
    // and comparable across replicas.
    std::string frame;
    PutFixed32(&frame, static_cast<uint32_t>(key.size()));
    PutFixed32(&frame, static_cast<uint32_t>(value.size()));
    crc = crc32c::Extend(crc, frame.data(), frame.size());
    crc = crc32c::Extend(crc, key.data(), key.size());
    crc = crc32c::Extend(crc, value.data(), value.size());
    ++rows;
  }
  if (!iter->status().ok()) return iter->status();
  fp->crc = crc;
  fp->rows = rows;
  return Status::OK();
}

Status RegionStore::RebuildReplica(size_t region, int replica,
                                   const std::shared_ptr<DB>& source,
                                   ScrubReport* report) {
  SetReplicaOffline(region, replica, true);
  std::shared_ptr<DB> old;
  {
    std::lock_guard<std::mutex> lock(replicas_mu_);
    old = std::move(replicas_[region][replica]);
    replicas_[region][replica] = nullptr;
  }
  // Wait for in-flight scans holding the old database to drain, then
  // destroy it *before* touching its directory (the destructor's
  // best-effort flush must land in the old tree, not the rebuilt one).
  // Once the table entry is null no new reference can appear, so a
  // use_count of 1 is stable.
  while (old.use_count() > 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  old.reset();

  // Quarantine the old tree (PR-1 `.bad` idiom) rather than deleting it:
  // a scrub bug should never be able to destroy the last copy of data.
  const std::string dir = ReplicaPath(region, replica);
  const std::string quarantine = dir + ".bad";
  if (env_->FileExists(dir)) {
    (void)env_->RemoveDirRecursively(quarantine);
    Status s = env_->RenameFile(dir, quarantine);
    if (!s.ok()) {
      return s.WithContext("quarantining region " + std::to_string(region) +
                           " replica " + std::to_string(replica));
    }
  }

  std::unique_ptr<DB> fresh;
  Status s = DB::Open(options_.db_options, dir, &fresh);
  if (s.ok()) {
    ReadOptions read_options;
    read_options.verify_checksums = true;
    read_options.fill_cache = false;
    std::unique_ptr<Iterator> iter(source->NewIterator(read_options));
    for (iter->SeekToFirst(); s.ok() && iter->Valid(); iter->Next()) {
      s = fresh->Put(WriteOptions(), iter->key(), iter->value());
      if (s.ok() && report != nullptr) ++report->rows_copied;
    }
    if (s.ok()) s = iter->status();
    if (s.ok()) s = fresh->Flush();
  }
  if (!s.ok()) {
    // The replica stays offline (scans keep failing over past it); the
    // next scrub pass will try again.
    return s.WithContext("rebuilding region " + std::to_string(region) +
                         " replica " + std::to_string(replica));
  }
  {
    std::lock_guard<std::mutex> lock(replicas_mu_);
    replicas_[region][replica] = std::move(fresh);
  }
  SetReplicaOffline(region, replica, false);  // reinstated
  store_stats_.replicas_rebuilt.fetch_add(1, std::memory_order_relaxed);
  if (report != nullptr) ++report->replicas_rebuilt;
  return Status::OK();
}

Status RegionStore::ScrubReplicas(ScrubReport* report) {
  if (report != nullptr) *report = ScrubReport{};
  store_stats_.scrub_rounds.fetch_add(1, std::memory_order_relaxed);
  Status first_error;
  for (size_t region = 0; region < replicas_.size(); ++region) {
    if (report != nullptr) ++report->regions_checked;
    const int factor = options_.replication_factor;
    std::vector<std::shared_ptr<DB>> dbs(factor);
    std::vector<Fingerprint> fps(factor);
    std::vector<bool> clean(factor, false);
    for (int r = 0; r < factor; ++r) {
      dbs[r] = Replica(region, r);
      if (dbs[r] == nullptr) continue;  // still offline from a prior pass
      Status s = FingerprintReplica(dbs[r].get(), &fps[r]);
      // The fingerprint walk only touches live rows; the integrity walk
      // additionally covers every referenced table file end to end.
      if (s.ok()) s = dbs[r]->VerifyIntegrity();
      if (s.ok()) {
        clean[r] = true;
      } else if (report != nullptr) {
        ++report->corrupt_replicas;
      }
    }
    // Source of truth: the clean replica with the most rows (divergence
    // here means lost or unflushed writes, so "more rows" is "more
    // complete"); ties break to the lowest index.
    int source = -1;
    for (int r = 0; r < factor; ++r) {
      if (!clean[r]) continue;
      if (source == -1 || fps[r].rows > fps[source].rows) source = r;
    }
    if (source == -1) {
      if (first_error.ok()) {
        first_error = Status::Corruption(
            "all replicas corrupt, nothing to rebuild from")
                          .WithContext("region " + std::to_string(region));
      }
      continue;
    }
    for (int r = 0; r < factor; ++r) {
      if (r == source) continue;
      const bool divergent = clean[r] && !(fps[r] == fps[source]);
      if (clean[r] && !divergent) continue;
      if (divergent && report != nullptr) ++report->divergent_replicas;
      // Release our own snapshot of the bad replica first: the rebuild
      // waits for every outstanding reference to drain before touching
      // the directory, and ours would deadlock it.
      dbs[r].reset();
      Status s = RebuildReplica(region, r, dbs[source], report);
      if (!s.ok() && first_error.ok()) first_error = s;
    }
  }
  return first_error;
}

IoStats::Snapshot RegionStore::TotalIoStats() const {
  IoStats::Snapshot total = store_stats_.Read();
  for (size_t i = 0; i < replicas_.size(); ++i) {
    for (int r = 0; r < options_.replication_factor; ++r) {
      std::shared_ptr<DB> db = Replica(i, r);
      if (db == nullptr) continue;
      total += db->io_stats().Read();
      if (db->read_only()) ++total.read_only_replicas;
    }
  }
  return total;
}

void RegionStore::ResetIoStats() {
  store_stats_.Reset();
  for (size_t i = 0; i < replicas_.size(); ++i) {
    for (int r = 0; r < options_.replication_factor; ++r) {
      std::shared_ptr<DB> db = Replica(i, r);
      if (db != nullptr) db->mutable_io_stats()->Reset();
    }
  }
}

uint64_t RegionStore::TotalTableBytes() const {
  uint64_t total = 0;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    for (int r = 0; r < options_.replication_factor; ++r) {
      std::shared_ptr<DB> db = Replica(i, r);
      if (db != nullptr) total += db->TotalTableBytes();
    }
  }
  return total;
}

}  // namespace kv
}  // namespace trass
