#include "counting_env.h"

#include <chrono>
#include <thread>

namespace perfbench {

using trass::Slice;
using trass::Status;

namespace {

enum class Kind { kWal, kTable, kOther };

bool EndsWith(const std::string& s, const char* suffix) {
  const std::string t(suffix);
  return s.size() >= t.size() && s.compare(s.size() - t.size(), t.size(), t) == 0;
}

Kind KindOf(const std::string& fname) {
  if (EndsWith(fname, ".log")) return Kind::kWal;
  if (EndsWith(fname, ".sst")) return Kind::kTable;
  return Kind::kOther;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class CountingWritableFile : public trass::kv::WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<trass::kv::WritableFile> base,
                       CountingEnv* env, Kind kind)
      : base_(std::move(base)), env_(env), kind_(kind) {
    if (kind_ == Kind::kTable) {
      env_->open_table_writers.fetch_add(1);
      env_->NoteTableEvent();
    }
  }
  ~CountingWritableFile() override { Release(); }

  Status Append(const Slice& data) override {
    if (kind_ == Kind::kWal) {
      env_->wal_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    } else if (kind_ == Kind::kTable) {
      env_->table_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    }
    return base_->Append(data);
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    env_->syncs.fetch_add(1, std::memory_order_relaxed);
    return base_->Sync();
  }
  Status Close() override {
    Status s = base_->Close();
    Release();
    return s;
  }

 private:
  void Release() {
    if (kind_ == Kind::kTable && !released_) {
      released_ = true;
      env_->open_table_writers.fetch_sub(1);
      env_->NoteTableEvent();
    }
  }

  std::unique_ptr<trass::kv::WritableFile> base_;
  CountingEnv* env_;
  Kind kind_;
  bool released_ = false;
};

class CountingRandomAccessFile : public trass::kv::RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<trass::kv::RandomAccessFile> base,
                           const CountingEnv* env)
      : base_(std::move(base)), env_(env) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = base_->Read(offset, n, result, scratch);
    env_->read_calls.fetch_add(1, std::memory_order_relaxed);
    env_->read_bytes.fetch_add(result->size(), std::memory_order_relaxed);
    return s;
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<trass::kv::RandomAccessFile> base_;
  const CountingEnv* env_;
};

class CountingSequentialFile : public trass::kv::SequentialFile {
 public:
  CountingSequentialFile(std::unique_ptr<trass::kv::SequentialFile> base,
                         const CountingEnv* env)
      : base_(std::move(base)), env_(env) {}
  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = base_->Read(n, result, scratch);
    env_->read_calls.fetch_add(1, std::memory_order_relaxed);
    env_->read_bytes.fetch_add(result->size(), std::memory_order_relaxed);
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<trass::kv::SequentialFile> base_;
  const CountingEnv* env_;
};

}  // namespace

IoCounts IoCounts::Minus(const IoCounts& b) const {
  return IoCounts{read_calls - b.read_calls,   read_bytes - b.read_bytes,
                  wal_bytes - b.wal_bytes,     table_bytes - b.table_bytes,
                  syncs - b.syncs,             tables_created - b.tables_created,
                  tables_deleted - b.tables_deleted};
}

IoCounts CountingEnv::Read() const {
  return IoCounts{read_calls.load(),     read_bytes.load(),
                  wal_bytes.load(),      table_bytes.load(),
                  syncs.load(),          tables_created.load(),
                  tables_deleted.load()};
}

void CountingEnv::NoteTableEvent() { last_table_event_ns.store(NowNs()); }

bool CountingEnv::Settle(double quiet_ms, double timeout_s) const {
  const int64_t start = NowNs();
  const int64_t quiet_ns = static_cast<int64_t>(quiet_ms * 1e6);
  while (true) {
    const int64_t now = NowNs();
    if (open_table_writers.load() == 0 &&
        now - last_table_event_ns.load() >= quiet_ns) {
      return true;
    }
    if (static_cast<double>(now - start) > timeout_s * 1e9) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

Status CountingEnv::NewWritableFile(
    const std::string& fname,
    std::unique_ptr<trass::kv::WritableFile>* result) {
  std::unique_ptr<trass::kv::WritableFile> base;
  Status s = base_->NewWritableFile(fname, &base);
  if (!s.ok()) return s;
  const Kind kind = KindOf(fname);
  if (kind == Kind::kTable) tables_created.fetch_add(1);
  *result = std::make_unique<CountingWritableFile>(std::move(base), this, kind);
  return s;
}

Status CountingEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<trass::kv::RandomAccessFile>* result) {
  std::unique_ptr<trass::kv::RandomAccessFile> base;
  Status s = base_->NewRandomAccessFile(fname, &base);
  if (!s.ok()) return s;
  *result = std::make_unique<CountingRandomAccessFile>(std::move(base), this);
  return s;
}

Status CountingEnv::NewSequentialFile(
    const std::string& fname,
    std::unique_ptr<trass::kv::SequentialFile>* result) {
  std::unique_ptr<trass::kv::SequentialFile> base;
  Status s = base_->NewSequentialFile(fname, &base);
  if (!s.ok()) return s;
  *result = std::make_unique<CountingSequentialFile>(std::move(base), this);
  return s;
}

Status CountingEnv::RemoveFile(const std::string& fname) {
  Status s = base_->RemoveFile(fname);
  if (s.ok() && KindOf(fname) == Kind::kTable) {
    tables_deleted.fetch_add(1);
    NoteTableEvent();
  }
  return s;
}

Status CountingEnv::WriteStringToFile(const Slice& data,
                                      const std::string& fname, bool sync) {
  if (sync) syncs.fetch_add(1, std::memory_order_relaxed);
  return base_->WriteStringToFile(data, fname, sync);
}

}  // namespace perfbench
