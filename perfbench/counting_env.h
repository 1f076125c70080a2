// CountingEnv: the benchmark's view of the kv::Env boundary. Wraps the
// default POSIX env, counts reads, WAL and table writes, syncs and table
// creations/deletions, and tracks open table writers so the benchmark
// can tell from outside when flushes and background compactions have
// gone quiet. Passed to the stores via
// TrassOptions::db_options.env.

#ifndef PERFBENCH_COUNTING_ENV_H_
#define PERFBENCH_COUNTING_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kv/env.h"

namespace perfbench {

struct IoCounts {
  uint64_t read_calls = 0;
  uint64_t read_bytes = 0;
  uint64_t wal_bytes = 0;
  uint64_t table_bytes = 0;
  uint64_t syncs = 0;
  uint64_t tables_created = 0;
  uint64_t tables_deleted = 0;

  IoCounts Minus(const IoCounts& base) const;
};

class CountingEnv : public trass::kv::Env {
 public:
  CountingEnv() : base_(trass::kv::Env::Default()) {}

  IoCounts Read() const;

  /// Blocks until no table file is being written and none was created,
  /// closed or deleted for `quiet_ms`: flushes and background
  /// compactions of every store on this env have settled. Returns false
  /// if that did not happen within `timeout_s`.
  bool Settle(double quiet_ms = 250.0, double timeout_s = 120.0) const;

  trass::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<trass::kv::WritableFile>* result) override;
  trass::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<trass::kv::RandomAccessFile>* result) override;
  trass::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<trass::kv::SequentialFile>* result) override;
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  trass::Status GetChildren(const std::string& dir,
                            std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  trass::Status RemoveFile(const std::string& fname) override;
  trass::Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  trass::Status RemoveDirRecursively(const std::string& dirname) override {
    return base_->RemoveDirRecursively(dirname);
  }
  trass::Status RenameFile(const std::string& src,
                           const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  trass::Status GetFileSize(const std::string& fname,
                            uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  trass::Status GetFreeDiskSpace(const std::string& path,
                                 uint64_t* bytes) override {
    return base_->GetFreeDiskSpace(path, bytes);
  }
  trass::Status ReadFileToString(const std::string& fname,
                                 std::string* data) override {
    return base_->ReadFileToString(fname, data);
  }
  trass::Status WriteStringToFile(const trass::Slice& data,
                                  const std::string& fname,
                                  bool sync) override;

  // Counters, bumped by the file wrappers.
  mutable std::atomic<uint64_t> read_calls{0};
  mutable std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> wal_bytes{0};
  std::atomic<uint64_t> table_bytes{0};
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> tables_created{0};
  std::atomic<uint64_t> tables_deleted{0};
  std::atomic<int64_t> open_table_writers{0};
  std::atomic<int64_t> last_table_event_ns{0};

  void NoteTableEvent();

 private:
  trass::kv::Env* base_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_ENV_H_
