#include "trace.h"

#include <cmath>
#include <cstdio>

#include "common.h"
#include "serve/wire.h"

namespace perfbench {

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.start_s, s.end_s);
  }
  return std::fclose(f) == 0;
}

trass::Status TimingTransport::Execute(
    const trass::serve::ShardRequest& request,
    const std::atomic<bool>* cancel, trass::serve::ShardResponse* response) {
  if (!tracer_->active()) return inner_->Execute(request, cancel, response);
  AttemptRecord record;
  record.query_id = query_id_->load();
  record.followup =
      request.op == trass::serve::ShardOp::kTopK && std::isfinite(request.bound);
  record.bound = request.bound;
  record.start_s = WallSeconds();
  const trass::Status s = inner_->Execute(request, cancel, response);
  record.end_s = WallSeconds();
  std::string bytes;
  trass::serve::EncodeShardRequest(request, &bytes);
  record.request_bytes = bytes.size();
  bytes.clear();
  trass::serve::EncodeShardResponse(*response, s, &bytes);
  record.response_bytes = bytes.size();
  tracer_->Record(Span{record.followup ? "shard_attempt.followup"
                                       : "shard_attempt",
                       tracer_->NewId(), record.query_id, record.start_s,
                       record.end_s});
  std::lock_guard<std::mutex> lock(mu_);
  attempts_.push_back(record);
  return s;
}

std::vector<AttemptRecord> TimingTransport::TakeAttempts() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AttemptRecord> out;
  out.swap(attempts_);
  return out;
}

}  // namespace perfbench
