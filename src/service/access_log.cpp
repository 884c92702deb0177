#include "service/access_log.h"

#include <unistd.h>

#include "obs/json.h"

namespace patchecko::service {

namespace obs_json = patchecko::obs::json;

std::string access_jsonl_line(const AccessEntry& entry) {
  std::string out = "{\"type\":\"access\",\"id\":" + std::to_string(entry.id) +
                    ",\"op\":";
  obs_json::append_string(out, entry.op);
  out += ",\"status\":" + std::to_string(entry.status) + ",\"outcome\":";
  obs_json::append_string(out, entry.outcome);
  out += ",\"queue_wait_s\":";
  obs_json::append_double(out, entry.queue_wait_s);
  out += ",\"service_s\":";
  obs_json::append_double(out, entry.service_s);
  out += ",\"corpus_version\":" + std::to_string(entry.corpus_version) +
         ",\"cache_hits\":" + std::to_string(entry.cache_hits) +
         ",\"cache_misses\":" + std::to_string(entry.cache_misses) +
         ",\"cache_hit_ratio\":";
  const std::uint64_t lookups = entry.cache_hits + entry.cache_misses;
  if (entry.has_cache && lookups > 0)
    obs_json::append_double(out, static_cast<double>(entry.cache_hits) /
                                     static_cast<double>(lookups));
  else
    out += "null";
  out += ",\"bytes_in\":" + std::to_string(entry.bytes_in) +
         ",\"bytes_out\":" + std::to_string(entry.bytes_out) + "}";
  return out;
}

AccessLog::~AccessLog() { close(); }

void AccessLog::close() {
  if (stream_ != nullptr) {
    std::fclose(stream_);
    stream_ = nullptr;
  }
  enabled_ = false;
}

bool AccessLog::open(const std::string& file, std::string* error) {
  const std::lock_guard<std::mutex> lock(mutex_);
  close();
  if (!file.empty()) {
    stream_ = std::fopen(file.c_str(), "w");
    if (stream_ == nullptr) {
      if (error != nullptr) *error = "cannot open access log: " + file;
      return false;
    }
  }
  enabled_ = true;
  return true;
}

void AccessLog::append(const AccessEntry& entry) {
  if (!enabled_) return;
  const std::string line = access_jsonl_line(entry);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_) return;
  std::FILE* out = stream_ != nullptr ? stream_ : stderr;
  std::fwrite(line.data(), 1, line.size(), out);
  std::fputc('\n', out);
  std::fflush(out);
}

void AccessLog::flush_sync() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_ || stream_ == nullptr) return;
  std::fflush(stream_);
  ::fsync(::fileno(stream_));
}

}  // namespace patchecko::service
