// Structured access log: one deterministic JSONL line per completed
// request, written *after* the response frame (same ordering discipline as
// the accepted-before-result rule, so a tail -f of the log never gets
// ahead of what clients have seen).
//
// The key order is part of the contract — CI validates it — and every key
// is present on every line so downstream column extraction never has to
// branch on request type:
//
//   {"type":"access","id":N,"op":"scan","status":200,"outcome":"ok",
//    "queue_wait_s":F,"service_s":F,"corpus_version":N,
//    "cache_hits":N,"cache_misses":N,"cache_hit_ratio":F|null,
//    "bytes_in":N,"bytes_out":N}
//
// `id` is 0 for request types that carry no request id (health, ping, …).
// `cache_hit_ratio` is null when the request touched no cache at all.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>

namespace patchecko::service {

struct AccessEntry {
  std::uint64_t id = 0;
  std::string op = "unknown";   ///< endpoint name ("scan", "health", …)
  int status = 200;             ///< HTTP-flavored code of the response
  std::string outcome = "ok";   ///< "ok","error","rejected","cancelled","interrupted"
  double queue_wait_s = 0.0;
  double service_s = 0.0;
  std::uint64_t corpus_version = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  bool has_cache = false;       ///< false renders cache_hit_ratio as null
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

/// Renders one access-log line (no trailing newline). Pure and
/// deterministic: no wall-clock fields, stable key order.
std::string access_jsonl_line(const AccessEntry& entry);

/// Thread-safe JSONL sink. Empty path = stderr (mirrors the --events /
/// --heartbeat sink convention). Lines are flushed per append so a crashed
/// daemon loses at most the in-flight line.
class AccessLog {
 public:
  AccessLog() = default;
  ~AccessLog();

  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  /// Opens the sink; returns false (with *error filled) when the file
  /// cannot be created. Calling open twice closes the previous sink.
  bool open(const std::string& file, std::string* error = nullptr);
  bool enabled() const { return enabled_; }

  void append(const AccessEntry& entry);

  /// Flush + fsync the sink (no-op for the stderr sink). Called on
  /// graceful shutdown so a SIGINT/SIGTERM'd daemon leaves a durable log
  /// that reconciles with every response it put on the wire.
  void flush_sync();

 private:
  void close();

  bool enabled_ = false;
  std::FILE* stream_ = nullptr;  ///< nullptr = stderr
  std::mutex mutex_;
};

}  // namespace patchecko::service
