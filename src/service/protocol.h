// Wire protocol of the scan service: length-prefixed JSONL frames.
//
// Every message — request or response — is one frame: a 4-byte big-endian
// payload length followed by exactly that many bytes of UTF-8 JSON (one
// document, no trailing newline required). Length-prefixing keeps framing
// trivial for concurrent clients (no in-band delimiter scanning of report
// text) while the JSON payloads stay greppable and scriptable.
//
// Robustness rules (tested by the frame-fuzz suite):
//   * An oversized frame (declared length > max_frame_bytes) is *skipped*,
//     not fatal: the reader consumes and discards the declared payload so
//     the connection stays framed, and the session answers with a 413-style
//     structured error instead of closing the socket.
//   * Malformed JSON and unknown request types produce 400-style error
//     responses; the connection survives.
//   * The reader never throws and never yields a payload larger than the
//     configured maximum, whatever bytes are pushed at it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/profiler.h"

namespace patchecko::service {

/// Default --max-frame-bytes: large enough for a full canonical report of a
/// paper-scale scan, small enough to bound a malicious client's allocation.
constexpr std::size_t kDefaultMaxFrameBytes = 16u * 1024 * 1024;
constexpr std::size_t kLengthPrefixBytes = 4;

/// Prepends the 4-byte big-endian length. Payloads above u32 range are a
/// programming error upstream; they are clamped out by the frame maximum
/// long before this limit matters.
std::string encode_frame(std::string_view payload);

enum class FrameStatus : std::uint8_t {
  ok,         ///< one complete payload extracted
  need_more,  ///< buffered bytes do not yet hold a full frame
  oversized,  ///< declared length exceeded the maximum; frame skipped
};

/// Incremental frame decoder over an arbitrary byte stream. push() bytes as
/// they arrive, then drain with next() until it reports need_more.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

  void push(const char* data, std::size_t size);
  void push(std::string_view bytes) { push(bytes.data(), bytes.size()); }

  /// Extracts the next frame into `payload` (only written on ok). On
  /// oversized, the offending payload's declared length is reported via
  /// `dropped_bytes` (when non-null) and its bytes are discarded as they
  /// arrive; framing continues with the following frame.
  FrameStatus next(std::string& payload, std::uint64_t* dropped_bytes = nullptr);

  std::size_t buffered() const { return buffer_.size() - consumed_; }
  std::size_t max_frame_bytes() const { return max_frame_bytes_; }

 private:
  void compact();

  std::size_t max_frame_bytes_;
  std::string buffer_;
  std::size_t consumed_ = 0;       ///< parsed prefix of buffer_
  std::uint64_t skip_remaining_ = 0;  ///< oversized payload left to discard
  bool skip_pending_report_ = false;  ///< oversized not yet surfaced
  std::uint64_t skip_total_ = 0;
};

// --- requests --------------------------------------------------------------

enum class RequestType : std::uint8_t {
  scan,     ///< run one firmware scan through the resident engine
  status,   ///< state of a previously submitted request id
  health,   ///< heartbeat snapshot + queue/cache/resource gauges
  reload,   ///< rebuild the CVE corpus snapshot (optionally new scale/seed)
  drain,    ///< stop admitting scans, finish the queue, then shut down
  ping,     ///< liveness probe
  stats,    ///< rolling per-endpoint aggregates (obs::Rollup snapshot)
  profile,  ///< capture an N-second sampling profile of the daemon
  unknown,  ///< unrecognized "type" — answered with a structured 400
};

struct Request {
  RequestType type = RequestType::unknown;
  std::string raw_type;  ///< the "type" string as sent (error reporting)

  // scan
  std::string firmware;               ///< firmware image path on the daemon
  std::vector<std::string> cve_ids;   ///< empty = every database entry
  bool want_provenance = false;       ///< include decision JSONL in result

  // status lookup, or a client-supplied id for a scan (must be unique and
  // >= 1; the server rejects a duplicate with a 409-style error)
  std::uint64_t request_id = 0;
  bool has_request_id = false;

  // reload
  std::optional<double> scale;
  std::optional<std::uint64_t> seed;

  // profile: capture duration. Bounded at parse time to (0, 300] s so a
  // typo cannot park a session thread for an hour.
  double profile_seconds = 1.0;
};

/// Parses one request payload. Returns nullopt (with *error filled) only on
/// malformed JSON or structurally invalid fields; an unrecognized type
/// parses successfully as RequestType::unknown so the server can name it in
/// its error response.
std::optional<Request> parse_request(std::string_view payload,
                                     std::string* error);

// Request payload builders (client side). `request_id` 0 lets the server
// assign one; a nonzero value names the scan (and must be unique).
std::string scan_request_json(const std::string& firmware,
                              const std::vector<std::string>& cve_ids,
                              bool want_provenance,
                              std::uint64_t request_id = 0);
std::string status_request_json(std::uint64_t request_id);
std::string health_request_json();
std::string reload_request_json(std::optional<double> scale,
                                std::optional<std::uint64_t> seed);
std::string drain_request_json();
std::string ping_request_json();
std::string stats_request_json();
std::string profile_request_json(double seconds);

// --- responses -------------------------------------------------------------

/// HTTP-flavored error codes so scripts get familiar semantics: 400 bad
/// request, 404 not found, 413 frame too large, 429 queue full, 503
/// draining, 500 internal failure.
std::string error_response(int code, std::string_view message,
                           std::uint64_t request_id = 0);

std::string accepted_response(std::uint64_t request_id,
                              std::size_t queue_depth);

struct ResultInfo {
  std::uint64_t request_id = 0;
  std::uint64_t corpus_version = 0;
  bool interrupted = false;
  double seconds = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::string report;      ///< ScanReport::canonical_text(), byte-exact
  std::string summary;     ///< ScanReport::summary_text()
  std::string provenance;  ///< decision JSONL; empty when not requested
};

std::string result_response(const ResultInfo& info);

/// A capture digest as JSON: {"duration_s", "self_s", "hot_path",
/// "hot_self_s", "hot_alloc_bytes"}. Shared by the `profile` response and
/// `stats.profile.last`.
std::string capture_summary_json(const obs::CaptureSummary& summary);

/// One completed daemon profile capture of `seconds` requested seconds:
/// its summary, the flamegraph.pl/speedscope-compatible folded stacks and
/// the rendered self-time table (human-facing, goes to the client's
/// stderr).
std::string profile_response(double seconds, const obs::ProfileReport& report);
std::string status_response(std::uint64_t request_id, std::string_view state);
std::string reloaded_response(std::uint64_t corpus_version, std::size_t cves,
                              double build_seconds);
std::string drained_response(std::uint64_t completed);
std::string pong_response();

}  // namespace patchecko::service
