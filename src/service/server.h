// `patchecko serve` — the persistent scan service.
//
// A one-shot `batch-scan` pays the full cold-start bill on every
// invocation: load the model, rebuild the deterministic CVE corpus and
// database, warm the result cache from nothing. ScanService keeps all of
// that resident in one long-lived process and accepts scan requests over a
// length-prefixed JSON protocol (protocol.h) on a Unix-domain socket —
// optionally also TCP on 127.0.0.1 — so a fleet-scale pipeline submits
// firmware images and gets back the *byte-identical* canonical report the
// one-shot CLI would have produced, at warm-cache latency.
//
// Life of a request:
//   session thread: read frames -> parse -> validate -> try_admit
//     (full queue => 429-style reject; draining => 503) -> "accepted"
//   dispatcher thread: capture corpus snapshot -> digest the firmware file
//     and take its decoded image from the image tier (decode it on a miss)
//     -> engine.run on the shared pool -> "result" frame (report + summary +
//     optional decision provenance) streamed back on the same connection.
//
// Corpus hot reload (SIGHUP or a `reload` request) builds the next
// CorpusSnapshot off to the side and swaps the store pointer; in-flight
// scans keep the generation they captured, so zero jobs are dropped.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/corpus_store.h"
#include "engine/engine.h"
#include "obs/rollup.h"
#include "service/access_log.h"
#include "service/admission.h"
#include "service/image_tier.h"
#include "service/protocol.h"
#include "util/cli_args.h"
#include "util/timer.h"

namespace patchecko::service {

struct ServiceConfig {
  /// Unix-domain socket path; created by start(), unlinked by stop().
  std::string socket_path;
  /// TCP listener on 127.0.0.1: -1 = disabled, 0 = ephemeral (tests read
  /// the bound port back via tcp_port()), >= 1 = explicit.
  int tcp_port = -1;

  /// Resident similarity model, owned by the caller; must outlive the
  /// service.
  const SimilarityModel* model = nullptr;
  /// Corpus generation built at startup (scale/seed reloads override it).
  EvalConfig eval;

  /// Scan execution; `interrupt` here doubles as the graceful-shutdown
  /// token for in-flight scans.
  EngineConfig engine;

  /// Optional store-backed snapshot builder (`serve --corpus-dir`): when
  /// set, startup and hot reload load CorpusSnapshots from the prebuilt
  /// store instead of recompiling from source. A std::function so the
  /// service layer never links against pk_corpus.
  CorpusStore::SnapshotBuilder snapshot_builder;
  /// Provider of the prebuilt store's stats JSON object; when set, the
  /// state document (stats_json()) carries a "corpus_store" block that
  /// `patchecko top` renders.
  std::function<std::string()> corpus_store_stats_json;

  /// Scans admitted but not yet dispatched; the bound is the backpressure
  /// contract — a full queue rejects instead of buffering.
  std::size_t queue_limit = 64;
  /// Dispatcher threads pulling from the admission queue. Each runs one
  /// scan at a time through the shared engine (its job graph already fans
  /// out on the global pool), so a small number is plenty.
  unsigned dispatchers = 2;

  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Per-request telemetry files, reusing the one-shot CLI specs: request
  /// N writes to indexed_output_file(file, N). Events require a file path;
  /// a bare heartbeat spec would spam daemon stderr and is rejected by the
  /// CLI layer.
  cli::OutputSpec events;
  cli::HeartbeatSpec heartbeat;

  /// Structured access log (`--access-log[=FILE]`): one JSONL line per
  /// completed request, written after the response frame. Empty file =
  /// stderr.
  cli::OutputSpec access_log;
  /// Periodic `stats` JSONL dump (`--stats-out=FILE[:interval_ms]`): the
  /// full stats response, one line per tick (plus one at startup).
  cli::HeartbeatSpec stats_out;
  /// Sliding window of the per-endpoint rollup (the `stats` endpoint).
  double stats_window_seconds = 60.0;

  /// Test hook: hold each dispatched scan this long, or until stop(),
  /// before running it, so backpressure and shutdown tests can saturate
  /// the queue deterministically.
  double scan_delay_seconds = 0.0;
};

class ScanService {
 public:
  /// Builds the resident state (corpus + database + engine) — the
  /// expensive part. Listeners are not live until start().
  explicit ScanService(ServiceConfig config);
  ~ScanService();

  ScanService(const ScanService&) = delete;
  ScanService& operator=(const ScanService&) = delete;

  /// Binds the sockets and spawns dispatcher/acceptor threads. Throws
  /// std::runtime_error when a socket cannot be bound.
  void start();

  /// Graceful shutdown: stops admission, answers queued-but-unstarted
  /// scans with a 503-style cancellation, waits for in-flight scans
  /// (cooperatively interrupted when config.engine.interrupt is set),
  /// closes every connection and listener. Idempotent.
  void stop();

  /// Rebuilds the corpus snapshot; nullopt fields keep the current
  /// generation's value. Returns the new snapshot.
  std::shared_ptr<const CorpusSnapshot> reload(std::optional<double> scale,
                                               std::optional<std::uint64_t> seed);

  /// True once a drain request has fully flushed the queue (the serve loop
  /// exits cleanly when it sees this).
  bool drained() const { return drained_.load(std::memory_order_acquire); }

  /// The daemon's state document, the answer to both `stats` and
  /// `health` (schema_version 3): corpus, queue, image tier, cache, latest
  /// heartbeat, retrieval catalog, the rollup snapshot (windowed
  /// per-endpoint counts/latency histograms and lifetime totals), profiler,
  /// prebuilt store and process RSS, each exactly once. Self-contained —
  /// `patchecko top` renders from it.
  std::string stats_json() const;

  /// Bound TCP port (after start()); -1 when TCP is disabled.
  int tcp_port() const { return tcp_port_; }
  const ServiceConfig& config() const { return config_; }

 private:
  struct Connection;

  void accept_loop(int listen_fd);
  void session_loop(std::shared_ptr<Connection> connection);
  void handle_payload(const std::shared_ptr<Connection>& connection,
                      std::string_view payload);
  void handle_scan(const std::shared_ptr<Connection>& connection,
                   Request request, std::size_t bytes_in);
  void dispatch_loop();
  void run_scan(const PendingScan& scan);

  /// Counts one completed request in the rollup. Called before the
  /// response frame goes out, so a client holding a response finds it in
  /// `stats`; the access-log line follows the frame, whose bytes it
  /// records. `entry.op` names the endpoint ("scan", "health", …; unknown
  /// maps to "other").
  void record_request(const AccessEntry& entry);
  /// Completes a dispatched scan in that order: the rollup and the queue
  /// count it, `response` goes out, the access log records it.
  void finish_scan(const PendingScan& scan, AccessEntry& entry,
                   const std::string& response);
  void stats_ticker_loop();

  void set_state(std::uint64_t id, const char* state);
  std::optional<std::string> state_of(std::uint64_t id) const;

  ServiceConfig config_;
  CorpusStore store_;
  ScanEngine engine_;
  ImageTier images_;
  AdmissionQueue queue_;
  Stopwatch uptime_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::atomic<std::uint64_t> next_request_id_{1};

  int unix_fd_ = -1;
  int tcp_listen_fd_ = -1;
  int tcp_port_ = -1;
  std::vector<std::thread> acceptors_;
  std::vector<std::thread> dispatchers_;

  mutable std::mutex sessions_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> sessions_;

  mutable std::mutex states_mutex_;
  std::unordered_map<std::uint64_t, std::string> states_;

  /// Heartbeat of the most recently dispatched scan; the state document
  /// reads its last emitted snapshot, tagged with the request it belongs
  /// to and the corpus generation that request captured.
  mutable std::mutex heartbeat_mutex_;
  std::shared_ptr<obs::Heartbeat> latest_heartbeat_;
  std::uint64_t latest_heartbeat_request_ = 0;
  std::uint64_t latest_heartbeat_corpus_ = 0;

  obs::Rollup rollup_;
  AccessLog access_log_;

  /// Periodic --stats-out dump: one stats_json() line per tick.
  std::thread stats_thread_;
  std::mutex stats_stop_mutex_;
  std::condition_variable stats_stop_cv_;
  bool stats_stop_ = false;

  /// Releases scans held by the scan_delay_seconds hook once stop() runs.
  std::mutex delay_mutex_;
  std::condition_variable delay_cv_;

  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace patchecko::service
