#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace patchecko::service {

namespace obs_json = patchecko::obs::json;

// --- connection ------------------------------------------------------------

/// One accepted socket. Reads happen only on the session thread; writes can
/// come from the session thread (errors, health) *and* dispatcher threads
/// (scan results), so every write serializes on write_mutex and a failed
/// write just marks the connection dead — a vanished client must never take
/// the daemon down with it.
struct ScanService::Connection {
  explicit Connection(int descriptor) : fd(descriptor) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  bool send_frame_locked(std::string_view payload) {
    if (!open.load(std::memory_order_relaxed)) return false;
    const std::string frame = encode_frame(payload);
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        open.store(false, std::memory_order_relaxed);
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool send_frame(std::string_view payload) {
    std::lock_guard<std::mutex> lock(write_mutex);
    return send_frame_locked(payload);
  }

  int fd = -1;
  std::mutex write_mutex;
  std::atomic<bool> open{true};
};

// --- listeners -------------------------------------------------------------

namespace {

int make_unix_listener(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long: " + path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("cannot create unix socket");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // stale socket from a crashed predecessor
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    ::close(fd);
    throw std::runtime_error("cannot bind unix socket " + path);
  }
  return fd;
}

int make_tcp_listener(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("cannot create tcp socket");
  const int yes = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof(yes));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Loopback only: the daemon's trust model is "local clients"; exposing
  // the scan API beyond the host is an explicit reverse-proxy decision.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    ::close(fd);
    throw std::runtime_error("cannot bind tcp port " + std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    *bound_port = ntohs(bound.sin_port);
  return fd;
}

/// poll() for readability with a short timeout so loops notice the stop
/// flag; returns false on fatal socket error.
bool wait_readable(int fd, const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_acquire)) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rc > 0) {
      if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) return false;
      return true;
    }
  }
  return false;
}

}  // namespace

// --- lifecycle -------------------------------------------------------------

namespace {

obs::RollupConfig rollup_config(const ServiceConfig& config) {
  obs::RollupConfig rollup;
  if (config.stats_window_seconds > 0.0)
    rollup.window_seconds = config.stats_window_seconds;
  return rollup;
}

}  // namespace

ScanService::ScanService(ServiceConfig config)
    : config_(std::move(config)),
      store_(config_.eval, DatabaseConfig{}, config_.snapshot_builder),
      engine_(config_.engine),
      queue_(config_.queue_limit),
      rollup_(rollup_config(config_)) {
  rollup_.set_corpus_version(store_.current()->version);
  if (config_.access_log.enabled) {
    std::string error;
    if (!access_log_.open(config_.access_log.file, &error))
      throw std::runtime_error(error);
  }
}

ScanService::~ScanService() { stop(); }

void ScanService::start() {
  if (started_) return;
  started_ = true;
  if (!config_.socket_path.empty())
    unix_fd_ = make_unix_listener(config_.socket_path);
  if (config_.tcp_port >= 0)
    tcp_listen_fd_ = make_tcp_listener(config_.tcp_port, &tcp_port_);
  if (unix_fd_ < 0 && tcp_listen_fd_ < 0)
    throw std::runtime_error(
        "service needs a listener: set socket_path and/or tcp_port");
  uptime_.restart();
  const unsigned dispatchers = std::max(1u, config_.dispatchers);
  dispatchers_.reserve(dispatchers);
  for (unsigned i = 0; i < dispatchers; ++i)
    dispatchers_.emplace_back([this] { dispatch_loop(); });
  if (unix_fd_ >= 0)
    acceptors_.emplace_back([this] { accept_loop(unix_fd_); });
  if (tcp_listen_fd_ >= 0)
    acceptors_.emplace_back([this] { accept_loop(tcp_listen_fd_); });
  if (config_.stats_out.enabled && !config_.stats_out.file.empty())
    stats_thread_ = std::thread([this] { stats_ticker_loop(); });
}

void ScanService::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // Shed queued work first: dispatchers answer every not-yet-started scan
  // with a structured cancellation, finish what is in flight (the engine's
  // interrupt token, when wired, shortens that; a scan held by the
  // scan_delay_seconds hook is released), then exit.
  {
    std::lock_guard<std::mutex> lock(delay_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  delay_cv_.notify_all();
  queue_.shed();
  for (std::thread& thread : dispatchers_) thread.join();
  dispatchers_.clear();
  // Stop the stats ticker only after the dispatchers have drained: its
  // final line (written durably below the wait loop) then records the
  // fully settled queue counters.
  {
    std::lock_guard<std::mutex> lock(stats_stop_mutex_);
    stats_stop_ = true;
  }
  stats_stop_cv_.notify_all();
  if (stats_thread_.joinable()) stats_thread_.join();
  for (std::thread& thread : acceptors_) thread.join();
  acceptors_.clear();
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_listen_fd_ >= 0) ::close(tcp_listen_fd_);
  unix_fd_ = tcp_listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (const auto& connection : connections_)
      ::shutdown(connection->fd, SHUT_RDWR);
  }
  for (std::thread& thread : sessions_) thread.join();
  sessions_.clear();
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    connections_.clear();
  }
  // Every response is on the wire and every access line appended; make the
  // log durable before the process can exit (SIGINT/SIGTERM land here via
  // the serve loop's graceful-shutdown path).
  access_log_.flush_sync();
  if (!config_.socket_path.empty()) ::unlink(config_.socket_path.c_str());
}

std::shared_ptr<const CorpusSnapshot> ScanService::reload(
    std::optional<double> scale, std::optional<std::uint64_t> seed) {
  EvalConfig eval = store_.current()->eval;
  if (scale.has_value()) eval.scale = *scale;
  if (seed.has_value()) eval.seed = *seed;
  auto snapshot = store_.reload(eval);
  rollup_.set_corpus_version(snapshot->version);
  return snapshot;
}

// --- request registry ------------------------------------------------------

void ScanService::set_state(std::uint64_t id, const char* state) {
  std::lock_guard<std::mutex> lock(states_mutex_);
  states_[id] = state;
}

std::optional<std::string> ScanService::state_of(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(states_mutex_);
  const auto it = states_.find(id);
  if (it == states_.end()) return std::nullopt;
  return it->second;
}

// --- sessions --------------------------------------------------------------

void ScanService::accept_loop(int listen_fd) {
  while (wait_readable(listen_fd, stopping_)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    auto connection = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      // Raced with stop(): the session table is being torn down.
      continue;
    }
    connections_.push_back(connection);
    sessions_.emplace_back(
        [this, connection] { session_loop(connection); });
  }
}

void ScanService::session_loop(std::shared_ptr<Connection> connection) {
  FrameReader reader(config_.max_frame_bytes);
  char buffer[4096];
  while (wait_readable(connection->fd, stopping_)) {
    const ssize_t n = ::read(connection->fd, buffer, sizeof(buffer));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    reader.push(buffer, static_cast<std::size_t>(n));
    std::string payload;
    for (;;) {
      std::uint64_t dropped = 0;
      const FrameStatus status = reader.next(payload, &dropped);
      if (status == FrameStatus::need_more) break;
      if (status == FrameStatus::oversized) {
        // The reader discards the payload as it trickles in, so framing —
        // and the connection — survive; the client just gets told.
        connection->send_frame(error_response(
            413, "frame of " + std::to_string(dropped) +
                     " bytes exceeds max_frame_bytes " +
                     std::to_string(config_.max_frame_bytes)));
        continue;
      }
      handle_payload(connection, payload);
    }
  }
  // A session that exits because the service is stopping must leave the
  // connection writable: dispatchers still owe in-flight results and
  // queued-scan cancellations, and stop() closes the fd only after those
  // are on the wire. Only a real peer disconnect marks the link dead.
  if (!stopping_.load(std::memory_order_acquire))
    connection->open.store(false, std::memory_order_relaxed);
}

void ScanService::handle_payload(
    const std::shared_ptr<Connection>& connection, std::string_view payload) {
  const Stopwatch watch;
  // Synchronous endpoints share one completion path: count the request in
  // the rollup, send the response, then log it (the log line must never
  // precede the frame it describes). Scans return before `done` and account
  // for themselves from the dispatcher.
  AccessEntry entry;
  entry.bytes_in = payload.size();
  entry.corpus_version = store_.current()->version;
  const auto done = [&](std::string_view op, int status,
                        std::string_view outcome,
                        const std::string& response) {
    entry.op = op;
    entry.status = status;
    entry.outcome = outcome;
    entry.service_s = watch.elapsed_seconds();
    record_request(entry);
    connection->send_frame(response);
    entry.bytes_out = response.size() + kLengthPrefixBytes;
    access_log_.append(entry);
  };

  std::string parse_error;
  std::optional<Request> request = parse_request(payload, &parse_error);
  if (!request) {
    done("other", 400, "error", error_response(400, parse_error));
    return;
  }
  switch (request->type) {
    case RequestType::scan:
      handle_scan(connection, std::move(*request), payload.size());
      return;
    case RequestType::status: {
      entry.id = request->request_id;
      const std::optional<std::string> state = state_of(request->request_id);
      if (!state) {
        done("status", 404, "error",
             error_response(404, "unknown request_id", request->request_id));
        return;
      }
      done("status", 200, "ok",
           status_response(request->request_id, *state));
      return;
    }
    case RequestType::health:
      done("health", 200, "ok", health_json());
      return;
    case RequestType::stats:
      done("stats", 200, "ok", stats_json());
      return;
    case RequestType::reload: {
      const auto snapshot = reload(request->scale, request->seed);
      entry.corpus_version = snapshot->version;
      done("reload", 200, "ok",
           reloaded_response(snapshot->version,
                             snapshot->database.entries().size(),
                             watch.elapsed_seconds()));
      return;
    }
    case RequestType::drain: {
      // Block this session until every admitted scan has finished; the
      // response *is* the drain barrier, so a client that sees "drained"
      // knows the queue is empty.
      draining_.store(true, std::memory_order_release);
      queue_.wait_idle();
      const std::string response = drained_response(queue_.stats().completed);
      done("drain", 200, "ok", response);
      drained_.store(true, std::memory_order_release);
      return;
    }
    case RequestType::ping:
      done("ping", 200, "ok", pong_response());
      return;
    case RequestType::profile: {
      // Start/stop is guarded by the profiler itself: a second capture
      // while one runs — from this or any other connection — answers 409
      // instead of silently sharing (and then truncating) the first.
      if (!obs::Profiler::global().start(obs::Profiler::Config{})) {
        done("profile", 409, "error",
             error_response(409, "a profile capture is already running"));
        return;
      }
      // The capture blocks this session (like drain); sliced sleeps keep
      // stop() from waiting out a long capture during shutdown.
      double remaining = request->profile_seconds;
      while (remaining > 0.0 &&
             !stopping_.load(std::memory_order_acquire)) {
        const double slice = std::min(remaining, 0.05);
        std::this_thread::sleep_for(std::chrono::duration<double>(slice));
        remaining -= slice;
      }
      done("profile", 200, "ok",
           profile_response(request->profile_seconds,
                            obs::Profiler::global().stop()));
      return;
    }
    case RequestType::unknown:
      done("other", 400, "error",
           error_response(400, "unknown request type '" + request->raw_type +
                                   "'"));
      return;
  }
}

void ScanService::handle_scan(const std::shared_ptr<Connection>& connection,
                              Request request, std::size_t bytes_in) {
  const Stopwatch watch;
  AccessEntry entry;
  entry.op = "scan";
  entry.bytes_in = bytes_in;
  entry.corpus_version = store_.current()->version;
  const auto reject = [&](std::uint64_t id, int status,
                          std::string_view outcome,
                          const std::string& response, bool locked) {
    entry.id = id;
    entry.status = status;
    entry.outcome = outcome;
    entry.service_s = watch.elapsed_seconds();
    record_request(entry);
    const bool sent = locked ? connection->send_frame_locked(response)
                             : connection->send_frame(response);
    entry.bytes_out = sent ? response.size() + kLengthPrefixBytes : 0;
    access_log_.append(entry);
  };

  if (draining_.load(std::memory_order_acquire) ||
      stopping_.load(std::memory_order_acquire)) {
    reject(request.has_request_id ? request.request_id : 0, 503, "rejected",
           error_response(503, "service is draining"), /*locked=*/false);
    return;
  }

  std::uint64_t id = 0;
  if (request.has_request_id) {
    // Client-named scan: the id must be fresh. Claim it in the state table
    // atomically, then bump the generator past it so auto-assigned ids can
    // never collide with it later.
    id = request.request_id;
    bool duplicate = false;
    {
      std::lock_guard<std::mutex> states_lock(states_mutex_);
      duplicate = !states_.emplace(id, "queued").second;
    }
    if (duplicate) {
      reject(id, 409, "error",
             error_response(409,
                            "request_id " + std::to_string(id) +
                                " is already in use",
                            id),
             /*locked=*/false);
      return;
    }
    std::uint64_t expected = next_request_id_.load(std::memory_order_relaxed);
    while (expected <= id &&
           !next_request_id_.compare_exchange_weak(
               expected, id + 1, std::memory_order_relaxed)) {
    }
  } else {
    id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    set_state(id, "queued");
  }
  PendingScan scan;
  scan.id = id;
  scan.request = std::move(request);
  scan.admitted_at = std::chrono::steady_clock::now();
  scan.bytes_in = bytes_in;
  scan.bytes_out = std::make_shared<std::atomic<std::uint64_t>>(0);
  std::weak_ptr<Connection> weak = connection;
  const auto bytes_out = scan.bytes_out;
  scan.respond = [weak, bytes_out](const std::string& payload) {
    if (const auto connection = weak.lock()) {
      if (connection->send_frame(payload))
        bytes_out->fetch_add(payload.size() + kLengthPrefixBytes,
                             std::memory_order_relaxed);
    }
  };
  // The accepted frame must hit the wire before the result frame, and the
  // dispatcher may finish arbitrarily fast — admit and acknowledge under
  // the connection's write lock so the two cannot reorder.
  std::lock_guard<std::mutex> lock(connection->write_mutex);
  if (!queue_.try_admit(std::move(scan))) {
    {
      std::lock_guard<std::mutex> states_lock(states_mutex_);
      states_.erase(id);
    }
    reject(id, 429, "rejected",
           error_response(429, "scan queue is full (limit " +
                                   std::to_string(config_.queue_limit) + ")"),
           /*locked=*/true);
    return;
  }
  const std::string accepted = accepted_response(id, queue_.stats().depth);
  if (connection->send_frame_locked(accepted))
    bytes_out->fetch_add(accepted.size() + kLengthPrefixBytes,
                         std::memory_order_relaxed);
  rollup_.observe_queue_depth(
      static_cast<std::int64_t>(queue_.stats().depth));
}

// --- dispatch --------------------------------------------------------------

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

void ScanService::dispatch_loop() {
  while (auto scan = queue_.next()) {
    if (scan->shed) {
      set_state(scan->id, "cancelled");
      AccessEntry entry;
      entry.id = scan->id;
      entry.op = "scan";
      entry.status = 503;
      entry.outcome = "cancelled";
      entry.queue_wait_s = seconds_since(scan->admitted_at);
      entry.corpus_version = store_.current()->version;
      entry.bytes_in = scan->bytes_in;
      finish_scan(*scan, entry,
                  error_response(503, "scan cancelled: service shutting down",
                                 scan->id));
    } else {
      run_scan(*scan);
    }
  }
}

void ScanService::finish_scan(const PendingScan& scan, AccessEntry& entry,
                              const std::string& response) {
  record_request(entry);
  queue_.job_done();
  scan.respond(response);
  if (scan.bytes_out)
    entry.bytes_out = scan.bytes_out->load(std::memory_order_relaxed);
  access_log_.append(entry);
}

void ScanService::run_scan(const PendingScan& scan) {
  // Queue wait ends — and service time starts — the moment a dispatcher
  // picks the scan up; the --scan-delay test hook counts as service time.
  const double queue_wait = seconds_since(scan.admitted_at);
  const Stopwatch service_watch;
  set_state(scan.id, "running");
  if (config_.scan_delay_seconds > 0.0) {
    std::unique_lock<std::mutex> lock(delay_mutex_);
    delay_cv_.wait_for(
        lock, std::chrono::duration<double>(config_.scan_delay_seconds),
        [this] { return stopping_.load(std::memory_order_acquire); });
  }

  // Capture the corpus generation up front: a reload that lands mid-scan
  // swaps the store pointer, but this shared_ptr keeps our generation
  // alive until the report is out the door.
  const std::shared_ptr<const CorpusSnapshot> snapshot = store_.current();

  AccessEntry entry;
  entry.id = scan.id;
  entry.op = "scan";
  entry.queue_wait_s = queue_wait;
  entry.corpus_version = snapshot->version;
  entry.bytes_in = scan.bytes_in;
  const auto finish = [&](int status, std::string_view outcome,
                          const std::string& response) {
    entry.status = status;
    entry.outcome = outcome;
    entry.service_s = service_watch.elapsed_seconds();
    finish_scan(scan, entry, response);
  };

  // The digest pass, and the decode on a miss, carry the request's id.
  std::shared_ptr<const ResidentImage> image;
  {
    const obs::TaskScope task(scan.id);
    image = images_.load(scan.request.firmware);
  }
  if (!image) {
    set_state(scan.id, "failed");
    finish(400, "error",
           error_response(400,
                          "cannot load firmware image '" +
                              scan.request.firmware + "'",
                          scan.id));
    return;
  }

  // Every request gets a heartbeat: silent (sampled only, for the health
  // endpoint) unless --heartbeat asked for per-request JSONL files.
  obs::HeartbeatConfig heartbeat_config;
  heartbeat_config.write_lines = config_.heartbeat.enabled;
  heartbeat_config.interval_seconds =
      config_.heartbeat.enabled ? config_.heartbeat.interval_seconds : 0.0;
  if (config_.heartbeat.enabled && !config_.heartbeat.file.empty())
    heartbeat_config.file =
        cli::indexed_output_file(config_.heartbeat.file, scan.id);
  auto heartbeat = std::make_shared<obs::Heartbeat>(heartbeat_config);
  {
    std::lock_guard<std::mutex> lock(heartbeat_mutex_);
    latest_heartbeat_ = heartbeat;
    latest_heartbeat_request_ = scan.id;
    latest_heartbeat_corpus_ = snapshot->version;
  }

  ScanRequest request;
  request.model = config_.model;
  request.firmware = &image->image;
  request.database = &snapshot->database;
  request.cve_ids = scan.request.cve_ids;
  request.heartbeat = heartbeat.get();
  request.query_codes = &snapshot->queries;
  request.request_id = scan.id;

  ScanReport report;
  try {
    report = engine_.run(request);
  } catch (const std::exception& error) {
    set_state(scan.id, "failed");
    finish(500, "error", error_response(500, error.what(), scan.id));
    return;
  }

  if (config_.events.enabled && !config_.events.file.empty()) {
    const std::string path =
        cli::indexed_output_file(config_.events.file, scan.id);
    std::ofstream out(path, std::ios::trunc);
    out << report.provenance_jsonl();
    // The event ring is shared by every in-flight scan; the request scope
    // stamped each event with its owner, so this file gets only its own.
    for (const obs::Event& event : obs::EventLog::global().events())
      if (event.request == scan.id)
        out << obs::event_jsonl_line(event) << "\n";
    if (!out.good())
      std::fprintf(stderr, "serve: cannot write events to %s\n", path.c_str());
  }

  ResultInfo info;
  info.request_id = scan.id;
  info.corpus_version = snapshot->version;
  info.interrupted = report.interrupted;
  info.seconds = report.total_seconds;
  info.cache_hits = report.cache.hits();
  info.cache_misses = report.cache.misses();
  std::string frame;
  {
    const obs::TaskScope task(scan.id);
    const obs::ScopedSpan span("service.render");
    info.report = report.canonical_text();
    info.summary = report.summary_text();
    if (scan.request.want_provenance)
      info.provenance = report.provenance_jsonl();
    frame = result_response(info);
  }

  entry.cache_hits = info.cache_hits;
  entry.cache_misses = info.cache_misses;
  entry.has_cache = true;

  // State before response: a client that just read its result may query
  // status immediately and must not still see "running".
  set_state(scan.id, report.interrupted ? "interrupted" : "done");
  finish(200, report.interrupted ? "interrupted" : "ok", frame);
}

// --- health ----------------------------------------------------------------

ServiceHealth ScanService::health() const {
  ServiceHealth health;
  health.uptime_seconds = uptime_.elapsed_seconds();
  const auto snapshot = store_.current();
  health.corpus_version = snapshot->version;
  health.corpus_cves = snapshot->database.entries().size();
  health.draining = draining_.load(std::memory_order_acquire);
  health.queue = queue_.stats();
  health.cache = engine_.cache().stats();
  health.images = images_.stats();
  health.retrieval_query_codes = snapshot->queries.entries.size();
  health.retrieval_query_build_seconds = snapshot->queries.build_seconds;
  // Index builds happen inside engine analyze jobs; the registry counters
  // are the process-lifetime totals (zero while obs is disabled).
  obs::Registry& registry = obs::Registry::global();
  health.retrieval_index_builds =
      registry.counter("retrieval.index_builds").value();
  health.retrieval_index_vectors =
      registry.counter("retrieval.index_vectors").value();
  health.retrieval_index_build_seconds =
      registry.histogram("retrieval.index_build_seconds").sum();
  return health;
}

namespace {

// The `corpus`, `queue` and `images` objects that `health` and `stats` both
// carry.
std::string corpus_json(std::uint64_t version, std::size_t cves) {
  return "{\"version\":" + std::to_string(version) +
         ",\"cves\":" + std::to_string(cves) + "}";
}

std::string queue_json(const AdmissionStats& queue) {
  return "{\"depth\":" + std::to_string(queue.depth) +
         ",\"active\":" + std::to_string(queue.active) +
         ",\"capacity\":" + std::to_string(queue.capacity) +
         ",\"admitted\":" + std::to_string(queue.admitted) +
         ",\"rejected\":" + std::to_string(queue.rejected) +
         ",\"completed\":" + std::to_string(queue.completed) + "}";
}

std::string images_json(const ImageTierStats& images) {
  return "{\"entries\":" + std::to_string(images.entries) +
         ",\"capacity\":" + std::to_string(images.capacity) +
         ",\"bytes\":" + std::to_string(images.bytes) +
         ",\"hits\":" + std::to_string(images.hits) +
         ",\"misses\":" + std::to_string(images.misses) +
         ",\"evictions\":" + std::to_string(images.evictions) + "}";
}

}  // namespace

std::string ScanService::health_json() const {
  const ServiceHealth health = this->health();
  std::string out = "{\"type\":\"health\",\"uptime_s\":";
  obs_json::append_double(out, health.uptime_seconds);
  out += ",\"corpus\":" +
         corpus_json(health.corpus_version, health.corpus_cves);
  out += std::string(",\"draining\":") + (health.draining ? "true" : "false");
  out += ",\"queue\":" + queue_json(health.queue);
  out += ",\"images\":" + images_json(health.images);
  const std::uint64_t hits = health.cache.hits();
  const std::uint64_t misses = health.cache.misses();
  const std::uint64_t lookups = hits + misses;
  out += ",\"cache\":{\"hits\":" + std::to_string(hits) +
         ",\"misses\":" + std::to_string(misses) +
         ",\"stores\":" + std::to_string(health.cache.stores) +
         ",\"hit_ratio\":";
  obs_json::append_double(
      out, lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups));
  out += "}";
  std::optional<obs::HealthSnapshot> heartbeat;
  std::uint64_t heartbeat_request = 0;
  std::uint64_t heartbeat_corpus = 0;
  {
    std::lock_guard<std::mutex> lock(heartbeat_mutex_);
    if (latest_heartbeat_) {
      heartbeat = latest_heartbeat_->last_snapshot();
      heartbeat_request = latest_heartbeat_request_;
      heartbeat_corpus = latest_heartbeat_corpus_;
    }
  }
  // The heartbeat block names the request it belongs to (and the corpus
  // generation that request captured): a multiplexed daemon's "latest
  // heartbeat" is meaningless without knowing *whose* heartbeat it is.
  out += ",\"heartbeat\":";
  if (heartbeat) {
    out += "{\"request_id\":" + std::to_string(heartbeat_request) +
           ",\"corpus_version\":" + std::to_string(heartbeat_corpus) +
           ",\"snapshot\":" +
           obs::health_snapshot_jsonl(*heartbeat, /*include_process=*/false) +
           "}";
  } else {
    out += "null";
  }
  out += ",\"retrieval\":{\"query_codes\":" +
         std::to_string(health.retrieval_query_codes) +
         ",\"query_build_s\":";
  obs_json::append_double(out, health.retrieval_query_build_seconds);
  out += ",\"index_builds\":" + std::to_string(health.retrieval_index_builds) +
         ",\"index_vectors\":" +
         std::to_string(health.retrieval_index_vectors) +
         ",\"index_build_s\":";
  obs_json::append_double(out, health.retrieval_index_build_seconds);
  out += "}";
  // Present only when serve runs store-backed (--corpus-dir): the provider
  // renders the prebuilt store's stats object.
  if (config_.corpus_store_stats_json)
    out += ",\"corpus_store\":" + config_.corpus_store_stats_json();
  out += ",\"process\":{\"rss_kb\":" + std::to_string(obs::process_rss_kb()) +
         ",\"peak_rss_kb\":" + std::to_string(obs::process_peak_rss_kb()) +
         "}}";
  return out;
}

// --- stats -----------------------------------------------------------------

std::string ScanService::stats_json() const {
  const auto snapshot = store_.current();
  const AdmissionStats queue = queue_.stats();
  std::string out = "{\"type\":\"stats\",\"schema_version\":2,\"uptime_s\":";
  obs_json::append_double(out, uptime_.elapsed_seconds());
  out += ",\"corpus\":" + corpus_json(snapshot->version,
                                       snapshot->database.entries().size());
  out += ",\"queue\":" + queue_json(queue);
  out += ",\"images\":" + images_json(images_.stats());
  out += ",\"rollup\":" + obs::rollup_snapshot_json(rollup_.snapshot());
  // The profiler block feeds `patchecko top`'s hot-leaf row: capture count,
  // whether one is running right now, and the hottest leaf of the last
  // completed capture (null until the first `profile` request finishes).
  obs::Profiler& profiler = obs::Profiler::global();
  out += ",\"profile\":{\"captures\":" + std::to_string(profiler.captures()) +
         std::string(",\"running\":") +
         (profiler.running() ? "true" : "false") + ",\"last\":";
  const auto summary = profiler.last_capture();
  out += summary ? capture_summary_json(*summary) : "null";
  out += "}";
  if (config_.corpus_store_stats_json)
    out += ",\"corpus_store\":" + config_.corpus_store_stats_json();
  out += "}";
  return out;
}

void ScanService::record_request(const AccessEntry& entry) {
  rollup_.record(obs::endpoint_from_name(entry.op), entry.service_s,
                 entry.queue_wait_s, entry.status >= 400);
}

void ScanService::stats_ticker_loop() {
  std::FILE* out = std::fopen(config_.stats_out.file.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "serve: cannot open stats dump %s\n",
                 config_.stats_out.file.c_str());
    return;
  }
  // One line immediately (so even a short-lived daemon leaves a record),
  // then one per interval until stop().
  for (;;) {
    const std::string line = stats_json();
    std::fwrite(line.data(), 1, line.size(), out);
    std::fputc('\n', out);
    std::fflush(out);
    std::unique_lock<std::mutex> lock(stats_stop_mutex_);
    const bool stopped = stats_stop_cv_.wait_for(
        lock,
        std::chrono::duration<double>(config_.stats_out.interval_seconds),
        [this] { return stats_stop_; });
    if (stopped) break;
  }
  // Final tick after stop() has drained the dispatchers, then make the
  // dump durable: a killed daemon's last line must reflect the settled
  // queue, not whatever the last interval happened to catch.
  const std::string line = stats_json();
  std::fwrite(line.data(), 1, line.size(), out);
  std::fputc('\n', out);
  std::fflush(out);
  ::fsync(::fileno(out));
  std::fclose(out);
}

}  // namespace patchecko::service
