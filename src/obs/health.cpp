#include "obs/health.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "obs/events.h"
#include "obs/json.h"
#include "obs/resource.h"

namespace patchecko::obs {

namespace {

/// Completion-rate window: the estimator looks this many snapshots back, so
/// the ETA tracks the recent rate rather than the whole-run average (early
/// cache-hit bursts would otherwise make the tail look faster than it is).
constexpr std::size_t kRateWindow = 8;

std::uint64_t counter_value(const RegistrySnapshot& snapshot,
                            std::string_view name) {
  for (const CounterSnapshot& counter : snapshot.counters)
    if (counter.name == name) return counter.value;
  return 0;
}

std::int64_t gauge_value(const RegistrySnapshot& snapshot,
                         std::string_view name) {
  for (const GaugeSnapshot& gauge : snapshot.gauges)
    if (gauge.name == name) return gauge.value;
  return 0;
}

std::uint64_t histogram_count(const RegistrySnapshot& snapshot,
                              std::string_view name) {
  for (const HistogramSnapshot& histogram : snapshot.histograms)
    if (histogram.name == name) return histogram.count;
  return 0;
}

std::uint64_t delta(std::uint64_t now, std::uint64_t baseline) {
  return now >= baseline ? now - baseline : 0;
}

class RealClock : public Clock {
 public:
  double now() const override {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

}  // namespace

const Clock& Clock::real() {
  static const RealClock clock;
  return clock;
}

std::string health_snapshot_jsonl(const HealthSnapshot& snapshot,
                                  bool include_process) {
  using json::append_all;
  using json::append_double;
  std::string out;
  append_all(out, "{\"type\":\"heartbeat\",\"seq\":", snapshot.seq,
             ",\"t_s\":");
  append_double(out, snapshot.t_seconds);
  append_all(out, ",\"jobs\":{\"done\":", snapshot.jobs_done,
             ",\"total\":", snapshot.jobs_total,
             ",\"analyze\":", snapshot.analyze_done,
             ",\"detect\":", snapshot.detect_done,
             ",\"patch\":", snapshot.patch_done, "},\"rate_per_s\":");
  append_double(out, snapshot.rate_per_second);
  out += ",\"eta_s\":";
  append_double(out, snapshot.eta_seconds);
  append_all(out, ",\"cache\":{\"hits\":", snapshot.cache_hits,
             ",\"misses\":", snapshot.cache_misses, ",\"hit_ratio\":");
  append_double(out, snapshot.cache_hit_ratio);
  append_all(out, "},\"queues\":{\"ready\":", snapshot.ready_depth,
             ",\"pool\":", snapshot.pool_queue_depth,
             "},\"events\":{\"emitted\":", snapshot.events_emitted,
             ",\"overflow\":", snapshot.events_overflowed,
             "},\"stalled_jobs\":", snapshot.stalled_jobs);
  if (include_process)
    append_all(out, ",\"process\":{\"rss_kb\":", snapshot.rss_kb,
               ",\"peak_rss_kb\":", snapshot.peak_rss_kb, '}');
  out += '}';
  return out;
}

Heartbeat::Heartbeat(HeartbeatConfig config)
    : config_(std::move(config)),
      clock_(config_.clock != nullptr ? config_.clock : &Clock::real()),
      registry_(config_.registry != nullptr ? config_.registry
                                            : &Registry::global()) {}

Heartbeat::~Heartbeat() { finish(); }

Heartbeat::Baseline Heartbeat::read_counters() const {
  const RegistrySnapshot snapshot = registry_->snapshot();
  Baseline base;
  base.analyze = histogram_count(snapshot, "engine.job_seconds.analyze");
  base.detect = histogram_count(snapshot, "engine.job_seconds.detect");
  base.patch = histogram_count(snapshot, "engine.job_seconds.patch");
  base.cache_hits = counter_value(snapshot, "cache.feature_hits") +
                    counter_value(snapshot, "cache.outcome_hits");
  base.cache_misses = counter_value(snapshot, "cache.feature_misses") +
                      counter_value(snapshot, "cache.outcome_misses");
  base.events_emitted = EventLog::global().emitted();
  base.events_overflowed = EventLog::global().overflowed();
  base.stall_flags = counter_value(snapshot, "watchdog.soft_flags");
  return base;
}

void Heartbeat::begin(std::uint64_t jobs_total) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_) return;
    active_ = true;
    jobs_total_ = jobs_total;
    jobs_done_.store(0, std::memory_order_relaxed);
    next_seq_ = 0;
    window_.clear();
    start_time_ = clock_->now();
    baseline_ = read_counters();
    if (!config_.write_lines) {
      stream_ = nullptr;
      owns_stream_ = false;
    } else if (config_.file.empty()) {
      stream_ = stderr;
      owns_stream_ = false;
    } else {
      stream_ = std::fopen(config_.file.c_str(), "w");
      owns_stream_ = stream_ != nullptr;
      if (stream_ == nullptr) {
        std::fprintf(stderr,
                     "[heartbeat] warning: cannot write %s; snapshots go to "
                     "stderr\n",
                     config_.file.c_str());
        stream_ = stderr;
      }
    }
    emit_locked();
  }
  if (config_.interval_seconds > 0.0) {
    stop_ = false;
    ticker_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(ticker_mutex_);
      const auto interval = std::chrono::duration<double>(
          config_.interval_seconds);
      while (!stop_) {
        if (ticker_cv_.wait_for(lock, interval, [this] { return stop_; }))
          break;
        lock.unlock();
        poll();
        lock.lock();
      }
    });
  }
}

void Heartbeat::job_done() {
  jobs_done_.fetch_add(1, std::memory_order_relaxed);
}

HealthSnapshot Heartbeat::sample_locked() {
  const Baseline now_counters = read_counters();
  HealthSnapshot snapshot;
  snapshot.seq = next_seq_++;
  snapshot.t_seconds = clock_->now() - start_time_;
  snapshot.jobs_done = jobs_done_.load(std::memory_order_relaxed);
  snapshot.jobs_total = jobs_total_;
  snapshot.analyze_done = delta(now_counters.analyze, baseline_.analyze);
  snapshot.detect_done = delta(now_counters.detect, baseline_.detect);
  snapshot.patch_done = delta(now_counters.patch, baseline_.patch);
  snapshot.cache_hits = delta(now_counters.cache_hits, baseline_.cache_hits);
  snapshot.cache_misses =
      delta(now_counters.cache_misses, baseline_.cache_misses);
  const std::uint64_t lookups = snapshot.cache_hits + snapshot.cache_misses;
  snapshot.cache_hit_ratio =
      lookups == 0 ? 0.0
                   : static_cast<double>(snapshot.cache_hits) /
                         static_cast<double>(lookups);
  const RegistrySnapshot registry_snapshot = registry_->snapshot();
  snapshot.ready_depth = gauge_value(registry_snapshot, "engine.ready_depth");
  snapshot.pool_queue_depth =
      gauge_value(registry_snapshot, "pool.queue_depth");
  snapshot.events_emitted =
      delta(now_counters.events_emitted, baseline_.events_emitted);
  snapshot.events_overflowed =
      delta(now_counters.events_overflowed, baseline_.events_overflowed);
  snapshot.stalled_jobs =
      delta(now_counters.stall_flags, baseline_.stall_flags);
  if (config_.include_process) {
    snapshot.rss_kb = process_rss_kb();
    snapshot.peak_rss_kb = process_peak_rss_kb();
  }

  // Sliding-window rate + ETA. The window holds the last kRateWindow
  // snapshots; the rate is jobs completed over that span.
  window_.emplace_back(snapshot.t_seconds, snapshot.jobs_done);
  if (window_.size() > kRateWindow)
    window_.erase(window_.begin(),
                  window_.end() - static_cast<std::ptrdiff_t>(kRateWindow));
  const auto& [t0, done0] = window_.front();
  const double dt = snapshot.t_seconds - t0;
  if (dt > 0.0 && snapshot.jobs_done > done0)
    snapshot.rate_per_second =
        static_cast<double>(snapshot.jobs_done - done0) / dt;
  const std::uint64_t remaining =
      snapshot.jobs_total > snapshot.jobs_done
          ? snapshot.jobs_total - snapshot.jobs_done
          : 0;
  if (remaining == 0)
    snapshot.eta_seconds = 0.0;
  else if (snapshot.rate_per_second > 0.0)
    snapshot.eta_seconds =
        static_cast<double>(remaining) / snapshot.rate_per_second;
  else
    snapshot.eta_seconds = std::numeric_limits<double>::quiet_NaN();
  return snapshot;
}

void Heartbeat::emit_locked() {
  const HealthSnapshot snapshot = sample_locked();
  last_ = snapshot;
  if (stream_ != nullptr) {
    const std::string line =
        health_snapshot_jsonl(snapshot, config_.include_process);
    std::fprintf(stream_, "%s\n", line.c_str());
    std::fflush(stream_);
  }
  snapshots_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<HealthSnapshot> Heartbeat::last_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_;
}

void Heartbeat::poll() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!active_) return;
  emit_locked();
}

void Heartbeat::finish() {
  if (ticker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(ticker_mutex_);
      stop_ = true;
    }
    ticker_cv_.notify_all();
    ticker_.join();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!active_) return;
  emit_locked();
  if (owns_stream_) std::fclose(stream_);
  stream_ = nullptr;
  owns_stream_ = false;
  active_ = false;
}

StallWatchdog::StallWatchdog(WatchdogConfig config)
    : config_(config),
      clock_(config_.clock != nullptr ? config_.clock : &Clock::real()) {}

StallWatchdog::~StallWatchdog() { stop(); }

void StallWatchdog::start() {
  if (config_.poll_interval_seconds <= 0.0 || poller_.joinable()) return;
  stop_ = false;
  poller_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(poller_mutex_);
    const auto interval =
        std::chrono::duration<double>(config_.poll_interval_seconds);
    while (!stop_) {
      if (poller_cv_.wait_for(lock, interval, [this] { return stop_; }))
        break;
      lock.unlock();
      poll();
      lock.lock();
    }
  });
}

void StallWatchdog::stop() {
  if (!poller_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(poller_mutex_);
    stop_ = true;
  }
  poller_cv_.notify_all();
  poller_.join();
}

StallWatchdog::Job StallWatchdog::job_started(std::string_view kind,
                                              std::string_view label) {
  Job job;
  job.cancel = std::make_shared<std::atomic<bool>>(false);
  std::lock_guard<std::mutex> lock(mutex_);
  job.id = next_id_++;
  Active active;
  active.kind = std::string(kind);
  active.label = std::string(label);
  active.started = clock_->now();
  active.cancel = job.cancel;
  active_.emplace(job.id, std::move(active));
  return job;
}

void StallWatchdog::job_finished(const Job& job) {
  std::lock_guard<std::mutex> lock(mutex_);
  active_.erase(job.id);
}

void StallWatchdog::poll() {
  static Counter& soft_counter =
      Registry::global().counter("watchdog.soft_flags");
  static Counter& cancel_counter =
      Registry::global().counter("watchdog.cancelled");
  const double now = clock_->now();
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, job] : active_) {
    const double age = now - job.started;
    if (config_.soft_deadline_seconds > 0.0 && !job.flagged &&
        age > config_.soft_deadline_seconds) {
      job.flagged = true;
      soft_flagged_.fetch_add(1, std::memory_order_relaxed);
      soft_counter.add();
      if (events_enabled())
        EventLog::global().emit(
            Severity::warn, "watchdog.stall",
            {Field::text("kind", job.kind), Field::text("label", job.label),
             Field::f64("age_s", age),
             Field::f64("deadline_s", config_.soft_deadline_seconds)});
      if (config_.warn_stderr)
        std::fprintf(stderr,
                     "[watchdog] %s %s running %.1fs (soft deadline %.1fs)\n",
                     job.kind.c_str(), job.label.c_str(), age,
                     config_.soft_deadline_seconds);
    }
    if (config_.hard_deadline_seconds > 0.0 && !job.cancelled &&
        age > config_.hard_deadline_seconds) {
      job.cancelled = true;
      job.cancel->store(true, std::memory_order_relaxed);
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      cancel_counter.add();
      if (events_enabled())
        EventLog::global().emit(
            Severity::warn, "watchdog.cancel",
            {Field::text("kind", job.kind), Field::text("label", job.label),
             Field::f64("age_s", age),
             Field::f64("deadline_s", config_.hard_deadline_seconds)});
      if (config_.warn_stderr)
        std::fprintf(
            stderr,
            "[watchdog] cancelling %s %s after %.1fs (hard deadline %.1fs)\n",
            job.kind.c_str(), job.label.c_str(), age,
            config_.hard_deadline_seconds);
    }
  }
}

}  // namespace patchecko::obs
