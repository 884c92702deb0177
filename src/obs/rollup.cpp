#include "obs/rollup.h"

#include <algorithm>

#include "obs/json.h"

namespace patchecko::obs {

std::string_view endpoint_name(Endpoint endpoint) {
  switch (endpoint) {
    case Endpoint::scan: return "scan";
    case Endpoint::status: return "status";
    case Endpoint::health: return "health";
    case Endpoint::reload: return "reload";
    case Endpoint::drain: return "drain";
    case Endpoint::ping: return "ping";
    case Endpoint::stats: return "stats";
    case Endpoint::profile: return "profile";
    case Endpoint::other: return "other";
  }
  return "other";
}

Endpoint endpoint_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kEndpointCount; ++i) {
    const auto endpoint = static_cast<Endpoint>(i);
    if (endpoint_name(endpoint) == name) return endpoint;
  }
  return Endpoint::other;
}

Rollup::Rollup(RollupConfig config)
    : config_(std::move(config)),
      clock_(config_.clock != nullptr ? config_.clock : &Clock::real()),
      bounds_(config_.latency_bounds.empty() ? default_latency_bounds()
                                             : config_.latency_bounds),
      enabled_(config_.enabled) {
  if (config_.slots == 0) config_.slots = 1;
  if (config_.window_seconds <= 0.0) config_.window_seconds = 60.0;
  slot_seconds_ = config_.window_seconds / static_cast<double>(config_.slots);
  epoch_ = clock_->now();
  slots_.resize(config_.slots);
  totals_.resize(kEndpointCount);
}

std::int64_t Rollup::slot_index_now() const {
  const double t = clock_->now() - epoch_;
  return t <= 0.0 ? 0 : static_cast<std::int64_t>(t / slot_seconds_);
}

Rollup::Slot& Rollup::live_slot(std::int64_t index) {
  Slot& slot = slots_[static_cast<std::size_t>(index) % slots_.size()];
  if (slot.index != index) {
    // Lazy expiry: this physical slot last held a window that has since
    // aged out; reclaim it for the current one.
    slot.index = index;
    slot.per_endpoint.assign(kEndpointCount, EndpointWindow{});
    for (EndpointWindow& window : slot.per_endpoint)
      window.latency_buckets.assign(bounds_.size() + 1, 0);
  }
  return slot;
}

void Rollup::record(Endpoint endpoint, double service_seconds,
                    double queue_wait_seconds, bool error) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const std::int64_t index = slot_index_now();
  const auto bucket = static_cast<std::size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), service_seconds) -
      bounds_.begin());

  std::lock_guard<std::mutex> lock(mutex_);
  EndpointWindow& window =
      live_slot(index).per_endpoint[static_cast<std::size_t>(endpoint)];
  window.count += 1;
  if (error) window.errors += 1;
  window.latency_buckets[bucket] += 1;
  window.max_seconds = std::max(window.max_seconds, service_seconds);
  window.queue_wait_max_seconds =
      std::max(window.queue_wait_max_seconds, queue_wait_seconds);
  EndpointTotals& totals = totals_[static_cast<std::size_t>(endpoint)];
  totals.count += 1;
  if (error) totals.errors += 1;
  queue_wait_high_water_ =
      std::max(queue_wait_high_water_, queue_wait_seconds);
}

void Rollup::observe_queue_depth(std::int64_t depth) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mutex_);
  queue_depth_high_water_ = std::max(queue_depth_high_water_, depth);
}

RollupSnapshot Rollup::snapshot() const {
  RollupSnapshot snapshot;
  snapshot.window_seconds = config_.window_seconds;
  snapshot.latency_bounds = bounds_;
  snapshot.window.assign(kEndpointCount, EndpointWindow{});
  for (EndpointWindow& window : snapshot.window)
    window.latency_buckets.assign(bounds_.size() + 1, 0);

  const std::int64_t now_index = slot_index_now();
  const std::int64_t oldest_live =
      now_index - static_cast<std::int64_t>(slots_.size()) + 1;

  std::lock_guard<std::mutex> lock(mutex_);
  snapshot.queue_depth_high_water = queue_depth_high_water_;
  snapshot.queue_wait_high_water_seconds = queue_wait_high_water_;
  snapshot.totals = totals_;
  for (const Slot& slot : slots_) {
    // index -1 = never used (and per_endpoint still empty); early in the
    // rollup's life oldest_live is negative, so the window check alone
    // would admit it.
    if (slot.index < 0 || slot.index < oldest_live || slot.index > now_index)
      continue;
    for (std::size_t e = 0; e < kEndpointCount; ++e) {
      const EndpointWindow& from = slot.per_endpoint[e];
      EndpointWindow& into = snapshot.window[e];
      into.count += from.count;
      into.errors += from.errors;
      for (std::size_t b = 0; b < from.latency_buckets.size(); ++b)
        into.latency_buckets[b] += from.latency_buckets[b];
      into.max_seconds = std::max(into.max_seconds, from.max_seconds);
      into.queue_wait_max_seconds = std::max(into.queue_wait_max_seconds,
                                             from.queue_wait_max_seconds);
    }
  }
  return snapshot;
}

std::string rollup_snapshot_json(const RollupSnapshot& snapshot) {
  using json::append_double;
  std::string out = "{\"window_s\":";
  append_double(out, snapshot.window_seconds);
  out += ",\"queue\":{\"depth_hwm\":" +
         std::to_string(snapshot.queue_depth_high_water) + ",\"wait_hwm_s\":";
  append_double(out, snapshot.queue_wait_high_water_seconds);
  out += "},\"le\":[";
  for (std::size_t i = 0; i < snapshot.latency_bounds.size(); ++i) {
    if (i != 0) out += ',';
    append_double(out, snapshot.latency_bounds[i]);
  }
  out += "],\"endpoints\":{";
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    if (e != 0) out += ',';
    out += '"';
    out += endpoint_name(static_cast<Endpoint>(e));
    out += "\":{\"count\":";
    const EndpointWindow window =
        e < snapshot.window.size() ? snapshot.window[e] : EndpointWindow{};
    const EndpointTotals totals =
        e < snapshot.totals.size() ? snapshot.totals[e] : EndpointTotals{};
    out += std::to_string(window.count);
    out += ",\"errors\":" + std::to_string(window.errors);
    out += ",\"max_s\":";
    append_double(out, window.max_seconds);
    out += ",\"wait_max_s\":";
    append_double(out, window.queue_wait_max_seconds);
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < window.latency_buckets.size(); ++b) {
      if (b != 0) out += ',';
      out += std::to_string(window.latency_buckets[b]);
    }
    out += "],\"total\":{\"count\":" + std::to_string(totals.count) +
           ",\"errors\":" + std::to_string(totals.errors) + "}}";
  }
  out += "}}";
  return out;
}

}  // namespace patchecko::obs
