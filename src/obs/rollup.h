// Observability: sliding-window per-endpoint service aggregation.
//
// The metrics registry accumulates process-lifetime totals and the access
// log records every request individually; neither answers "how is the
// daemon doing *right now*". Rollup fills the gap: a ring of fixed-width
// time slots (window_seconds / slots each) holding per-endpoint request
// counts, error counts, and latency histograms. record() lands in the slot
// the configured clock says is current, lazily reclaiming slots that aged
// out of the window — no ticker thread, no timer wheel. snapshot()
// aggregates the slots that are still inside the window, so the window
// "slides" with slot granularity.
//
// Alongside the windowed view the rollup keeps lifetime totals per
// endpoint plus queue depth / queue-wait high-water marks, which is what
// lets the `stats` endpoint reconcile exactly against the access log even
// after windowed entries expire.
//
// No-op contract: a disabled rollup's record()/observe_queue_depth() return
// after one relaxed atomic load — same bar as the metrics primitives,
// verified by bench_obs (`rollup.record` row). Time is read through the
// obs::Clock indirection so window expiry is testable with a ManualClock.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/health.h"
#include "obs/metrics.h"

namespace patchecko::obs {

/// Service endpoints the rollup buckets by. `other` absorbs unknown and
/// malformed requests so every completed request lands somewhere.
enum class Endpoint : std::uint8_t {
  scan,
  status,
  health,
  reload,
  drain,
  ping,
  stats,
  profile,
  other,
};
constexpr std::size_t kEndpointCount = 9;

std::string_view endpoint_name(Endpoint endpoint);
/// Inverse of endpoint_name(); unrecognized names map to Endpoint::other.
Endpoint endpoint_from_name(std::string_view name);

struct RollupConfig {
  /// Width of the sliding window. Together with `slots` this fixes the
  /// slot granularity (window_seconds / slots).
  double window_seconds = 60.0;
  std::size_t slots = 12;
  const Clock* clock = nullptr;  ///< null = Clock::real()
  /// Latency bucket upper bounds; empty = default_latency_bounds().
  std::vector<double> latency_bounds;
  bool enabled = true;
};

/// Windowed per-endpoint aggregate (one endpoint, slots still in window).
struct EndpointWindow {
  std::uint64_t count = 0;
  std::uint64_t errors = 0;
  /// latency_bounds.size() + 1 entries; the last is the overflow bucket
  /// ("le" semantics, like obs::Histogram).
  std::vector<std::uint64_t> latency_buckets;
  double max_seconds = 0.0;
  double queue_wait_max_seconds = 0.0;
};

/// Lifetime per-endpoint totals (never expire).
struct EndpointTotals {
  std::uint64_t count = 0;
  std::uint64_t errors = 0;
};

struct RollupSnapshot {
  double window_seconds = 0.0;
  std::int64_t queue_depth_high_water = 0;       ///< lifetime
  double queue_wait_high_water_seconds = 0.0;    ///< lifetime
  std::vector<double> latency_bounds;
  /// Indexed by Endpoint, kEndpointCount entries each.
  std::vector<EndpointWindow> window;
  std::vector<EndpointTotals> totals;
};

/// One JSON object (no trailing newline) with a fixed key order —
/// deterministic given the snapshot, so tests and `patchecko top` can rely
/// on the shape. Embedded by the service's `stats` response.
std::string rollup_snapshot_json(const RollupSnapshot& snapshot);

class Rollup {
 public:
  explicit Rollup(RollupConfig config = {});

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Records one completed request. `queue_wait_seconds` is the admission
  /// queue residency (0 for requests that never queue); `error` marks any
  /// non-2xx outcome. No-op (one relaxed load) when disabled.
  void record(Endpoint endpoint, double service_seconds,
              double queue_wait_seconds, bool error);

  /// Tracks the lifetime queue-depth high-water mark (sampled at admit
  /// time by the service). No-op when disabled.
  void observe_queue_depth(std::int64_t depth);

  RollupSnapshot snapshot() const;

 private:
  struct Slot {
    std::int64_t index = -1;  ///< absolute slot number; -1 = never used
    std::vector<EndpointWindow> per_endpoint;
  };

  std::int64_t slot_index_now() const;
  /// Returns the (reset-if-stale) slot for `index`; requires mutex_.
  Slot& live_slot(std::int64_t index);

  RollupConfig config_;
  const Clock* clock_;
  std::vector<double> bounds_;
  double slot_seconds_ = 0.0;
  double epoch_ = 0.0;
  std::atomic<bool> enabled_{true};

  mutable std::mutex mutex_;
  std::vector<Slot> slots_;
  std::vector<EndpointTotals> totals_;
  std::int64_t queue_depth_high_water_ = 0;
  double queue_wait_high_water_ = 0.0;
};

}  // namespace patchecko::obs
