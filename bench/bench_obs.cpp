// Observability overhead micro-bench: per-operation cost of the metric,
// span, and event primitives with instrumentation enabled vs the no-op
// (disabled) mode. The acceptance bar for the instrumentation is that
// disabled-mode cost is a single relaxed atomic load per call site — close
// to free next to the nanosecond-scale work the hot paths do per event — so
// bench_engine_cache stays within noise with everything off. Rows are also
// written to BENCH_obs.json (write_bench_json) so the perf trajectory is
// tracked across PRs.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "harness.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/rollup.h"
#include "obs/trace.h"

using namespace patchecko;

namespace {

volatile std::uint64_t g_sink = 0;

template <typename Fn>
double ns_per_op(std::size_t iterations, const Fn& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iterations; ++i) fn(i);
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / static_cast<double>(iterations);
}

void row(std::vector<bench::BenchRow>& rows, const char* name, double on_ns,
         double off_ns) {
  std::printf("%-24s %10.2f %10.2f\n", name, on_ns, off_ns);
  rows.push_back(bench::BenchRow{name, on_ns, off_ns});
}

}  // namespace

int main() {
  constexpr std::size_t iters = 4'000'000;
  constexpr std::size_t span_iters = 200'000;  // bounded by Tracer::max_spans
  constexpr std::size_t event_iters = 1'000'000;

  obs::Registry registry;
  obs::Counter& counter = registry.counter("bench.counter");
  obs::Gauge& gauge = registry.gauge("bench.gauge");
  obs::Histogram& histogram = registry.histogram("bench.histogram");
  obs::Tracer tracer;
  obs::EventLog events;

  std::printf("=== Observability primitives: ns/op ===\n");
  std::printf("%-24s %10s %10s\n", "operation", "enabled", "disabled");
  std::vector<bench::BenchRow> rows;

  double on = 0, off = 0;
  {
    obs::EnabledScope scope(true);
    on = ns_per_op(iters, [&](std::size_t) { counter.add(); });
  }
  {
    obs::EnabledScope scope(false);
    off = ns_per_op(iters, [&](std::size_t) { counter.add(); });
  }
  row(rows, "counter.add", on, off);

  {
    obs::EnabledScope scope(true);
    on = ns_per_op(iters, [&](std::size_t i) {
      gauge.add(i % 2 == 0 ? 1 : -1);
    });
  }
  {
    obs::EnabledScope scope(false);
    off = ns_per_op(iters, [&](std::size_t i) {
      gauge.add(i % 2 == 0 ? 1 : -1);
    });
  }
  row(rows, "gauge.add", on, off);

  {
    obs::EnabledScope scope(true);
    on = ns_per_op(iters, [&](std::size_t i) {
      histogram.record(1e-6 * static_cast<double>(i % 1024));
    });
  }
  {
    obs::EnabledScope scope(false);
    off = ns_per_op(iters, [&](std::size_t i) {
      histogram.record(1e-6 * static_cast<double>(i % 1024));
    });
  }
  row(rows, "histogram.record", on, off);

  {
    obs::EnabledScope scope(true);
    on = ns_per_op(span_iters, [&](std::size_t) {
      const obs::ScopedSpan span("bench.span", tracer);
    });
  }
  {
    obs::EnabledScope scope(false);
    off = ns_per_op(span_iters, [&](std::size_t) {
      const obs::ScopedSpan span("bench.span", tracer);
    });
  }
  row(rows, "scoped_span", on, off);

  // Bare emit: event flag checked inside emit(), no payload construction.
  {
    obs::EventsEnabledScope scope(true);
    on = ns_per_op(event_iters,
                   [&](std::size_t) {
                     events.emit(obs::Severity::info, "bench.event");
                   });
  }
  {
    obs::EventsEnabledScope scope(false);
    off = ns_per_op(event_iters,
                    [&](std::size_t) {
                      events.emit(obs::Severity::info, "bench.event");
                    });
  }
  row(rows, "event.emit", on, off);

  // Gated call site with a field payload: the production pattern — the
  // field vector must never be constructed in no-op mode, so disabled-mode
  // cost has to hold the same sub-ns bar as the metric primitives.
  {
    obs::EventsEnabledScope scope(true);
    on = ns_per_op(event_iters, [&](std::size_t i) {
      if (obs::events_enabled())
        events.emit(obs::Severity::info, "bench.event",
                    {obs::Field::u64("i", i),
                     obs::Field::f64("value", 0.5 * static_cast<double>(i))});
    });
  }
  {
    obs::EventsEnabledScope scope(false);
    off = ns_per_op(event_iters, [&](std::size_t i) {
      if (obs::events_enabled())
        events.emit(obs::Severity::info, "bench.event",
                    {obs::Field::u64("i", i),
                     obs::Field::f64("value", 0.5 * static_cast<double>(i))});
    });
  }
  row(rows, "event.emit_fields", on, off);

  // Service rollup: record() is on every daemon request path, so its
  // disabled mode must hold the same single-relaxed-load bar; snapshot()
  // runs once per `stats` request and merely needs to stay cheap.
  obs::Rollup rollup;
  constexpr std::size_t snapshot_iters = 50'000;
  {
    rollup.set_enabled(true);
    on = ns_per_op(iters, [&](std::size_t i) {
      rollup.record(static_cast<obs::Endpoint>(i % obs::kEndpointCount),
                    1e-6 * static_cast<double>(i % 1024), 0.0, false);
    });
  }
  {
    rollup.set_enabled(false);
    off = ns_per_op(iters, [&](std::size_t i) {
      rollup.record(static_cast<obs::Endpoint>(i % obs::kEndpointCount),
                    1e-6 * static_cast<double>(i % 1024), 0.0, false);
    });
  }
  row(rows, "rollup.record", on, off);

  {
    rollup.set_enabled(true);
    on = ns_per_op(snapshot_iters, [&](std::size_t) {
      g_sink = g_sink + rollup.snapshot().totals.size();
    });
  }
  {
    rollup.set_enabled(false);
    off = ns_per_op(snapshot_iters, [&](std::size_t) {
      g_sink = g_sink + rollup.snapshot().totals.size();
    });
  }
  row(rows, "rollup.snapshot", on, off);

  // A ScopedSpan while a capture runs: the enabled column adds the trie
  // entry and the boundary charge (clock read and allocation-delta flush)
  // to the traced span; the disabled column is the same traced span with no
  // capture running.
  obs::Profiler& profiler = obs::Profiler::global();
  {
    obs::EnabledScope scope(true);
    tracer.clear();
    profiler.start(obs::Profiler::Config{});
    on = ns_per_op(span_iters, [&](std::size_t) {
      const obs::ScopedSpan span("bench.pscope", tracer);
    });
    profiler.stop();
    tracer.clear();
    off = ns_per_op(span_iters, [&](std::size_t) {
      const obs::ScopedSpan span("bench.pscope", tracer);
    });
  }
  row(rows, "scoped_span.profiled", on, off);

  g_sink = counter.value() + static_cast<std::uint64_t>(gauge.max()) +
           histogram.count() + tracer.spans().size() + events.emitted();
  std::printf("(spans recorded: %zu, dropped: %llu; events emitted: %llu, "
              "overwritten: %llu)\n",
              tracer.spans().size(),
              static_cast<unsigned long long>(tracer.dropped()),
              static_cast<unsigned long long>(events.emitted()),
              static_cast<unsigned long long>(events.overflowed()));
  return bench::write_bench_json("obs", rows) ? 0 : 1;
}
