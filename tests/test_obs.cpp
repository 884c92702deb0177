// Tests for the observability layer (src/obs): registry semantics (counter
// monotonicity, histogram bucket boundaries, exact concurrent sums), span
// nesting/ordering, the no-op contract of disabled mode, and the JSON/
// canonical exports.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace patchecko {
namespace {

namespace json = obs::json;

using obs::EnabledScope;
using obs::Registry;
using obs::ScopedSpan;
using obs::Span;
using obs::Tracer;

TEST(Obs, CounterIsMonotonicUnderMixedAdds) {
  EnabledScope on(true);
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  std::uint64_t previous = 0;
  for (const std::uint64_t step : {1u, 0u, 3u, 7u, 0u, 2u}) {
    counter.add(step);
    EXPECT_GE(counter.value(), previous);
    previous = counter.value();
  }
  EXPECT_EQ(counter.value(), 13u);
}

TEST(Obs, GaugeTracksLevelAndHighWaterMark) {
  EnabledScope on(true);
  obs::Gauge gauge;
  gauge.add(3);
  gauge.add(4);
  gauge.add(-5);
  EXPECT_EQ(gauge.value(), 2);
  EXPECT_EQ(gauge.max(), 7);
  gauge.set(1);
  EXPECT_EQ(gauge.value(), 1);
  EXPECT_EQ(gauge.max(), 7);  // max never regresses
}

TEST(Obs, HistogramBucketBoundariesAreLessOrEqual) {
  EnabledScope on(true);
  obs::Histogram histogram({1.0, 2.0, 4.0});
  histogram.record(0.5);   // <= 1.0         -> bucket 0
  histogram.record(1.0);   // == bound       -> bucket 0 ("le" semantics)
  histogram.record(1.5);   // (1, 2]         -> bucket 1
  histogram.record(4.0);   // == last bound  -> bucket 2
  histogram.record(99.0);  // above all      -> overflow bucket
  const std::vector<std::uint64_t> buckets = histogram.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_NEAR(histogram.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 99.0, 1e-6);
}

TEST(Obs, ConcurrentIncrementsSumExactly) {
  EnabledScope on(true);
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram histogram({0.5});
  constexpr int kThreads = 8;
  constexpr int kIterations = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        counter.add(1);
        gauge.add(1);
        histogram.record(0.25);
      }
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(gauge.value(), static_cast<std::int64_t>(kThreads) * kIterations);
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(histogram.bucket_counts()[0], histogram.count());
}

TEST(Obs, RegistryHandlesAreStableAcrossLookupAndReset) {
  EnabledScope on(true);
  Registry registry;
  obs::Counter& a = registry.counter("test.stable");
  a.add(5);
  obs::Counter& b = registry.counter("test.stable");
  EXPECT_EQ(&a, &b);
  registry.reset();
  EXPECT_EQ(a.value(), 0u);  // same object, zeroed — handle still valid
  a.add(2);
  EXPECT_EQ(registry.counter("test.stable").value(), 2u);
}

TEST(Obs, CanonicalTextIsSortedStableAndExcludesWallClock) {
  EnabledScope on(true);
  Registry registry;
  registry.counter("z.last").add(1);
  registry.counter("a.first").add(2);
  registry.gauge("m.depth").add(3);
  registry.histogram("h.lat").record(0.125);
  const std::string text = registry.canonical_text();
  EXPECT_EQ(text,
            "counter a.first 2\n"
            "counter z.last 1\n"
            "gauge m.depth 3 max 3\n"
            "histogram h.lat count 1\n");
  // Stable: a second rendering is byte-identical, and recording a different
  // wall-clock value does not change the canonical form.
  registry.histogram("h.lat").record(0.250);
  EXPECT_EQ(registry.canonical_text(),
            "counter a.first 2\n"
            "counter z.last 1\n"
            "gauge m.depth 3 max 3\n"
            "histogram h.lat count 2\n");
  EXPECT_EQ(text.find("0.125"), std::string::npos);
}

TEST(Obs, NoOpModeRecordsNothing) {
  EnabledScope off(false);
  Registry registry;
  obs::Counter& counter = registry.counter("test.noop");
  obs::Gauge& gauge = registry.gauge("test.noop_gauge");
  obs::Histogram& histogram = registry.histogram("test.noop_hist");
  Tracer tracer;
  {
    ScopedSpan span("noop.span", tracer);
    counter.add(100);
    gauge.add(7);
    histogram.record(1.0);
  }
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(gauge.max(), 0);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Obs, DisableMidSpanStillClosesTheOpenSpan) {
  Tracer tracer;
  obs::set_enabled(true);
  {
    ScopedSpan span("mid.flip", tracer);
    obs::set_enabled(false);
  }
  EXPECT_EQ(tracer.spans().size(), 1u);
  obs::set_enabled(false);
}

TEST(Obs, SpansNestWithParentLinksAndStartOrderIds) {
  EnabledScope on(true);
  Tracer tracer;
  {
    ScopedSpan outer("outer", tracer);
    { ScopedSpan first("inner.first", tracer); }
    { ScopedSpan second("inner.second", tracer); }
  }
  { ScopedSpan root("root.second", tracer); }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  // spans() sorts by id == start order.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "inner.first");
  EXPECT_EQ(spans[2].name, "inner.second");
  EXPECT_EQ(spans[3].name, "root.second");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[0].id);
  EXPECT_EQ(spans[3].parent, 0u);
  for (const Span& span : spans) {
    EXPECT_GE(span.end_seconds, span.start_seconds);
    EXPECT_GE(span.start_seconds, 0.0);
  }
  // The outer span encloses its children in time.
  EXPECT_LE(spans[0].start_seconds, spans[1].start_seconds);
  EXPECT_GE(spans[0].end_seconds, spans[2].end_seconds);
}

TEST(Obs, SpanStacksAreThreadLocal) {
  EnabledScope on(true);
  Tracer tracer;
  std::atomic<bool> outer_open{false};
  std::atomic<bool> child_done{false};
  std::thread other;
  {
    ScopedSpan outer("main.outer", tracer);
    outer_open.store(true);
    other = std::thread([&] {
      while (!outer_open.load()) std::this_thread::yield();
      // Opened while main.outer is live on the other thread: must be a
      // root, not a child of main.outer.
      ScopedSpan mine("worker.root", tracer);
      child_done.store(true);
    });
    while (!child_done.load()) std::this_thread::yield();
  }
  other.join();
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  for (const Span& span : spans) EXPECT_EQ(span.parent, 0u);
  EXPECT_NE(spans[0].thread, spans[1].thread);
}

// A TaskScope is a job boundary: inside an open span, a span opened under
// it is a root carrying the scope's request; closing it brings back the
// enclosing span as parent and the enclosing request.
TEST(Obs, TaskScopeReRootsSpansAndStampsRequest) {
  EnabledScope on(true);
  Tracer tracer;
  EXPECT_EQ(obs::current_request_id(), 0u);
  {
    ScopedSpan outer("task.outer", tracer);
    {
      const obs::TaskScope task(5);
      EXPECT_EQ(obs::current_request_id(), 5u);
      ScopedSpan job("task.job", tracer);
      {
        const obs::TaskScope nested(6);
        EXPECT_EQ(obs::current_request_id(), 6u);
        ScopedSpan inner("task.nested", tracer);
      }
      EXPECT_EQ(obs::current_request_id(), 5u);
      ScopedSpan child("task.job.child", tracer);
    }
    EXPECT_EQ(obs::current_request_id(), 0u);
    ScopedSpan after("task.after", tracer);
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[0].name, "task.outer");
  EXPECT_EQ(spans[1].name, "task.job");
  EXPECT_EQ(spans[2].name, "task.nested");
  EXPECT_EQ(spans[3].name, "task.job.child");
  EXPECT_EQ(spans[4].name, "task.after");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].request, 0u);
  EXPECT_EQ(spans[1].parent, 0u);  // a root, though task.outer is open
  EXPECT_EQ(spans[1].request, 5u);
  EXPECT_EQ(spans[2].parent, 0u);
  EXPECT_EQ(spans[2].request, 6u);
  EXPECT_EQ(spans[3].parent, spans[1].id);
  EXPECT_EQ(spans[3].request, 5u);  // the nested scope restored 5
  EXPECT_EQ(spans[4].parent, spans[0].id);
  EXPECT_EQ(spans[4].request, 0u);
}

// Records are fixed-size and hold no heap name, so the cap bounds the
// tracer's memory whatever the labels; spans past it are only counted.
TEST(Obs, TracerCapCountsDroppedSpans) {
  EnabledScope on(true);
  Tracer tracer;
  for (std::size_t i = 0; i < Tracer::max_spans + 5; ++i)
    ScopedSpan span("cap.a_label_longer_than_any_small_string_buffer", tracer);
  EXPECT_EQ(tracer.dropped(), 5u);
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), Tracer::max_spans);
  EXPECT_EQ(spans.back().name,
            "cap.a_label_longer_than_any_small_string_buffer");
}

TEST(Obs, TracerClearResetsIdsAndEpoch) {
  EnabledScope on(true);
  Tracer tracer;
  { ScopedSpan span("before", tracer); }
  ASSERT_EQ(tracer.spans().size(), 1u);
  tracer.clear();
  EXPECT_TRUE(tracer.spans().empty());
  { ScopedSpan span("after", tracer); }
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].id, 1u);  // ids restart
}

TEST(Obs, ExportJsonHasRequiredShape) {
  EnabledScope on(true);
  Registry registry;
  registry.counter("c.one").add(3);
  registry.gauge("g.two").set(-4);
  registry.histogram("h.three", {0.5, 1.0}).record(0.75);
  Tracer tracer;
  { ScopedSpan span("spanned \"quote\"", tracer); }
  const std::string json = obs::export_json(registry, tracer);
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"c.one\":3"), std::string::npos);
  EXPECT_NE(json.find("\"g.two\":{\"value\":-4,\"max\":0}"),
            std::string::npos);
  EXPECT_NE(json.find("\"h.three\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"le\":[0.5,1]"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[0,1,0]"), std::string::npos);
  EXPECT_NE(json.find("\\\"quote\\\""), std::string::npos);  // escaping
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
}

TEST(Obs, SummaryLineReportsCacheRateAndPruning) {
  EnabledScope on(true);
  Registry registry;
  registry.counter("cache.feature_hits").add(3);
  registry.counter("cache.outcome_hits").add(1);
  registry.counter("cache.feature_misses").add(2);
  registry.counter("cache.outcome_misses").add(2);
  registry.counter("pipeline.candidates_stage1").add(100);
  registry.counter("pipeline.candidates_pruned").add(40);
  const std::string line = obs::summary_line(registry);
  EXPECT_NE(line.find("4/8 hits (50.0%)"), std::string::npos) << line;
  EXPECT_NE(line.find("100 -> 60 (40 pruned)"), std::string::npos) << line;
}

// Fuzz-style table over the JSON parser's edge cases: the parser fronts
// every wire payload the daemon accepts, so its rejects must be clean
// (nullopt, never a throw or over-read) and its accepts must decode
// exactly. Each row is one document plus the expected accept/reject.
TEST(Obs, JsonParserEdgeCaseTable) {
  struct Case {
    const char* name;
    std::string text;
    bool ok;
  };
  // Depth-limit probes: max_depth is 64, so 64 nested arrays parse and 65
  // must be refused (bounded recursion is the anti-stack-smash contract).
  std::string nested_ok, nested_deep;
  for (int i = 0; i < 64; ++i) nested_ok += '[';
  nested_deep = nested_ok + '[';
  for (int i = 0; i < 64; ++i) nested_ok += ']';
  for (int i = 0; i < 65; ++i) nested_deep += ']';

  const std::vector<Case> cases = {
      {"nested-at-limit", nested_ok, true},
      {"nested-past-limit", nested_deep, false},
      {"unicode-escape", "{\"k\":\"a\\u0041\\u00e9\\u20ac\"}", true},
      {"unicode-truncated", "{\"k\":\"\\u00\"}", false},
      {"unicode-bad-hex", "{\"k\":\"\\u00zz\"}", false},
      {"unknown-escape", "{\"k\":\"\\x41\"}", false},
      {"raw-control-char", std::string("{\"k\":\"a\tb\"}"), false},
      {"unterminated-string", "{\"k\":\"abc", false},
      {"truncated-object", "{\"k\":1,", false},
      {"truncated-array", "[1,2,", false},
      {"bare-prefix", "{\"k\"", false},
      {"missing-colon", "{\"k\" 1}", false},
      {"trailing-garbage", "{\"k\":1}x", false},
      {"two-documents", "{} {}", false},
      {"empty-input", "", false},
      {"whitespace-only", "  \n\t ", false},
      {"duplicate-keys", "{\"k\":1,\"k\":2}", true},
      {"number-malformed", "{\"k\":1..5}", false},
      {"number-bare-minus", "{\"k\":-}", false},
      {"deep-mixed", "{\"a\":[{\"b\":[null,true,false,1e3]}]}", true},
  };
  for (const Case& c : cases) {
    const auto doc = json::parse(c.text);
    EXPECT_EQ(doc.has_value(), c.ok) << c.name << ": " << c.text;
  }

  // Accepted documents must also decode to the right values, not merely
  // parse. \uXXXX decodes as UTF-8; duplicate keys keep the last value
  // (std::map insert-or-assign semantics — part of the wire contract).
  const auto unicode = json::parse("{\"k\":\"a\\u0041\\u00e9\\u20ac\"}");
  ASSERT_TRUE(unicode.has_value());
  EXPECT_EQ(unicode->get("k").as_string(), "aA\xC3\xA9\xE2\x82\xAC");
  const auto dup = json::parse("{\"k\":1,\"k\":2}");
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(dup->get("k").as_number(), 2.0);
  const auto at_limit = json::parse(nested_ok);
  ASSERT_TRUE(at_limit.has_value());
  EXPECT_EQ(at_limit->kind(), json::Value::Kind::array);
}

}  // namespace
}  // namespace patchecko
