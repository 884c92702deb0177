// Tests for the service-observability layer added around the daemon:
// sliding-window rollup semantics (slot expiry, lifetime totals, no-op
// mode), request-scoped context stamping of spans and events, the
// access-log line contract, the schema_version back-compat reader, and the
// deterministic `patchecko top` rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/rollup.h"
#include "obs/trace.h"
#include "service/access_log.h"
#include "service/top.h"

namespace patchecko {
namespace {

namespace json = obs::json;
using obs::Endpoint;
using obs::ManualClock;
using obs::Rollup;
using obs::RollupConfig;
using obs::RollupSnapshot;

TEST(Rollup, EndpointNamesRoundTripAndUnknownMapsToOther) {
  std::set<std::string> names;
  for (std::size_t e = 0; e < obs::kEndpointCount; ++e) {
    const auto endpoint = static_cast<Endpoint>(e);
    const std::string name(obs::endpoint_name(endpoint));
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(obs::endpoint_from_name(name), endpoint);
    names.insert(name);
  }
  EXPECT_EQ(names.size(), obs::kEndpointCount);  // names are distinct
  EXPECT_EQ(obs::endpoint_from_name("no-such-endpoint"), Endpoint::other);
  EXPECT_EQ(obs::endpoint_from_name(""), Endpoint::other);
}

RollupConfig manual_config(const ManualClock& clock) {
  RollupConfig config;
  config.window_seconds = 60.0;  // 12 slots of 5s each
  config.slots = 12;
  config.clock = &clock;
  config.latency_bounds = {0.1, 1.0};
  return config;
}

TEST(Rollup, WindowExpiresButLifetimeTotalsPersist) {
  ManualClock clock(100.0);
  Rollup rollup(manual_config(clock));
  rollup.record(Endpoint::scan, 0.05, 0.5, /*error=*/false);
  rollup.record(Endpoint::scan, 2.5, 0.0, /*error=*/true);
  rollup.record(Endpoint::ping, 0.2, 0.0, /*error=*/false);

  RollupSnapshot now = rollup.snapshot();
  const auto scan = static_cast<std::size_t>(Endpoint::scan);
  const auto ping = static_cast<std::size_t>(Endpoint::ping);
  EXPECT_EQ(now.window[scan].count, 2u);
  EXPECT_EQ(now.window[scan].errors, 1u);
  EXPECT_DOUBLE_EQ(now.window[scan].max_seconds, 2.5);
  EXPECT_DOUBLE_EQ(now.window[scan].queue_wait_max_seconds, 0.5);
  // Bounds {0.1, 1.0}: 0.05 -> bucket 0, 2.5 -> overflow.
  ASSERT_EQ(now.window[scan].latency_buckets.size(), 3u);
  EXPECT_EQ(now.window[scan].latency_buckets[0], 1u);
  EXPECT_EQ(now.window[scan].latency_buckets[1], 0u);
  EXPECT_EQ(now.window[scan].latency_buckets[2], 1u);
  EXPECT_EQ(now.window[ping].count, 1u);
  EXPECT_EQ(now.window[ping].latency_buckets[1], 1u);  // 0.2 in (0.1, 1]

  // Slide past the whole window: the windowed view drains, the lifetime
  // totals and high-water marks do not.
  clock.advance(61.0);
  RollupSnapshot later = rollup.snapshot();
  EXPECT_EQ(later.window[scan].count, 0u);
  EXPECT_EQ(later.window[ping].count, 0u);
  EXPECT_DOUBLE_EQ(later.window[scan].max_seconds, 0.0);
  EXPECT_EQ(later.totals[scan].count, 2u);
  EXPECT_EQ(later.totals[scan].errors, 1u);
  EXPECT_EQ(later.totals[ping].count, 1u);
  EXPECT_DOUBLE_EQ(later.queue_wait_high_water_seconds, 0.5);

  // New records land in the fresh window and keep accumulating totals.
  rollup.record(Endpoint::scan, 0.01, 0.0, false);
  RollupSnapshot fresh = rollup.snapshot();
  EXPECT_EQ(fresh.window[scan].count, 1u);
  EXPECT_EQ(fresh.totals[scan].count, 3u);
}

TEST(Rollup, PartialSlideKeepsRecentSlots) {
  ManualClock clock(0.0);
  Rollup rollup(manual_config(clock));
  rollup.record(Endpoint::status, 0.01, 0.0, false);  // slot 0
  clock.advance(30.0);
  rollup.record(Endpoint::status, 0.01, 0.0, false);  // slot 6
  clock.advance(45.0);  // t=75: slot 0 expired, slot 6 (30..35s) still in
  const RollupSnapshot snapshot = rollup.snapshot();
  const auto status = static_cast<std::size_t>(Endpoint::status);
  EXPECT_EQ(snapshot.window[status].count, 1u);
  EXPECT_EQ(snapshot.totals[status].count, 2u);
}

TEST(Rollup, DisabledRollupRecordsNothing) {
  ManualClock clock(0.0);
  RollupConfig config = manual_config(clock);
  config.enabled = false;
  Rollup rollup(config);
  EXPECT_FALSE(rollup.enabled());
  rollup.record(Endpoint::scan, 1.0, 1.0, true);
  rollup.observe_queue_depth(42);
  RollupSnapshot snapshot = rollup.snapshot();
  EXPECT_EQ(snapshot.window[0].count, 0u);
  EXPECT_EQ(snapshot.totals[0].count, 0u);
  EXPECT_EQ(snapshot.queue_depth_high_water, 0);

  // Flipping it on makes the same calls take effect.
  rollup.set_enabled(true);
  rollup.record(Endpoint::scan, 1.0, 1.0, true);
  rollup.observe_queue_depth(42);
  snapshot = rollup.snapshot();
  EXPECT_EQ(snapshot.totals[static_cast<std::size_t>(Endpoint::scan)].count,
            1u);
  EXPECT_EQ(snapshot.queue_depth_high_water, 42);
}

TEST(Rollup, QueueDepthHighWaterNeverRegresses) {
  ManualClock clock(0.0);
  Rollup rollup(manual_config(clock));
  rollup.observe_queue_depth(3);
  rollup.observe_queue_depth(7);
  rollup.observe_queue_depth(2);
  rollup.set_corpus_version(9);
  const RollupSnapshot snapshot = rollup.snapshot();
  EXPECT_EQ(snapshot.queue_depth_high_water, 7);
  EXPECT_EQ(snapshot.corpus_version, 9u);
}

TEST(Rollup, SnapshotJsonHasDocumentedShape) {
  ManualClock clock(5.0);
  Rollup rollup(manual_config(clock));
  rollup.set_corpus_version(3);
  rollup.record(Endpoint::scan, 0.05, 0.2, false);
  rollup.record(Endpoint::reload, 0.5, 0.0, true);
  const RollupSnapshot snapshot = rollup.snapshot();
  const std::string text = rollup_snapshot_json(snapshot);
  const auto parsed = json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->get("window_s").as_number(), 60.0);
  EXPECT_EQ(parsed->get("corpus_version").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(parsed->get("queue").get("wait_hwm_s").as_number(), 0.2);
  ASSERT_EQ(parsed->get("le").as_array().size(), 2u);
  const json::Value& endpoints = parsed->get("endpoints");
  // Every endpoint is present even when empty, in enum order.
  EXPECT_EQ(endpoints.as_object().size(), obs::kEndpointCount);
  EXPECT_EQ(endpoints.get("scan").get("count").as_number(), 1.0);
  EXPECT_EQ(endpoints.get("scan").get("buckets").as_array().size(), 3u);
  EXPECT_EQ(endpoints.get("reload").get("errors").as_number(), 1.0);
  EXPECT_EQ(endpoints.get("reload").get("total").get("errors").as_number(),
            1.0);
  EXPECT_EQ(endpoints.get("drain").get("count").as_number(), 0.0);
  // Deterministic rendering: same snapshot, same bytes (a fresh snapshot
  // would re-sample RSS).
  EXPECT_EQ(text, rollup_snapshot_json(snapshot));
}

TEST(Rollup, TaskScopeNestsAndStampsSpansAndEvents) {
  EXPECT_EQ(obs::current_request_id(), 0u);
  obs::EnabledScope metrics_on(true);
  obs::EventsEnabledScope events_on(true);
  obs::Tracer tracer;
  obs::EventLog log(16);
  {
    obs::TaskScope outer(7);
    EXPECT_EQ(obs::current_request_id(), 7u);
    {
      obs::ScopedSpan span("req.outer", tracer);
      log.emit(obs::Severity::info, "req.event");
    }
    {
      obs::TaskScope inner(9);  // nesting: inner id wins, then restores
      EXPECT_EQ(obs::current_request_id(), 9u);
      obs::ScopedSpan span("req.inner", tracer);
    }
    EXPECT_EQ(obs::current_request_id(), 7u);
  }
  EXPECT_EQ(obs::current_request_id(), 0u);
  { obs::ScopedSpan span("req.none", tracer); }

  const std::vector<obs::Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].request, 7u);
  EXPECT_EQ(spans[1].request, 9u);
  EXPECT_EQ(spans[2].request, 0u);
  const std::vector<obs::Event> events = log.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].request, 7u);
  const std::string line = obs::event_jsonl_line(events[0]);
  EXPECT_NE(line.find("\"req\":7"), std::string::npos) << line;
}

TEST(Rollup, SchemaVersionReaderPrefersExplicitKeyWithBackCompat) {
  const auto versioned = json::parse("{\"schema_version\":2,\"version\":1}");
  ASSERT_TRUE(versioned.has_value());
  EXPECT_EQ(json::schema_version(*versioned), 2);
  const auto legacy = json::parse("{\"version\":1}");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(json::schema_version(*legacy), 1);
  const auto bare = json::parse("{}");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(json::schema_version(*bare), 1);
  EXPECT_EQ(json::schema_version(*bare, /*fallback=*/4), 4);
  const auto mistyped = json::parse("{\"schema_version\":\"two\"}");
  ASSERT_TRUE(mistyped.has_value());
  EXPECT_EQ(json::schema_version(*mistyped, /*fallback=*/1), 1);
}

TEST(Rollup, AccessLineHasExactKeyOrderAndNullSemantics) {
  service::AccessEntry entry;
  entry.id = 12;
  entry.op = "scan";
  entry.status = 200;
  entry.outcome = "ok";
  entry.queue_wait_s = 0.25;
  entry.service_s = 1.5;
  entry.corpus_version = 2;
  entry.cache_hits = 3;
  entry.cache_misses = 1;
  entry.has_cache = true;
  entry.bytes_in = 100;
  entry.bytes_out = 200;
  const std::string line = service::access_jsonl_line(entry);
  EXPECT_EQ(line,
            "{\"type\":\"access\",\"id\":12,\"op\":\"scan\",\"status\":200,"
            "\"outcome\":\"ok\",\"queue_wait_s\":0.25,\"service_s\":1.5,"
            "\"corpus_version\":2,\"cache_hits\":3,\"cache_misses\":1,"
            "\"cache_hit_ratio\":0.75,\"bytes_in\":100,\"bytes_out\":200}");

  // Requests that touched no cache render an explicit null, never an
  // omitted key.
  service::AccessEntry bare;
  bare.op = "ping";
  const std::string bare_line = service::access_jsonl_line(bare);
  EXPECT_NE(bare_line.find("\"cache_hit_ratio\":null"), std::string::npos);
  const auto parsed = json::parse(bare_line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->get("cache_hit_ratio").is_null());

  // Cache counters present but zero lookups: still null, not 0/0.
  service::AccessEntry idle;
  idle.has_cache = true;
  EXPECT_NE(service::access_jsonl_line(idle).find("\"cache_hit_ratio\":null"),
            std::string::npos);
}

TEST(Rollup, RenderTopIsDeterministicAndDegradesGracefully) {
  const char* kStats =
      "{\"type\":\"stats\",\"schema_version\":1,\"uptime_s\":12.5,"
      "\"corpus\":{\"version\":2,\"cves\":40},"
      "\"queue\":{\"depth\":1,\"active\":1,\"capacity\":64,\"admitted\":9,"
      "\"rejected\":1,\"completed\":7},"
      "\"images\":{\"entries\":2,\"capacity\":4,\"bytes\":2048,"
      "\"hits\":5,\"misses\":2,\"evictions\":0},"
      "\"rollup\":{\"window_s\":60,\"uptime_s\":12.5,\"corpus_version\":2,"
      "\"queue\":{\"depth_hwm\":3,\"wait_hwm_s\":0.5},\"rss_kb\":-1,"
      "\"le\":[0.1,1.0],"
      "\"endpoints\":{\"scan\":{\"count\":4,\"errors\":1,\"max_s\":1.25,"
      "\"wait_max_s\":0.5,\"buckets\":[1,2,1],"
      "\"total\":{\"count\":9,\"errors\":2}}}}}";
  const auto stats = json::parse(kStats);
  ASSERT_TRUE(stats.has_value());
  const std::string first = service::render_top(*stats);
  EXPECT_EQ(first, service::render_top(*stats));  // pure function
  EXPECT_NE(first.find("patchecko daemon"), std::string::npos) << first;
  EXPECT_NE(first.find("corpus v2 (40 cves)"), std::string::npos) << first;
  EXPECT_NE(first.find("depth_hwm 3"), std::string::npos) << first;
  EXPECT_NE(first.find("images  entries 2/4  2 kB  hits 5/7  evictions 0\n"),
            std::string::npos)
      << first;
  EXPECT_NE(first.find("scan"), std::string::npos);
  EXPECT_NE(first.find("endpoint"), std::string::npos);  // header row
  EXPECT_EQ(first.back(), '\n');

  // Missing fields degrade to zeros/dashes instead of failing.
  const auto empty = json::parse("{}");
  ASSERT_TRUE(empty.has_value());
  const std::string degraded = service::render_top(*empty);
  EXPECT_FALSE(degraded.empty());
  EXPECT_NE(degraded.find("patchecko daemon"), std::string::npos);
  EXPECT_EQ(degraded.find("images"), std::string::npos);  // older daemon
}

}  // namespace
}  // namespace patchecko
