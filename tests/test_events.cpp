// Tests for the decision-provenance layer (src/obs): the structured event
// ring (per-thread sequence continuity under contention, exact overflow
// accounting, the no-op contract), the JSON parser, decision-record
// round-tripping including non-finite distances, explain_text rendering,
// and the Chrome trace export shape.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/decision.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace patchecko {
namespace {

using obs::Event;
using obs::EventLog;
using obs::EventsEnabledScope;
using obs::Field;
using obs::Severity;

TEST(Events, EmitRecordsOrderedSequencesAndFields) {
  EventsEnabledScope on(true);
  EventLog log;
  log.emit(Severity::info, "first", {Field::u64("n", 7)});
  log.emit(Severity::warn, "second");
  log.emit(Severity::debug, "third",
           {Field::text("why", "crash"), Field::f64("score", 0.5)});
  const std::vector<Event> events = log.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(log.emitted(), 3u);
  EXPECT_EQ(log.overflowed(), 0u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);         // global order, 1-based
    EXPECT_EQ(events[i].thread_seq, i + 1);  // single thread: identical
    EXPECT_GE(events[i].t_seconds, 0.0);
  }
  EXPECT_EQ(events[0].name, "first");
  EXPECT_EQ(events[1].severity, Severity::warn);
  ASSERT_EQ(events[2].fields.size(), 2u);
  EXPECT_EQ(events[2].fields[0].s, "crash");
  EXPECT_DOUBLE_EQ(events[2].fields[1].f, 0.5);
}

TEST(Events, DisabledEmitIsANoOp) {
  EventsEnabledScope off(false);
  EventLog log;
  log.emit(Severity::error, "dropped", {Field::u64("n", 1)});
  EXPECT_EQ(log.emitted(), 0u);
  EXPECT_EQ(log.overflowed(), 0u);
  EXPECT_TRUE(log.events().empty());
  // The event flag is independent of the metrics flag.
  obs::EnabledScope metrics_on(true);
  log.emit(Severity::error, "still dropped");
  EXPECT_TRUE(log.events().empty());
}

TEST(Events, ConcurrentEmittersKeepGapFreePerThreadSequences) {
  EventsEnabledScope on(true);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 500;  // well below the ring cap
  EventLog log;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&log, t] {
      for (std::size_t i = 0; i < kPerThread; ++i)
        log.emit(Severity::info, "worker",
                 {Field::u64("origin", t), Field::u64("n", i)});
    });
  for (std::thread& thread : threads) thread.join();

  const std::vector<Event> events = log.events();
  ASSERT_EQ(events.size(), kThreads * kPerThread);  // nothing lost below cap
  EXPECT_EQ(log.emitted(), kThreads * kPerThread);
  EXPECT_EQ(log.overflowed(), 0u);

  // Global sequence is a permutation-free 1..N in retained (oldest-first)
  // order; per-thread sequences are each exactly 1..kPerThread with no gap.
  std::map<std::uint32_t, std::uint64_t> last_thread_seq;
  std::set<std::uint64_t> global_seqs;
  for (const Event& event : events) {
    EXPECT_EQ(event.seq, events[0].seq + global_seqs.size());
    global_seqs.insert(event.seq);
    EXPECT_EQ(event.thread_seq, ++last_thread_seq[event.thread]);
  }
  ASSERT_EQ(last_thread_seq.size(), kThreads);
  for (const auto& [thread, last] : last_thread_seq)
    EXPECT_EQ(last, kPerThread) << "thread ordinal " << thread;
}

TEST(Events, RingOverflowDropsOldestAndCountsExactly) {
  EventsEnabledScope on(true);
  constexpr std::size_t kCapacity = 16;
  constexpr std::size_t kEmitted = 41;
  EventLog log(kCapacity);
  for (std::size_t i = 0; i < kEmitted; ++i)
    log.emit(Severity::info, "e" + std::to_string(i));
  EXPECT_EQ(log.emitted(), kEmitted);
  EXPECT_EQ(log.overflowed(), kEmitted - kCapacity);
  const std::vector<Event> events = log.events();
  ASSERT_EQ(events.size(), kCapacity);
  // The survivors are the *newest* kCapacity events, oldest-first.
  for (std::size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(events[i].seq, kEmitted - kCapacity + i + 1);
    EXPECT_EQ(events[i].name,
              "e" + std::to_string(kEmitted - kCapacity + i));
  }
}

TEST(Events, ClearResetsSequencesAndCounters) {
  EventsEnabledScope on(true);
  EventLog log(4);
  for (int i = 0; i < 9; ++i) log.emit(Severity::info, "before");
  log.clear();
  EXPECT_EQ(log.emitted(), 0u);
  EXPECT_EQ(log.overflowed(), 0u);
  EXPECT_TRUE(log.events().empty());
  log.emit(Severity::info, "after");
  const std::vector<Event> events = log.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].thread_seq, 1u);
}

TEST(Events, JsonlLineHasTypedFieldsAndEscapes) {
  EventsEnabledScope on(true);
  EventLog log;
  log.emit(Severity::warn, "quote\"name",
           {Field::u64("u", 3), Field::i64("i", -4),
            Field::f64("f", 0.25), Field::text("s", "a\nb"),
            Field::f64("bad", std::numeric_limits<double>::quiet_NaN())});
  const std::vector<Event> events = log.events();
  ASSERT_EQ(events.size(), 1u);
  const std::string line = obs::event_jsonl_line(events[0]);
  EXPECT_NE(line.find("\"type\":\"event\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"name\":\"quote\\\"name\""), std::string::npos);
  EXPECT_NE(line.find("\"sev\":\"warn\""), std::string::npos);
  EXPECT_NE(line.find("\"u\":3"), std::string::npos);
  EXPECT_NE(line.find("\"i\":-4"), std::string::npos);
  EXPECT_NE(line.find("\"f\":0.25"), std::string::npos);
  EXPECT_NE(line.find("\"s\":\"a\\nb\""), std::string::npos);
  EXPECT_NE(line.find("\"bad\":null"), std::string::npos);
  // The line must itself parse as one JSON object.
  const auto value = obs::json::parse(line);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->get("type").as_string(), "event");
  EXPECT_EQ(value->get("fields").get("u").as_number(0), 3.0);
}

TEST(Json, ParsesScalarsContainersAndEscapes) {
  const auto value = obs::json::parse(
      "{\"a\":[1,-2.5,true,false,null],\"s\":\"x\\u0041\\n\","
      "\"o\":{\"k\":3}}");
  ASSERT_TRUE(value.has_value());
  const auto& array = value->get("a").as_array();
  ASSERT_EQ(array.size(), 5u);
  EXPECT_EQ(array[0].as_number(0), 1.0);
  EXPECT_EQ(array[1].as_number(0), -2.5);
  EXPECT_TRUE(array[2].as_bool());
  EXPECT_FALSE(array[3].as_bool());
  EXPECT_TRUE(array[4].is_null());
  EXPECT_EQ(value->get("s").as_string(), "xA\n");
  EXPECT_EQ(value->get("o").get("k").as_number(0), 3.0);
  EXPECT_TRUE(value->get("absent").is_null());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(obs::json::parse("").has_value());
  EXPECT_FALSE(obs::json::parse("{").has_value());
  EXPECT_FALSE(obs::json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(obs::json::parse("[1,]").has_value());
  EXPECT_FALSE(obs::json::parse("\"unterminated").has_value());
  EXPECT_FALSE(obs::json::parse("nulx").has_value());
  EXPECT_FALSE(obs::json::parse("{} trailing").has_value());  // garbage after
}

// append_exact must write the bytes of printf's "%.17g" for every double:
// canonical reports, metrics exports and corpus-store keys all depend on it.
TEST(Json, ExactWriterMatchesPrintf) {
  const auto printf_17g = [](double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return std::string(buf);
  };
  const auto exact = [](double value) {
    std::string out;
    obs::json::append_exact(out, value);
    return out;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(exact(inf), "inf");
  EXPECT_EQ(exact(-inf), "-inf");
  EXPECT_EQ(exact(nan), "nan");
  EXPECT_EQ(exact(std::copysign(nan, -1.0)), "-nan");
  const double specials[] = {0.0,
                             -0.0,
                             inf,
                             -inf,
                             nan,
                             std::copysign(nan, -1.0),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::epsilon(),
                             0.1,
                             1e16,
                             1e17,
                             123456789012345678.0,
                             1e-5,
                             0.0001};
  for (const double value : specials)
    EXPECT_EQ(exact(value), printf_17g(value)) << printf_17g(value);

  std::mt19937_64 rng(0x5eed);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t bits = rng();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    if (exact(value) != printf_17g(value) && ++mismatches <= 5)
      ADD_FAILURE() << "bits " << bits << ": " << exact(value) << " vs "
                    << printf_17g(value);
  }
  EXPECT_EQ(mismatches, 0u);

  std::string out = "x=";
  obs::json::append_double(out, 0.5);
  out += ',';
  obs::json::append_double(out, -inf);
  out += ',';
  obs::json::append_double(out, nan);
  EXPECT_EQ(out, "x=0.5,null,null");

  out.clear();
  obs::json::append_all(out, "a", std::string("b"), 'c', -3,
                        std::uint8_t{7}, std::uint64_t{1} << 63, 0.1, 0.5f);
  EXPECT_EQ(out, "abc-379223372036854775808" + printf_17g(0.1) + "0.5");
}

obs::DecisionRecord sample_record() {
  obs::DecisionRecord record;
  record.cve_id = "CVE-2020-0001";
  record.library = "libexample.so";

  obs::CandidateRecord kept;
  kept.function_index = 12;
  kept.dl_score = 0.875;
  kept.validated = true;
  kept.env_distances = {0.25, std::numeric_limits<double>::quiet_NaN(), 0.5};
  kept.distance = 0.4375;
  kept.rank = 1;
  obs::CandidateRecord pruned;
  pruned.function_index = 31;
  pruned.dl_score = 0.5;
  pruned.validated = false;
  pruned.crash_env = 2;
  pruned.distance = std::numeric_limits<double>::infinity();

  record.from_vulnerable.threshold = 0.4;
  record.from_vulnerable.minkowski_p = 3.0;
  record.from_vulnerable.total = 64;
  record.from_vulnerable.executed = 1;
  record.from_vulnerable.candidates = {kept, pruned};
  record.from_patched = record.from_vulnerable;

  obs::PatchCandidateRecord pool;
  pool.function_index = 12;
  pool.distance_vulnerable = 0.1;
  pool.distance_patched = 0.9;
  pool.effect_matches_vulnerable = 3;
  pool.effect_matches_patched = 1;
  pool.chosen = true;
  record.pool = {pool};
  record.matched_function = 12;
  record.has_verdict = true;
  record.verdict_patched = false;
  record.votes_vulnerable = 6.5;
  record.votes_patched = 2.0;
  record.dynamic_distance_vulnerable = 0.1;
  record.dynamic_distance_patched = 0.9;
  record.evidence = {"libcall votes 3 vs 1 -> vulnerable"};
  return record;
}

TEST(Decision, JsonlRoundTripIsByteIdenticalIncludingNonFinite) {
  const obs::DecisionRecord record = sample_record();
  const std::string line = obs::decision_jsonl_line(record);
  EXPECT_NE(line.find("\"type\":\"decision\""), std::string::npos);
  EXPECT_NE(line.find("\"cve\":\"CVE-2020-0001\""), std::string::npos);
  // NaN env distance and +inf aggregate render as null...
  EXPECT_NE(line.find("[0.25,null,0.5]"), std::string::npos) << line;
  const auto parsed = obs::parse_decision_line(line);
  ASSERT_TRUE(parsed.has_value());
  // ...and parse back to NaN / +inf so a re-render is byte-identical.
  ASSERT_EQ(parsed->from_vulnerable.candidates.size(), 2u);
  EXPECT_TRUE(std::isnan(parsed->from_vulnerable.candidates[0]
                             .env_distances[1]));
  EXPECT_TRUE(std::isinf(parsed->from_vulnerable.candidates[1].distance));
  EXPECT_EQ(obs::decision_jsonl_line(*parsed), line);
}

TEST(Decision, ParseRejectsNonDecisionAndMalformedLines) {
  EXPECT_FALSE(obs::parse_decision_line("").has_value());
  EXPECT_FALSE(obs::parse_decision_line("not json").has_value());
  EXPECT_FALSE(obs::parse_decision_line(
                   "{\"type\":\"meta\",\"format\":\"patchecko-provenance\"}")
                   .has_value());
  EXPECT_FALSE(obs::parse_decision_line(
                   "{\"type\":\"event\",\"name\":\"pipeline.stage1\"}")
                   .has_value());
}

TEST(Decision, UnreadableDecisionLinesAreStillDecisionLines) {
  // `explain` counts the lines that are decisions but do not parse (another
  // format version), so an operator can tell them from a wrong CVE id.
  // A stage in the removed `verify` prefilter mode.
  const std::string old_format =
      R"({"type":"decision","cve":"CVE-1","from_vulnerable":{"prefilter":2}})";
  EXPECT_FALSE(obs::parse_decision_line(old_format).has_value());
  EXPECT_TRUE(obs::is_decision_line(old_format));
  EXPECT_TRUE(obs::is_decision_line(
      obs::decision_jsonl_line(obs::DecisionRecord{})));
  EXPECT_FALSE(obs::is_decision_line(""));
  EXPECT_FALSE(obs::is_decision_line("not json"));
  EXPECT_FALSE(obs::is_decision_line(
      "{\"type\":\"meta\",\"format\":\"patchecko-provenance\"}"));
  EXPECT_FALSE(obs::is_decision_line(
      "{\"type\":\"event\",\"name\":\"pipeline.stage1\"}"));
}

TEST(Decision, ParseRejectsAStageOfAnUnknownPrefilterMode) {
  // A decision line as a scan in the removed `verify` prefilter mode wrote
  // it (`"prefilter":2`). Its `prefiltered` candidates never reached stage
  // 2; read as a known mode, `explain` would render them as "pruned: failed
  // execution validation". It must not parse.
  const std::string verify_line =
      R"({"type":"decision","cve":"CVE-2017-13210","library":"libminijail",)"
      R"("library_missing":false,"stalled":false,"from_vulnerable":)"
      R"({"threshold":0.40000000596046448,"minkowski_p":3,"total":24,)"
      R"("executed":1,"prefilter":2,"prefilter_shortlist":4,)"
      R"("prefilter_exact":3,"prefilter_recalled":1,"candidates":[)"
      R"({"function":2,"dl_score":0.45197141170501709,"validated":false,)"
      R"("crash_env":-1,"prefiltered":true,"env_distances":[],"distance":0,)"
      R"("rank":-1},{"function":10,"dl_score":0.47590339183807373,)"
      R"("validated":false,"crash_env":-1,"prefiltered":true,)"
      R"("env_distances":[],"distance":0,"rank":-1},{"function":19,)"
      R"("dl_score":0.88886141777038574,"validated":true,"crash_env":-1,)"
      R"("prefiltered":false,"env_distances":[3.8258623655447779,)"
      R"(3.8258623655447779,3.8258623655447779,3.8258623655447779,)"
      R"(3.8258623655447779,3.8258623655447779],)"
      R"("distance":3.8258623655447779,"rank":1}]},"from_patched":)"
      R"({"threshold":0.40000000596046448,"minkowski_p":3,"total":24,)"
      R"("executed":1,"prefilter":2,"prefilter_shortlist":4,)"
      R"("prefilter_exact":2,"prefilter_recalled":1,"candidates":[)"
      R"({"function":10,"dl_score":0.61693471670150757,"validated":false,)"
      R"("crash_env":-1,"prefiltered":true,"env_distances":[],"distance":0,)"
      R"("rank":-1},{"function":19,"dl_score":0.86913245916366577,)"
      R"("validated":true,"crash_env":-1,"prefiltered":false,)"
      R"("env_distances":[0,0,0,0,0,0],"distance":0,"rank":1}]},"pool":[)"
      R"({"function":19,"dist_vulnerable":3.8258623655447779,)"
      R"("dist_patched":0,"effects_vulnerable":6,"effects_patched":6,)"
      R"("chosen":true}],"matched_function":19,"verdict":{"patched":true,)"
      R"("votes_vulnerable":0,"votes_patched":31.5,)"
      R"("dyn_dist_vulnerable":3.8258623655447779,"dyn_dist_patched":0,)"
      R"("evidence":["guard count 4 (vulnerable=3, patched=4) -> patched",)"
      R"("dynamic distance 3.82586 vs 0 -> patched"]}})";
  EXPECT_FALSE(obs::parse_decision_line(verify_line).has_value());

  // The same line under a known mode parses: the mode alone rejects it.
  std::string on_line = verify_line;
  for (std::size_t at = on_line.find("\"prefilter\":2");
       at != std::string::npos; at = on_line.find("\"prefilter\":2", at))
    on_line.replace(at, 13, "\"prefilter\":1");
  const auto parsed = obs::parse_decision_line(on_line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->from_vulnerable.prefilter, 1u);
  EXPECT_EQ(parsed->from_patched.candidates.size(), 2u);
}

TEST(Decision, LibraryMissingRoundTrips) {
  obs::DecisionRecord record;
  record.cve_id = "CVE-2020-0002";
  record.library = "libgone.so";
  record.library_missing = true;
  const std::string line = obs::decision_jsonl_line(record);
  const auto parsed = obs::parse_decision_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->library_missing);
  EXPECT_FALSE(parsed->has_verdict);
  EXPECT_FALSE(parsed->matched_function.has_value());
  EXPECT_EQ(obs::decision_jsonl_line(*parsed), line);
}

TEST(Decision, ExplainTextRendersTheFullChain) {
  const std::string text = obs::explain_text(sample_record());
  EXPECT_NE(text.find("CVE-2020-0001"), std::string::npos) << text;
  EXPECT_NE(text.find("libexample.so"), std::string::npos);
  // Stage 1: score vs threshold for both query directions.
  EXPECT_NE(text.find("0.4"), std::string::npos);
  EXPECT_NE(text.find("0.875"), std::string::npos);
  // Stage 2: crash prune reason, rank, and the NaN env slot.
  EXPECT_NE(text.find("crashed in environment 2"), std::string::npos);
  EXPECT_NE(text.find("rank=1"), std::string::npos);
  EXPECT_NE(text.find("n/a"), std::string::npos);
  // Differential stage: pool choice and the verdict with its evidence.
  EXPECT_NE(text.find("chosen"), std::string::npos);
  EXPECT_NE(text.find("VULNERABLE"), std::string::npos);
  EXPECT_NE(text.find("libcall votes 3 vs 1"), std::string::npos);
}

TEST(Decision, ExplainTextForMissingLibrary) {
  obs::DecisionRecord record;
  record.cve_id = "CVE-2020-0002";
  record.library = "libgone.so";
  record.library_missing = true;
  const std::string text = obs::explain_text(record);
  EXPECT_NE(text.find("not present"), std::string::npos) << text;
}

TEST(ChromeTrace, ExportsSpansAndInstantEvents) {
  obs::EnabledScope metrics_on(true);
  EventsEnabledScope events_on(true);
  obs::Tracer tracer;
  EventLog log;
  {
    obs::ScopedSpan outer("scan", tracer);
    obs::ScopedSpan inner("detect", tracer);
    log.emit(Severity::info, "pipeline.ranked", {Field::u64("kept", 2)});
  }
  const std::string json = obs::chrome_trace_json(tracer, &log);
  const auto value = obs::json::parse(json);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->get("displayTimeUnit").as_string(), "ms");
  const auto& entries = value->get("traceEvents").as_array();
  ASSERT_EQ(entries.size(), 3u);  // two spans + one instant
  std::size_t spans = 0, instants = 0;
  for (const auto& entry : entries) {
    const std::string ph = entry.get("ph").as_string();
    if (ph == "X") {
      ++spans;
      EXPECT_GE(entry.get("dur").as_number(-1), 0.0);
      EXPECT_EQ(entry.get("pid").as_number(0), 1.0);
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(entry.get("s").as_string(), "t");
      EXPECT_EQ(entry.get("name").as_string(), "pipeline.ranked");
      EXPECT_EQ(entry.get("args").get("kept").as_number(0), 2.0);
    }
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(instants, 1u);
}

TEST(ChromeTrace, MetricsJsonReportsEventRingCounters) {
  obs::EnabledScope metrics_on(true);
  EventsEnabledScope events_on(true);
  obs::Registry registry;
  registry.counter("c").add(1);
  obs::Tracer tracer;
  EventLog log(4);
  for (int i = 0; i < 6; ++i) log.emit(Severity::info, "x");
  const std::string json = obs::export_json(registry, tracer, &log);
  const auto value = obs::json::parse(json);
  ASSERT_TRUE(value.has_value());
  const auto& events = value->get("events");
  EXPECT_EQ(events.get("emitted").as_number(0), 6.0);
  EXPECT_EQ(events.get("overflow").as_number(0), 2.0);
  EXPECT_EQ(events.get("retained").as_number(0), 4.0);
  const std::string summary = obs::summary_line(registry, &tracer, &log);
  EXPECT_NE(summary.find("2 events overwritten"), std::string::npos)
      << summary;
}

}  // namespace
}  // namespace patchecko
