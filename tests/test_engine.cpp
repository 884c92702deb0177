// Tests for the batch scan engine: the work-stealing pool, the
// content-addressed cache ((de)serialization, key derivation, invalidation),
// scheduler dependency ordering, and end-to-end determinism across job
// counts and cache temperatures.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "blob/blob_store.h"
#include "core/pipeline.h"
#include "dl/trainer.h"
#include "engine/cache.h"
#include "engine/engine.h"
#include "engine/thread_pool.h"
#include "firmware/firmware.h"
#include "obs/decision.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace patchecko {
namespace {

// Small shared universe: a lightly trained model plus a scaled-down corpus.
// Model quality is irrelevant here (the pipeline tests cover accuracy);
// the engine tests only need deterministic, realistically shaped inputs.
struct EngineUniverse {
  SimilarityModel model;
  std::unique_ptr<EvalCorpus> corpus;
  std::unique_ptr<CveDatabase> database;
  FirmwareImage firmware;
  std::vector<std::string> some_cves;  // 4 CVEs across >= 2 libraries

  EngineUniverse() {
    TrainerConfig trainer;
    trainer.dataset.library_count = 16;
    trainer.dataset.functions_per_library = 12;
    trainer.epochs = 6;
    model = train_similarity_model(trainer).model;

    EvalConfig eval;
    eval.scale = 0.03;
    corpus = std::make_unique<EvalCorpus>(eval);
    database = std::make_unique<CveDatabase>(*corpus, DatabaseConfig{});
    firmware = corpus->build_firmware(android_things_device());
    for (const CveEntry& entry : database->entries()) {
      if (some_cves.size() == 4) break;
      some_cves.push_back(entry.spec.cve_id);
    }
  }

  ScanRequest request() const {
    ScanRequest request;
    request.model = &model;
    request.firmware = &firmware;
    request.database = database.get();
    request.cve_ids = some_cves;
    return request;
  }
};

const EngineUniverse& universe() {
  static EngineUniverse instance;
  return instance;
}

/// A unique, cleaned-up-on-entry scratch directory per test name.
std::string scratch_dir(const std::string& name) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("pk_engine_test_" + name);
  std::filesystem::remove_all(path);
  return path.string();
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  TaskGroup group(pool);
  for (int i = 0; i < 200; ++i)
    group.run([&total] { total.fetch_add(1); });
  group.wait();
  EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPool, TaskGroupRethrowsLowestSubmissionIndex) {
  ThreadPool pool(4);
  for (int repeat = 0; repeat < 10; ++repeat) {
    TaskGroup group(pool);
    for (int i = 0; i < 8; ++i)
      group.run([i] {
        if (i >= 2) throw std::runtime_error(std::to_string(i));
      });
    try {
      group.wait();
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "2");
    }
  }
}

TEST(ThreadPool, WaitHelpsDrainNestedWork) {
  // Saturate a tiny pool with tasks that themselves fan out; wait() must
  // help execute instead of deadlocking on the busy workers.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 8; ++i)
    outer.run([&pool, &total] {
      TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j)
        inner.run([&total] { total.fetch_add(1); });
      inner.wait();
    });
  outer.wait();
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, StressAccountingBalancesLocalPopsAndSteals) {
  // 64 jobs with deterministic pseudo-random sleeps on a 4-worker pool.
  // Every submitted task is popped exactly once — either by its owner
  // (local pop) or by a stealing/helping thread — so after the drain:
  // submitted == local_pops + steals == completed, and the queue-depth
  // gauge is back where it started. gtest runs tests serially in one
  // process, so deltas on the global counters are race-free.
  const obs::EnabledScope on(true);
  obs::Registry& registry = obs::Registry::global();
  const std::uint64_t submitted0 = registry.counter("pool.submitted").value();
  const std::uint64_t local0 = registry.counter("pool.local_pops").value();
  const std::uint64_t steals0 = registry.counter("pool.steals").value();
  const std::uint64_t completed0 = registry.counter("pool.completed").value();
  const std::int64_t depth0 = registry.gauge("pool.queue_depth").value();

  ThreadPool pool(4);
  std::mt19937 rng(20260806u);
  std::uniform_int_distribution<int> sleep_us(0, 400);
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  for (int i = 0; i < 64; ++i) {
    const int us = sleep_us(rng);
    group.run([us, &ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(us));
      ran.fetch_add(1);
    });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 64);

  const std::uint64_t local = registry.counter("pool.local_pops").value() -
                              local0;
  const std::uint64_t steals = registry.counter("pool.steals").value() -
                               steals0;
  EXPECT_EQ(registry.counter("pool.submitted").value() - submitted0, 64u);
  EXPECT_EQ(registry.counter("pool.completed").value() - completed0, 64u);
  EXPECT_EQ(local + steals, 64u);
  EXPECT_EQ(registry.gauge("pool.queue_depth").value(), depth0);
}

TEST(Cache, AccountingInvariantHoldsUnderRandomOperations) {
  // Property test: a deterministic pseudo-random put/get/invalidate
  // workload against a memory-only cache, checked against a reference
  // model (two key sets) and run twice — metrics enabled and disabled.
  // Invariants: every lookup outcome matches the model, hits + misses ==
  // lookups, and the observable trace is byte-identical both ways.
  const auto run_workload = [](bool metrics_on) {
    const obs::EnabledScope scope(metrics_on);
    obs::Registry& registry = obs::Registry::global();
    const std::uint64_t hits0 = registry.counter("cache.feature_hits").value() +
                                registry.counter("cache.outcome_hits").value();
    const std::uint64_t misses0 =
        registry.counter("cache.feature_misses").value() +
        registry.counter("cache.outcome_misses").value();
    const std::uint64_t evictions0 =
        registry.counter("cache.evictions").value();

    ResultCache cache;  // memory-only
    std::set<std::string> model_features, model_outcomes;
    std::uint64_t lookups = 0, expected_evictions = 0;
    std::mt19937 rng(1234u);
    std::uniform_int_distribution<int> op_dist(0, 99);
    std::uniform_int_distribution<int> key_dist(0, 15);
    std::string log;
    for (int step = 0; step < 2000; ++step) {
      const int op = op_dist(rng);
      const std::string key = "k" + std::to_string(key_dist(rng));
      if (op < 35) {
        ++lookups;
        const bool hit = cache.find_features(key).has_value();
        EXPECT_EQ(hit, model_features.count(key) > 0) << "step " << step;
        log += hit ? 'F' : 'f';
      } else if (op < 70) {
        ++lookups;
        const bool hit = cache.find_scan(key).has_value();
        EXPECT_EQ(hit, model_outcomes.count(key) > 0) << "step " << step;
        log += hit ? 'O' : 'o';
      } else if (op < 85) {
        cache.store_features(key, {StaticFeatureVector{}});
        model_features.insert(key);
        log += 's';
      } else if (op < 97) {
        ScanEntry scan;
        scan.report.cve_id = key;
        cache.store_scan(key, scan);
        model_outcomes.insert(key);
        log += 'S';
      } else {
        expected_evictions += model_features.size() + model_outcomes.size();
        cache.clear_memory();
        model_features.clear();
        model_outcomes.clear();
        log += 'x';
      }
    }
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits() + stats.misses(), lookups);
    // With metrics on, the global counters mirror the per-cache stats
    // exactly; with metrics off they must not move at all.
    const std::uint64_t hit_delta =
        registry.counter("cache.feature_hits").value() +
        registry.counter("cache.outcome_hits").value() - hits0;
    const std::uint64_t miss_delta =
        registry.counter("cache.feature_misses").value() +
        registry.counter("cache.outcome_misses").value() - misses0;
    const std::uint64_t evict_delta =
        registry.counter("cache.evictions").value() - evictions0;
    EXPECT_EQ(hit_delta, metrics_on ? stats.hits() : 0u);
    EXPECT_EQ(miss_delta, metrics_on ? stats.misses() : 0u);
    EXPECT_EQ(evict_delta, metrics_on ? expected_evictions : 0u);
    return log + "|" + std::to_string(stats.feature_hits) + "," +
           std::to_string(stats.feature_misses) + "," +
           std::to_string(stats.outcome_hits) + "," +
           std::to_string(stats.outcome_misses) + "," +
           std::to_string(stats.stores);
  };
  EXPECT_EQ(run_workload(true), run_workload(false));
}

TEST(Cache, FeatureSerializationRoundTripsByteIdentical) {
  const LibraryBinary library =
      universe().corpus->compile_for_device(0, android_things_device());
  const AnalyzedLibrary analyzed = analyze_library(library);
  ASSERT_FALSE(analyzed.features.empty());

  const std::vector<std::uint8_t> bytes =
      serialize_features(analyzed.features);
  const auto restored = deserialize_features(bytes);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), analyzed.features.size());
  for (std::size_t i = 0; i < restored->size(); ++i)
    for (std::size_t f = 0; f < static_feature_count; ++f)
      EXPECT_EQ((*restored)[i][f], analyzed.features[i][f]);
  EXPECT_EQ(serialize_features(*restored), bytes);
}

TEST(Cache, OutcomeSerializationRoundTripsByteIdentical) {
  DetectionOutcome outcome;
  outcome.cve_id = "CVE-2018-9412";
  outcome.query_is_patched = true;
  outcome.total = 321;
  outcome.true_positives = 1;
  outcome.true_negatives = 300;
  outcome.false_positives = 19;
  outcome.false_negatives = 1;
  outcome.candidates = {4, 9, 17, 200};
  outcome.dl_seconds = 0.125;
  outcome.executed = 3;
  outcome.ranking = {{17, 0.03125, 0.75}, {4, 1.5, 0.25}, {9, 2.25, 0.5}};
  outcome.rank_of_target = 1;
  outcome.da_seconds = 2.5;
  outcome.prefilter_mode = retrieval::PrefilterMode::on;
  outcome.prefilter_exact_fallback = false;
  outcome.prefilter_shortlist = 32;

  const std::vector<std::uint8_t> bytes = serialize_outcome(outcome);
  const auto restored = deserialize_outcome(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->cve_id, outcome.cve_id);
  EXPECT_EQ(restored->query_is_patched, outcome.query_is_patched);
  EXPECT_EQ(restored->total, outcome.total);
  EXPECT_EQ(restored->true_positives, outcome.true_positives);
  EXPECT_EQ(restored->true_negatives, outcome.true_negatives);
  EXPECT_EQ(restored->false_positives, outcome.false_positives);
  EXPECT_EQ(restored->false_negatives, outcome.false_negatives);
  EXPECT_EQ(restored->candidates, outcome.candidates);
  EXPECT_EQ(restored->dl_seconds, outcome.dl_seconds);
  EXPECT_EQ(restored->executed, outcome.executed);
  ASSERT_EQ(restored->ranking.size(), outcome.ranking.size());
  for (std::size_t i = 0; i < outcome.ranking.size(); ++i) {
    EXPECT_EQ(restored->ranking[i].function_index,
              outcome.ranking[i].function_index);
    EXPECT_EQ(restored->ranking[i].distance, outcome.ranking[i].distance);
    EXPECT_EQ(restored->ranking[i].secondary, outcome.ranking[i].secondary);
  }
  EXPECT_EQ(restored->rank_of_target, outcome.rank_of_target);
  EXPECT_EQ(restored->da_seconds, outcome.da_seconds);
  EXPECT_EQ(restored->prefilter_mode, outcome.prefilter_mode);
  EXPECT_EQ(restored->prefilter_exact_fallback,
            outcome.prefilter_exact_fallback);
  EXPECT_EQ(restored->prefilter_shortlist, outcome.prefilter_shortlist);
  EXPECT_EQ(serialize_outcome(*restored), bytes);
}

TEST(Cache, ProvenanceRoundTripsBitExactIncludingNonFinite) {
  // Decision provenance rides inside the cached outcome; the doubles are
  // serialized as raw bits, so NaN env distances and +inf aggregates must
  // survive — a warm-cache scan has to re-render byte-identical JSONL.
  DetectionOutcome outcome;
  outcome.cve_id = "CVE-2018-9412";
  outcome.provenance.threshold = 0.4;
  outcome.provenance.minkowski_p = 3.0;
  outcome.provenance.total = 64;
  outcome.provenance.executed = 1;
  outcome.provenance.prefilter =
      static_cast<std::uint8_t>(retrieval::PrefilterMode::on);
  outcome.provenance.prefilter_shortlist = 32;
  obs::CandidateRecord kept;
  kept.function_index = 12;
  kept.dl_score = 0.875;
  kept.validated = true;
  kept.env_distances = {0.25, std::numeric_limits<double>::quiet_NaN(),
                        0.0078125};
  kept.distance = 0.4375;
  kept.rank = 1;
  obs::CandidateRecord pruned;
  pruned.function_index = 31;
  pruned.dl_score = 0.5;
  pruned.crash_env = 2;
  pruned.distance = std::numeric_limits<double>::infinity();
  outcome.provenance.candidates = {kept, pruned};

  const std::vector<std::uint8_t> bytes = serialize_outcome(outcome);
  const auto restored = deserialize_outcome(bytes);
  ASSERT_TRUE(restored.has_value());
  const obs::StageRecord& stage = restored->provenance;
  EXPECT_EQ(stage.threshold, 0.4);
  EXPECT_EQ(stage.total, 64u);
  EXPECT_EQ(stage.executed, 1u);
  EXPECT_EQ(stage.prefilter,
            static_cast<std::uint8_t>(retrieval::PrefilterMode::on));
  EXPECT_EQ(stage.prefilter_shortlist, 32u);
  ASSERT_EQ(stage.candidates.size(), 2u);
  EXPECT_EQ(stage.candidates[0].function_index, 12u);
  EXPECT_TRUE(stage.candidates[0].validated);
  ASSERT_EQ(stage.candidates[0].env_distances.size(), 3u);
  EXPECT_TRUE(std::isnan(stage.candidates[0].env_distances[1]));
  EXPECT_EQ(stage.candidates[0].env_distances[2], 0.0078125);
  EXPECT_EQ(stage.candidates[0].rank, 1);
  EXPECT_EQ(stage.candidates[1].crash_env, 2);
  EXPECT_TRUE(std::isinf(stage.candidates[1].distance));
  EXPECT_EQ(serialize_outcome(*restored), bytes);
}

/// A scan entry with NaN, ±inf and -0.0 in its rankings, provenance,
/// votes, dynamic distances and pool records.
ScanEntry non_finite_scan() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ScanEntry scan;
  scan.from_vulnerable.cve_id = "CVE-2018-9412";
  scan.from_vulnerable.candidates = {3, 7};
  scan.from_vulnerable.ranking = {{7, inf, -0.0}, {3, nan, 1.5}};
  scan.from_vulnerable.rank_of_target = 1;
  obs::CandidateRecord record;
  record.function_index = 7;
  record.dl_score = 0.75;
  record.validated = true;
  record.env_distances = {nan, -inf, 0.125};
  record.distance = inf;
  record.rank = 1;
  scan.from_vulnerable.provenance.candidates = {record};
  scan.from_patched = scan.from_vulnerable;
  scan.from_patched.query_is_patched = true;
  scan.from_patched.provenance.minkowski_p = -nan;
  scan.report.cve_id = "CVE-2018-9412";
  scan.report.matched_function = 7;
  PatchDecision& decision = scan.report.decision.emplace();
  decision.verdict = PatchVerdict::patched;
  decision.votes_vulnerable = nan;
  decision.votes_patched = -inf;
  decision.dynamic_distance_vulnerable = inf;
  decision.dynamic_distance_patched = -0.0;
  decision.evidence = {"libcall memmove removed", ""};
  scan.report.pool = {{7, nan, inf, 2, 0, true}, {3, -inf, -0.0, 0, 1, false}};
  return scan;
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(Cache, ScanEntryRoundTripsBitExact) {
  const ScanEntry scan = non_finite_scan();
  const std::vector<std::uint8_t> bytes = serialize_scan(scan);
  const auto restored = deserialize_scan(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(serialize_scan(*restored), bytes);
  EXPECT_EQ(serialize_outcome(restored->from_vulnerable),
            serialize_outcome(scan.from_vulnerable));
  EXPECT_EQ(serialize_outcome(restored->from_patched),
            serialize_outcome(scan.from_patched));
  EXPECT_TRUE(restored->from_patched.query_is_patched);
  EXPECT_EQ(bits_of(restored->from_vulnerable.ranking[0].secondary),
            bits_of(-0.0));
  EXPECT_TRUE(
      std::isnan(restored->from_vulnerable.provenance.candidates[0]
                     .env_distances[0]));

  const PatchReport& report = restored->report;
  EXPECT_EQ(report.cve_id, scan.report.cve_id);
  EXPECT_EQ(report.matched_function, scan.report.matched_function);
  ASSERT_TRUE(report.decision.has_value());
  const PatchDecision& decision = *report.decision;
  EXPECT_EQ(decision.verdict, PatchVerdict::patched);
  const PatchDecision& stored = *scan.report.decision;
  EXPECT_EQ(bits_of(decision.votes_vulnerable),
            bits_of(stored.votes_vulnerable));
  EXPECT_EQ(bits_of(decision.votes_patched), bits_of(stored.votes_patched));
  EXPECT_EQ(bits_of(decision.dynamic_distance_vulnerable),
            bits_of(stored.dynamic_distance_vulnerable));
  EXPECT_EQ(bits_of(decision.dynamic_distance_patched),
            bits_of(stored.dynamic_distance_patched));
  EXPECT_EQ(decision.evidence, scan.report.decision->evidence);
  ASSERT_EQ(report.pool.size(), 2u);
  for (std::size_t i = 0; i < report.pool.size(); ++i) {
    const obs::PatchCandidateRecord& got = report.pool[i];
    const obs::PatchCandidateRecord& want = scan.report.pool[i];
    EXPECT_EQ(got.function_index, want.function_index);
    EXPECT_EQ(bits_of(got.distance_vulnerable),
              bits_of(want.distance_vulnerable));
    EXPECT_EQ(bits_of(got.distance_patched), bits_of(want.distance_patched));
    EXPECT_EQ(got.effect_matches_vulnerable, want.effect_matches_vulnerable);
    EXPECT_EQ(got.effect_matches_patched, want.effect_matches_patched);
    EXPECT_EQ(got.chosen, want.chosen);
  }

  // Nothing matched: no function, no decision, an empty pool.
  ScanEntry unmatched;
  unmatched.report.cve_id = "CVE-2017-13209";
  const std::vector<std::uint8_t> empty_bytes = serialize_scan(unmatched);
  const auto empty = deserialize_scan(empty_bytes);
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->report.cve_id, "CVE-2017-13209");
  EXPECT_FALSE(empty->report.matched_function.has_value());
  EXPECT_FALSE(empty->report.decision.has_value());
  EXPECT_TRUE(empty->report.pool.empty());
  EXPECT_EQ(serialize_scan(*empty), empty_bytes);
}

TEST(Cache, ScanEntryDecoderRejectsEveryTruncation) {
  ScanEntry unmatched;
  unmatched.report.cve_id = "CVE-2017-13209";
  for (const ScanEntry& scan : {non_finite_scan(), unmatched}) {
    const std::vector<std::uint8_t> bytes = serialize_scan(scan);
    ASSERT_TRUE(deserialize_scan(bytes).has_value());
    for (std::size_t size = 0; size < bytes.size(); ++size)
      EXPECT_FALSE(deserialize_scan(std::vector<std::uint8_t>(
                                        bytes.begin(), bytes.begin() + size))
                       .has_value())
          << "prefix of " << size << " of " << bytes.size() << " bytes";
    std::vector<std::uint8_t> trailing = bytes;
    trailing.push_back(0);
    EXPECT_FALSE(deserialize_scan(trailing).has_value());
  }
}

TEST(Cache, DeserializersRejectCorruptInput) {
  EXPECT_FALSE(deserialize_features({}).has_value());
  EXPECT_FALSE(deserialize_outcome({}).has_value());
  EXPECT_FALSE(deserialize_features({'P', 'K', 'F', 'E'}).has_value());

  std::vector<std::uint8_t> bytes =
      serialize_features({StaticFeatureVector{}, StaticFeatureVector{}});
  bytes.pop_back();  // truncated payload
  EXPECT_FALSE(deserialize_features(bytes).has_value());
  bytes.push_back(0);
  bytes[0] = 'X';  // wrong magic
  EXPECT_FALSE(deserialize_features(bytes).has_value());

  DetectionOutcome outcome;
  outcome.candidates = {1, 2, 3};
  std::vector<std::uint8_t> outcome_bytes = serialize_outcome(outcome);
  outcome_bytes.resize(outcome_bytes.size() - 4);
  EXPECT_FALSE(deserialize_outcome(outcome_bytes).has_value());

  // A vector count whose byte size wraps around 2^64 must be rejected before
  // anything is allocated: PKFE, v4, count (2^64 + 128) / 384, 128 bytes.
  std::vector<std::uint8_t> wrapping = {'P', 'K', 'F', 'E'};
  blob::append_u64(wrapping, 4);
  blob::append_u64(wrapping, 48038396025285291ULL);
  wrapping.resize(wrapping.size() + 128);
  ASSERT_EQ(wrapping.size(), 148u);
  EXPECT_FALSE(deserialize_features(wrapping).has_value());

  // A well-formed v3 outcome entry, written before the `verify` prefilter
  // mode was removed, carries its recall fields and a per-candidate
  // `prefiltered` flag. It misses; it is not misread as v4.
  std::vector<std::uint8_t> v3 = {'P', 'K', 'D', 'O'};
  blob::append_u64(v3, 3);
  blob::append_string(v3, "CVE-2018-9412");
  blob::append_u64(v3, 0);  // query_is_patched
  blob::append_u64(v3, 64);  // total
  for (const std::int64_t count : {1, 62, 1, 0}) blob::append_i64(v3, count);
  blob::append_u64(v3, 2);  // candidates
  blob::append_u64(v3, 12);
  blob::append_u64(v3, 40);
  blob::append_double(v3, 0.125);  // dl_seconds
  blob::append_u64(v3, 1);         // executed
  blob::append_u64(v3, 1);         // ranking
  blob::append_u64(v3, 12);
  blob::append_double(v3, 0.4375);
  blob::append_double(v3, 0.5);
  blob::append_i64(v3, 1);         // rank_of_target
  blob::append_double(v3, 0.25);   // da_seconds
  blob::append_u64(v3, 2);         // prefilter_mode: verify
  blob::append_u64(v3, 0);         // prefilter_exact_fallback
  blob::append_u64(v3, 32);        // prefilter_shortlist
  blob::append_u64(v3, 3);         // prefilter_exact_candidates
  blob::append_u64(v3, 2);         // prefilter_recalled
  blob::append_double(v3, 0.4);    // provenance: threshold
  blob::append_double(v3, 3.0);    // minkowski_p
  blob::append_u64(v3, 64);        // total
  blob::append_u64(v3, 1);         // executed
  blob::append_u64(v3, 2);         // prefilter
  blob::append_u64(v3, 32);        // prefilter_shortlist
  blob::append_u64(v3, 3);         // prefilter_exact
  blob::append_u64(v3, 2);         // prefilter_recalled
  blob::append_u64(v3, 1);         // candidate records
  blob::append_u64(v3, 40);        // function_index
  blob::append_double(v3, 0.625);  // dl_score
  blob::append_u64(v3, 0);         // validated
  blob::append_i64(v3, -1);        // crash_env
  blob::append_u64(v3, 1);         // prefiltered
  blob::append_u64(v3, 0);         // env_distances
  blob::append_double(v3, 0.0);    // distance
  blob::append_i64(v3, -1);        // rank
  EXPECT_FALSE(deserialize_outcome(v3).has_value());
}

TEST(Cache, KeyChangesWithModelConfigAndLibrary) {
  const EngineUniverse& u = universe();
  const LibraryBinary library =
      u.corpus->compile_for_device(0, android_things_device());
  const CveEntry& entry = u.database->entries().front();

  const Digest lib_digest = digest_library(library);
  const Digest model_digest = digest_model(u.model);
  PipelineConfig config;
  const Digest config_digest = digest_pipeline_config(config);
  const Digest entry_digest = digest_entry(entry);
  const std::string key =
      scan_cache_key(lib_digest, model_digest, config_digest, entry_digest);
  const auto key_with = [&](const PipelineConfig& changed) {
    return scan_cache_key(lib_digest, model_digest,
                          digest_pipeline_config(changed), entry_digest);
  };

  // Model perturbation (one weight) must invalidate.
  SimilarityModel perturbed = u.model;
  ASSERT_FALSE(perturbed.network().layers().empty());
  perturbed.network().layers()[0].weights()[0] += 1.0f;
  EXPECT_NE(scan_cache_key(lib_digest, digest_model(perturbed), config_digest,
                           entry_digest),
            key);

  // Result-relevant config change must invalidate...
  PipelineConfig tightened;
  tightened.detection_threshold = 0.9f;
  EXPECT_NE(key_with(tightened), key);
  PipelineConfig wider_pool;
  wider_pool.patch_candidates = config.patch_candidates + 1;
  EXPECT_NE(key_with(wider_pool), key);

  // ...but parallelism is result-neutral and must NOT invalidate.
  PipelineConfig threaded;
  threaded.worker_threads = 8;
  EXPECT_EQ(key_with(threaded), key);

  // The prefilter shapes which functions reach the network, so mode, K, and
  // the exact-fallback threshold are all part of the key.
  PipelineConfig prefiltered;
  prefiltered.prefilter_mode = retrieval::PrefilterMode::on;
  const std::string prefiltered_key = key_with(prefiltered);
  EXPECT_NE(prefiltered_key, key);
  PipelineConfig wider = prefiltered;
  wider.prefilter_top_k = prefiltered.prefilter_top_k * 2;
  EXPECT_NE(key_with(wider), prefiltered_key);
  PipelineConfig always = prefiltered;
  always.prefilter_min_total = 0;
  EXPECT_NE(key_with(always), prefiltered_key);

  // The differential stage reads the references' signatures, which the
  // entry digest must therefore cover, per-architecture ones included.
  CveEntry resigned = entry;
  ++resigned.patched_signature.libcall_counts[0];
  EXPECT_NE(scan_cache_key(lib_digest, model_digest, config_digest,
                           digest_entry(resigned)),
            key);
  ASSERT_FALSE(entry.arch_refs.empty());
  CveEntry arch_resigned = entry;
  ++arch_resigned.arch_refs.begin()->second.vulnerable_signature.edges;
  EXPECT_NE(scan_cache_key(lib_digest, model_digest, config_digest,
                           digest_entry(arch_resigned)),
            key);

  // A different library is a distinct entry.
  const LibraryBinary other =
      u.corpus->compile_for_device(1, android_things_device());
  EXPECT_NE(scan_cache_key(digest_library(other), model_digest, config_digest,
                           entry_digest),
            key);

  // The replay-only per-direction keys differ by direction and from the
  // CVE's key.
  const std::string vulnerable = outcome_cache_key(
      lib_digest, model_digest, config_digest, entry_digest, false);
  const std::string patched = outcome_cache_key(
      lib_digest, model_digest, config_digest, entry_digest, true);
  EXPECT_NE(vulnerable, patched);
  EXPECT_NE(vulnerable.substr(4), key.substr(4));
  EXPECT_NE(patched.substr(4), key.substr(4));
}

TEST(Cache, DiskEntriesSurviveProcessRestartSimulation) {
  const std::string dir = scratch_dir("disk_persist");
  const std::vector<StaticFeatureVector> features{StaticFeatureVector{},
                                                  StaticFeatureVector{}};
  {
    ResultCache cache(dir);
    cache.store_features("feat-abc", features);
  }
  ResultCache fresh(dir);  // same directory, empty memory
  const auto found = fresh.find_features("feat-abc");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->size(), features.size());
  EXPECT_EQ(fresh.stats().disk_loads, 1u);
  EXPECT_FALSE(fresh.find_features("feat-missing").has_value());
  EXPECT_EQ(fresh.stats().feature_misses, 1u);
}

/// Object file of a ResultCache entry (the blob layout under the cache dir).
std::filesystem::path cache_object(const std::string& dir,
                                   const std::string& key) {
  const blob::BlobStore blobs(dir);
  return blobs.path(
      blob::BlobStore::address(blob::Bytes(key.begin(), key.end())).hex());
}

DetectionOutcome sample_outcome(const std::string& cve, std::size_t ranked) {
  DetectionOutcome outcome;
  outcome.cve_id = cve;
  outcome.total = 100 + ranked;
  for (std::size_t i = 0; i < ranked; ++i)
    outcome.ranking.push_back({i, 0.5 + static_cast<double>(i), 0.25});
  outcome.rank_of_target = 1;
  return outcome;
}

/// A scan entry with `ranked` candidates per direction and as many pool
/// members, the first chosen.
ScanEntry sample_scan(const std::string& cve, std::size_t ranked) {
  ScanEntry scan;
  scan.from_vulnerable = sample_outcome(cve, ranked);
  scan.from_patched = sample_outcome(cve, ranked);
  scan.from_patched.query_is_patched = true;
  scan.report.cve_id = cve;
  for (std::size_t i = 0; i < ranked; ++i)
    scan.report.pool.push_back({i, 0.25 * static_cast<double>(i), 0.5, i, 1,
                                i == 0});
  scan.report.matched_function = 0;
  scan.report.decision.emplace();
  scan.report.decision->evidence = {"sample"};
  return scan;
}

std::vector<StaticFeatureVector> sample_features(double base) {
  std::vector<StaticFeatureVector> features(3);
  for (std::size_t i = 0; i < features.size(); ++i)
    for (std::size_t f = 0; f < static_feature_count; ++f)
      features[i][f] = base + static_cast<double>(i * static_feature_count + f);
  return features;
}

/// Stores entries under two keys per kind, damages the "-a" entries on disk
/// with `damage`, then checks that a fresh cache counts them as misses (no
/// disk load) and that the next store_* overwrites them with a good entry.
void expect_damaged_entries_miss_then_heal(
    const std::string& name,
    const std::function<void(const std::string& dir, const std::string& key,
                             const std::string& other)>& damage) {
  const std::string dir = scratch_dir(name);
  const ScanEntry scan = sample_scan("CVE-A", 8);
  const std::vector<StaticFeatureVector> features = sample_features(1.0);
  {
    ResultCache writer(dir);
    writer.store_scan("cve-a", scan);
    writer.store_scan("cve-b", sample_scan("CVE-B", 8));
    writer.store_features("feat-a", features);
    writer.store_features("feat-b", sample_features(2.0));
  }
  damage(dir, "cve-a", "cve-b");
  damage(dir, "feat-a", "feat-b");

  ResultCache reader(dir);
  EXPECT_FALSE(reader.find_scan("cve-a").has_value());
  EXPECT_FALSE(reader.find_features("feat-a").has_value());
  CacheStats stats = reader.stats();
  EXPECT_EQ(stats.outcome_misses, 1u);
  EXPECT_EQ(stats.feature_misses, 1u);
  EXPECT_EQ(stats.hits(), 0u);
  EXPECT_EQ(stats.disk_loads, 0u);

  reader.store_scan("cve-a", scan);
  reader.store_features("feat-a", features);
  ResultCache healed(dir);
  const auto found_scan = healed.find_scan("cve-a");
  ASSERT_TRUE(found_scan.has_value());
  EXPECT_EQ(serialize_scan(*found_scan), serialize_scan(scan));
  const auto found_features = healed.find_features("feat-a");
  ASSERT_TRUE(found_features.has_value());
  EXPECT_EQ(serialize_features(*found_features), serialize_features(features));
  EXPECT_EQ(healed.stats().disk_loads, 2u);
}

TEST(Cache, BitFlippedDiskEntryIsAMissAndIsOverwritten) {
  // A flipped byte inside a double still parses, so only the container's
  // payload digest can catch it.
  expect_damaged_entries_miss_then_heal(
      "tamper_flip",
      [](const std::string& dir, const std::string& key, const std::string&) {
        const auto path = cache_object(dir, key);
        std::vector<std::uint8_t> bytes = blob::read_file(path).value();
        bytes[bytes.size() / 2] ^= 0x01;
        ASSERT_TRUE(blob::write_file(path, bytes));
      });
}

TEST(Cache, TruncatedDiskEntryIsAMissAndIsOverwritten) {
  expect_damaged_entries_miss_then_heal(
      "tamper_truncate",
      [](const std::string& dir, const std::string& key, const std::string&) {
        const auto path = cache_object(dir, key);
        std::filesystem::resize_file(path,
                                     std::filesystem::file_size(path) - 1);
      });
}

TEST(Cache, MisfiledDiskEntryIsAMissAndIsOverwritten) {
  // Another key's intact object copied over this key's address: the key
  // echo no longer matches, so it must not be served under this key.
  expect_damaged_entries_miss_then_heal(
      "tamper_misfile", [](const std::string& dir, const std::string& key,
                           const std::string& other) {
        std::filesystem::copy_file(
            cache_object(dir, other), cache_object(dir, key),
            std::filesystem::copy_options::overwrite_existing);
      });
}

TEST(Cache, ConcurrentSameKeyWritersNeverTearDiskReads) {
  // Writers replace one key's entry while readers drop the memory tier and
  // look it up again, so most lookups read the file while it is being
  // renamed over. A reader must always see one whole entry, never a mix or
  // a partial write, and the accounting must balance.
  const std::string dir = scratch_dir("cache_race");
  const ScanEntry a = sample_scan("CVE-A", 16);
  const ScanEntry b = sample_scan("CVE-B", 256);
  const std::vector<std::uint8_t> a_bytes = serialize_scan(a);
  const std::vector<std::uint8_t> b_bytes = serialize_scan(b);
  const std::vector<StaticFeatureVector> fa = sample_features(1.0);
  const std::vector<StaticFeatureVector> fb = sample_features(2.0);
  ResultCache cache(dir);
  cache.store_scan("cve-race", a);
  cache.store_features("feat-race", fa);

  std::atomic<std::uint64_t> lookups{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w)
    threads.emplace_back([&, w] {
      for (int i = 0; i < 25; ++i) {
        cache.store_scan("cve-race", (w % 2) != 0 ? a : b);
        cache.store_features("feat-race", (w % 2) != 0 ? fa : fb);
      }
    });
  for (int r = 0; r < 2; ++r)
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        cache.clear_memory();
        const auto scan = cache.find_scan("cve-race");
        const auto features = cache.find_features("feat-race");
        lookups += 2;
        ASSERT_TRUE(scan.has_value());
        const std::vector<std::uint8_t> bytes = serialize_scan(*scan);
        ASSERT_TRUE(bytes == a_bytes || bytes == b_bytes) << "torn entry";
        ASSERT_TRUE(features.has_value());
        ASSERT_TRUE(serialize_features(*features) == serialize_features(fa) ||
                    serialize_features(*features) == serialize_features(fb))
            << "torn features";
      }
    });
  for (std::thread& thread : threads) thread.join();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits() + stats.misses(), lookups.load());
  EXPECT_EQ(stats.misses(), 0u);
  EXPECT_EQ(stats.stores, 2u + 4u * 25u * 2u);
}

TEST(Engine, RejectsIncompleteRequests) {
  ScanEngine engine;
  EXPECT_THROW(engine.run(ScanRequest{}), std::invalid_argument);
}

TEST(Engine, SchedulerRunsAnalyzeBeforeDetectBeforePatch) {
  const EngineUniverse& u = universe();
  EngineConfig config;
  config.jobs = 4;
  config.use_cache = false;
  ScanEngine engine(config);

  std::vector<JobEvent> events;  // engine serializes progress callbacks
  const ScanReport report = engine.run(u.request(), [&](const JobEvent& e) {
    events.push_back(e);
  });

  std::map<std::string, std::size_t> analyze_pos, detect_pos, patch_pos;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == JobKind::analyze) analyze_pos[events[i].label] = i;
    if (events[i].kind == JobKind::detect) detect_pos[events[i].label] = i;
    if (events[i].kind == JobKind::patch) patch_pos[events[i].label] = i;
  }
  EXPECT_EQ(events.size(),
            report.analyzed_libraries + 2 * report.results.size());
  for (const CveScanResult& result : report.results) {
    ASSERT_TRUE(analyze_pos.count(result.library)) << result.library;
    ASSERT_TRUE(detect_pos.count(result.cve_id)) << result.cve_id;
    ASSERT_TRUE(patch_pos.count(result.cve_id)) << result.cve_id;
    EXPECT_LT(analyze_pos[result.library], detect_pos[result.cve_id]);
    EXPECT_LT(detect_pos[result.cve_id], patch_pos[result.cve_id]);
  }
}

TEST(Engine, SequentialAndParallelRunsAgreeExactly) {
  const EngineUniverse& u = universe();
  EngineConfig sequential;
  sequential.jobs = 1;
  sequential.use_cache = false;
  EngineConfig parallel;
  parallel.jobs = 8;
  parallel.use_cache = false;

  const ScanReport a = ScanEngine(sequential).run(u.request());
  const ScanReport b = ScanEngine(parallel).run(u.request());
  ASSERT_FALSE(a.results.empty());
  EXPECT_FALSE(a.canonical_text().empty());
  EXPECT_EQ(a.canonical_text(), b.canonical_text());
}

TEST(Engine, JobsZeroRunsLikeJobsOne) {
  // jobs = 0 must run one job at a time, not start nothing and return a
  // report of empty outcomes.
  const EngineUniverse& u = universe();
  EngineConfig zero;
  zero.jobs = 0;
  zero.use_cache = false;
  EngineConfig one;
  one.jobs = 1;
  one.use_cache = false;

  const ScanReport a = ScanEngine(zero).run(u.request());
  const ScanReport b = ScanEngine(one).run(u.request());
  ASSERT_FALSE(b.timings.empty());
  EXPECT_EQ(a.timings.size(), b.timings.size());
  EXPECT_EQ(a.canonical_text(), b.canonical_text());
}

TEST(Engine, WarmRunHitsCacheAndReproducesReport) {
  const EngineUniverse& u = universe();
  EngineConfig config;
  config.jobs = 4;  // memory-only cache
  ScanEngine engine(config);

  const ScanReport cold = engine.run(u.request());
  const ScanReport warm = engine.run(u.request());

  EXPECT_EQ(cold.canonical_text(), warm.canonical_text());
  // Cold run: every lookup missed, one per library and one per CVE, and
  // each was stored.
  EXPECT_EQ(cold.cache.hits(), 0u);
  EXPECT_EQ(cold.cache.feature_misses, cold.analyzed_libraries);
  EXPECT_EQ(cold.cache.outcome_misses, cold.results.size());
  EXPECT_EQ(cold.cache.stores,
            cold.analyzed_libraries + cold.results.size());
  // Warm run: every CVE served by its one entry, so no features are read.
  EXPECT_EQ(warm.cache.misses(), 0u);
  EXPECT_EQ(warm.cache.feature_hits, 0u);
  EXPECT_EQ(warm.cache.outcome_hits, warm.results.size());
  EXPECT_EQ(warm.cache.stores, 0u);
  ASSERT_FALSE(warm.timings.empty());
  for (const JobTiming& timing : warm.timings)
    EXPECT_TRUE(timing.cache_hit)
        << job_kind_name(timing.kind) << " " << timing.label;
}

TEST(Engine, WarmScanRunsNoVmAndReadsNoFeatures) {
  // A warm scan reads one entry per CVE and nothing else: no VM run, no
  // feature lookup, no feature-class build. Its report and provenance are
  // the cold scan's.
  const EngineUniverse& u = universe();
  const obs::EnabledScope obs_on(true);
  obs::Registry& registry = obs::Registry::global();
  const obs::Counter& vm_runs = registry.counter("vm.runs");
  const obs::Counter& class_builds =
      registry.counter("pipeline.feature_class_builds");
  const std::string dir = scratch_dir("engine_warm_no_vm");
  EngineConfig config;
  config.jobs = 4;
  config.cache_dir = dir;
  const ScanReport cold = ScanEngine(config).run(u.request());
  ASSERT_FALSE(cold.results.empty());
  ASSERT_GT(vm_runs.value(), 0u);

  for (const char* tier : {"disk", "memory"}) {
    ScanEngine engine(config);
    if (std::string(tier) == "memory") engine.run(u.request());
    const std::uint64_t runs0 = vm_runs.value();
    const std::uint64_t builds0 = class_builds.value();
    const ScanReport warm = engine.run(u.request());
    EXPECT_EQ(vm_runs.value() - runs0, 0u) << tier;
    EXPECT_EQ(class_builds.value() - builds0, 0u) << tier;
    EXPECT_EQ(warm.cache.feature_hits + warm.cache.feature_misses, 0u)
        << tier;
    EXPECT_EQ(warm.cache.outcome_hits, warm.results.size()) << tier;
    EXPECT_EQ(warm.canonical_text(), cold.canonical_text()) << tier;
    EXPECT_EQ(warm.provenance_jsonl(), cold.provenance_jsonl()) << tier;
  }
}

TEST(Engine, SuppliedLibraryDigestsKeyTheCacheLikeComputedOnes) {
  // The keys an image carries (FirmwareImage::library_keys) name the
  // entries the engine's own digest_library calls file: a keyed image and
  // the same image with its keys cleared share every entry.
  const EngineUniverse& u = universe();
  ASSERT_EQ(u.firmware.library_keys.size(), u.firmware.libraries.size());
  FirmwareImage unkeyed = u.firmware;
  unkeyed.library_keys.clear();
  ScanRequest computed = u.request();
  computed.firmware = &unkeyed;
  EngineConfig config;
  config.jobs = 2;
  ScanEngine computing(config);
  ScanEngine supplying(config);
  for (const char* round : {"cold", "warm"}) {
    const ScanReport expected = computing.run(computed);
    const ScanReport got = supplying.run(u.request());
    EXPECT_EQ(got.canonical_text(), expected.canonical_text()) << round;
    EXPECT_EQ(got.cache.feature_hits, expected.cache.feature_hits) << round;
    EXPECT_EQ(got.cache.feature_misses, expected.cache.feature_misses)
        << round;
    EXPECT_EQ(got.cache.outcome_hits, expected.cache.outcome_hits) << round;
    EXPECT_EQ(got.cache.outcome_misses, expected.cache.outcome_misses)
        << round;
  }
  // The image's keys name the entries computed digests filed.
  EXPECT_EQ(computing.run(u.request()).cache.misses(), 0u);

  // The engine keys with what the image carries: other keys miss every
  // entry.
  FirmwareImage misfiled = u.firmware;
  for (std::size_t i = 0; i < misfiled.library_keys.size(); ++i) {
    misfiled.library_keys[i] = Digest{};
    misfiled.library_keys[i].absorb_u64(i);
  }
  ScanRequest misfiled_request = u.request();
  misfiled_request.firmware = &misfiled;
  const ScanReport missed = computing.run(misfiled_request);
  EXPECT_EQ(missed.cache.feature_misses, missed.analyzed_libraries);
  EXPECT_EQ(missed.canonical_text(), computing.run(computed).canonical_text());

  // Keys that do not match `libraries` are ignored: the engine digests each
  // library itself and hits the computed entries.
  misfiled.library_keys.pop_back();
  const ScanReport fallback = computing.run(misfiled_request);
  EXPECT_EQ(fallback.cache.misses(), 0u);
  EXPECT_EQ(fallback.cache.outcome_hits, fallback.results.size());
}

TEST(Engine, ScanOfALoadedImageDigestsNoLibrary) {
  // load_firmware keys each library from the bytes it decodes, with the
  // values build_firmware computes, so a scan of a loaded image records no
  // cache.digest span; an unkeyed image records one per analyzed library.
  const EngineUniverse& u = universe();
  const std::string dir = scratch_dir("engine_loaded");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/fw.img";
  ASSERT_TRUE(save_firmware(u.firmware, path));
  const std::optional<FirmwareImage> loaded = load_firmware(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->library_keys.size(), u.firmware.library_keys.size());
  for (std::size_t i = 0; i < loaded->library_keys.size(); ++i)
    EXPECT_EQ(loaded->library_keys[i].value(),
              u.firmware.library_keys[i].value())
        << i;
  FirmwareImage unkeyed = *loaded;
  unkeyed.library_keys.clear();

  const obs::EnabledScope on(true);
  const auto digest_spans = [&](const FirmwareImage& image,
                                std::size_t& analyzed) {
    ScanRequest request = u.request();
    request.firmware = &image;
    obs::Tracer::global().clear();
    const ScanReport report = ScanEngine(EngineConfig{}).run(request);
    analyzed = report.analyzed_libraries;
    std::size_t count = 0;
    for (const obs::Span& span : obs::Tracer::global().spans())
      count += span.name == "cache.digest" ? 1 : 0;
    return count;
  };
  std::size_t analyzed = 0;
  EXPECT_EQ(digest_spans(*loaded, analyzed), 0u);
  EXPECT_GT(analyzed, 0u);
  EXPECT_EQ(digest_spans(unkeyed, analyzed), analyzed);
  std::filesystem::remove_all(dir);
}

TEST(Engine, DiskCacheServesAFreshEngine) {
  const EngineUniverse& u = universe();
  const std::string dir = scratch_dir("engine_disk");
  EngineConfig config;
  config.jobs = 4;
  config.cache_dir = dir;

  const ScanReport cold = ScanEngine(config).run(u.request());
  const ScanReport warm = ScanEngine(config).run(u.request());  // new engine

  EXPECT_EQ(cold.canonical_text(), warm.canonical_text());
  EXPECT_EQ(warm.cache.misses(), 0u);
  EXPECT_GT(warm.cache.disk_loads, 0u);
}

TEST(Engine, ModelChangeInvalidatesOutcomesButNotFeatures) {
  const EngineUniverse& u = universe();
  const std::string dir = scratch_dir("engine_invalidate");
  EngineConfig config;
  config.jobs = 2;
  config.cache_dir = dir;
  ScanEngine(config).run(u.request());

  SimilarityModel perturbed = u.model;
  perturbed.network().layers()[0].weights()[0] += 1.0f;
  ScanRequest request = u.request();
  request.model = &perturbed;
  const ScanReport report = ScanEngine(config).run(request);

  // Features depend only on the library: still hits. Each CVE's entry
  // depends on the model: all misses.
  EXPECT_EQ(report.cache.feature_hits, report.analyzed_libraries);
  EXPECT_EQ(report.cache.outcome_hits, 0u);
  EXPECT_EQ(report.cache.outcome_misses, report.results.size());
}

TEST(Engine, ConfigChangeInvalidatesOutcomes) {
  const EngineUniverse& u = universe();
  const std::string dir = scratch_dir("engine_invalidate_config");
  EngineConfig config;
  config.jobs = 2;
  config.cache_dir = dir;
  ScanEngine(config).run(u.request());

  EngineConfig tightened = config;
  tightened.pipeline.detection_threshold = 0.75f;
  const ScanReport report = ScanEngine(tightened).run(u.request());
  EXPECT_EQ(report.cache.feature_hits, report.analyzed_libraries);
  EXPECT_EQ(report.cache.outcome_hits, 0u);
  EXPECT_EQ(report.cache.outcome_misses, report.results.size());
}

TEST(Engine, MetricsCountJobsAndNestPipelineSpansUnderJobs) {
  const EngineUniverse& u = universe();
  EngineConfig config;
  config.jobs = 4;
  config.use_cache = false;

  const obs::EnabledScope on(true);
  obs::Registry& registry = obs::Registry::global();
  obs::Tracer::global().clear();
  const std::uint64_t jobs0 =
      registry.counter("engine.jobs_completed").value();
  const std::uint64_t detect0 =
      registry.histogram("engine.job_seconds.detect").count();

  const ScanReport report = ScanEngine(config).run(u.request());
  ASSERT_FALSE(report.results.empty());

  // One engine.jobs_completed per scheduled job; one detect-latency sample
  // per (cve, direction-pair) detect job.
  EXPECT_EQ(registry.counter("engine.jobs_completed").value() - jobs0,
            report.timings.size());
  EXPECT_EQ(registry.histogram("engine.job_seconds.detect").count() - detect0,
            report.results.size());

  // Pipeline stage spans nest under the engine job spans that ran them; a
  // detect job runs the pipeline once per query direction.
  const std::vector<obs::Span> spans = obs::Tracer::global().spans();
  std::map<std::uint64_t, std::string> name_of;
  for (const obs::Span& span : spans) name_of[span.id] = span.name;
  std::size_t dl_spans = 0;
  for (const obs::Span& span : spans) {
    if (span.name != "pipeline.detect.dl") continue;
    ++dl_spans;
    ASSERT_NE(span.parent, 0u);
    EXPECT_EQ(name_of[span.parent], "job.detect");
  }
  EXPECT_EQ(dl_spans, 2 * report.results.size());
}

// Every job span is a trace root, whichever thread runs the job: a pool
// thread that helps while it waits runs other jobs on top of its own open
// spans, and each job's TaskScope keeps them out of that subtree. The
// tree's shape, as a multiset of (parent name, child name) edges, is then
// the same at any --jobs.
TEST(Engine, JobSpansAreTraceRootsAtAnyJobs) {
  const EngineUniverse& u = universe();
  const obs::EnabledScope on(true);
  std::vector<std::multiset<std::pair<std::string, std::string>>> trees;
  for (const int jobs : {1, 8}) {
    EngineConfig config;
    config.jobs = jobs;
    config.use_cache = false;
    obs::Tracer::global().clear();
    const ScanReport report = ScanEngine(config).run(u.request());
    ASSERT_FALSE(report.results.empty());

    const std::vector<obs::Span> spans = obs::Tracer::global().spans();
    std::map<std::uint64_t, std::string> name_of;
    for (const obs::Span& span : spans) name_of[span.id] = span.name;
    std::multiset<std::pair<std::string, std::string>> tree;
    std::size_t job_spans = 0;
    for (const obs::Span& span : spans) {
      if (span.name.rfind("job.", 0) == 0) {
        ++job_spans;
        EXPECT_EQ(span.parent, 0u)
            << span.name << " under " << name_of[span.parent] << " at --jobs "
            << jobs;
      }
      tree.emplace(span.parent == 0 ? "(root)" : name_of[span.parent],
                   span.name);
    }
    EXPECT_EQ(job_spans, report.timings.size());
    trees.push_back(std::move(tree));
  }
  EXPECT_EQ(trees[0], trees[1]);
}

TEST(Engine, CanonicalReportIsUnaffectedByMetrics) {
  // The determinism oracle: metrics on/off and jobs 1/8 must all yield the
  // byte-identical canonical report.
  const EngineUniverse& u = universe();
  EngineConfig sequential;
  sequential.jobs = 1;
  sequential.use_cache = false;
  EngineConfig parallel;
  parallel.jobs = 8;
  parallel.use_cache = false;

  std::string off_text;
  {
    const obs::EnabledScope off(false);
    off_text = ScanEngine(parallel).run(u.request()).canonical_text();
  }
  const obs::EnabledScope on(true);
  const std::string seq_text =
      ScanEngine(sequential).run(u.request()).canonical_text();
  const std::string par_text =
      ScanEngine(parallel).run(u.request()).canonical_text();
  ASSERT_FALSE(off_text.empty());
  EXPECT_EQ(seq_text, off_text);
  EXPECT_EQ(par_text, off_text);
}

TEST(Engine, ProvenanceIsDeterministicAcrossJobCounts) {
  // Decision lines carry no wall-clock or thread fields, so the provenance
  // export must stay byte-identical between jobs=1 and jobs=8 even with the
  // event log recording — and enabling events must not perturb the
  // canonical report either.
  const EngineUniverse& u = universe();
  EngineConfig sequential;
  sequential.jobs = 1;
  sequential.use_cache = false;
  EngineConfig parallel;
  parallel.jobs = 8;
  parallel.use_cache = false;

  std::string off_text;
  {
    const obs::EventsEnabledScope off(false);
    off_text = ScanEngine(parallel).run(u.request()).canonical_text();
  }
  const obs::EventsEnabledScope on(true);
  const ScanReport seq = ScanEngine(sequential).run(u.request());
  const ScanReport par = ScanEngine(parallel).run(u.request());
  ASSERT_FALSE(seq.results.empty());
  EXPECT_EQ(seq.canonical_text(), off_text);
  EXPECT_EQ(par.canonical_text(), off_text);

  const std::string seq_prov = seq.provenance_jsonl();
  EXPECT_FALSE(seq_prov.empty());
  EXPECT_EQ(par.provenance_jsonl(), seq_prov);
  // Every line is one JSON object; decisions cover every scanned CVE pair.
  std::size_t decisions = 0, start = 0;
  while (start < seq_prov.size()) {
    const std::size_t end = seq_prov.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = seq_prov.substr(start, end - start);
    if (obs::parse_decision_line(line).has_value()) ++decisions;
    start = end + 1;
  }
  EXPECT_EQ(decisions, seq.results.size());
}

TEST(Engine, ProvenanceSurvivesCacheRoundTrip) {
  // A warm run replays outcomes from the cache; the embedded StageRecords
  // must reproduce the cold run's provenance byte-for-byte (raw-bit double
  // serialization — no decimal round-trip drift).
  const EngineUniverse& u = universe();
  EngineConfig config;
  config.jobs = 4;  // memory-only cache
  ScanEngine engine(config);
  const std::string cold = engine.run(u.request()).provenance_jsonl();
  const ScanReport warm_report = engine.run(u.request());
  EXPECT_EQ(warm_report.cache.misses(), 0u);  // really served from cache
  EXPECT_EQ(warm_report.provenance_jsonl(), cold);
}

// Deleting one CVE's entry file makes that CVE, and only it, a miss: only
// its library reads features, only its jobs run the VM, and the report is
// the cold one. The recomputed result is stored again.
TEST(Engine, OneMissingEntryRecomputesOnlyItsCve) {
  const EngineUniverse& u = universe();
  const obs::EnabledScope obs_on(true);
  const obs::Counter& vm_runs = obs::Registry::global().counter("vm.runs");
  const std::string dir = scratch_dir("engine_one_missing");
  EngineConfig config;
  config.jobs = 4;
  config.cache_dir = dir;
  const ScanReport cold = ScanEngine(config).run(u.request());
  ASSERT_GE(cold.analyzed_libraries, 2u);

  const CveEntry& entry = u.database->by_id(u.some_cves.front());
  const auto library = std::find_if(
      u.firmware.libraries.begin(), u.firmware.libraries.end(),
      [&](const LibraryBinary& lib) { return lib.name == entry.spec.library; });
  ASSERT_NE(library, u.firmware.libraries.end());
  const auto path = cache_object(
      dir, scan_cache_key(digest_library(*library), digest_model(u.model),
                          digest_pipeline_config(config.pipeline),
                          digest_entry(entry)));
  ASSERT_TRUE(std::filesystem::remove(path));

  // The VM runs one cold scan of that CVE alone does.
  ScanRequest alone = u.request();
  alone.cve_ids = {entry.spec.cve_id};
  EngineConfig uncached = config;
  uncached.use_cache = false;
  std::uint64_t before = vm_runs.value();
  ScanEngine(uncached).run(alone);
  const std::uint64_t alone_runs = vm_runs.value() - before;
  ASSERT_GT(alone_runs, 0u);

  before = vm_runs.value();
  const ScanReport partial = ScanEngine(config).run(u.request());
  EXPECT_EQ(vm_runs.value() - before, alone_runs);
  EXPECT_EQ(partial.cache.outcome_misses, 1u);
  EXPECT_EQ(partial.cache.outcome_hits, partial.results.size() - 1);
  EXPECT_EQ(partial.cache.feature_hits, 1u);
  EXPECT_EQ(partial.cache.feature_misses, 0u);
  EXPECT_EQ(partial.cache.stores, 1u);
  for (const JobTiming& timing : partial.timings) {
    const bool computed = timing.kind != JobKind::analyze &&
                          timing.label == entry.spec.cve_id;
    EXPECT_EQ(timing.cache_hit, !computed)
        << job_kind_name(timing.kind) << " " << timing.label;
  }
  EXPECT_EQ(partial.canonical_text(), cold.canonical_text());
  EXPECT_EQ(partial.provenance_jsonl(), cold.provenance_jsonl());
  EXPECT_EQ(ScanEngine(config).run(u.request()).cache.misses(), 0u);
}

TEST(Engine, InterruptAlreadySetSkipsEveryJob) {
  // A SIGINT that lands before the first job launches must still produce a
  // (fully partial) report: every job cancelled, nothing executed.
  const EngineUniverse& u = universe();
  std::atomic<bool> interrupt{true};
  EngineConfig config;
  config.jobs = 4;
  config.interrupt = &interrupt;
  ScanEngine engine(config);
  const ScanReport report = engine.run(u.request());
  EXPECT_TRUE(report.interrupted);
  EXPECT_GT(report.jobs_cancelled, 0u);
  EXPECT_TRUE(report.timings.empty());  // nothing ran
  for (const CveScanResult& result : report.results)
    EXPECT_TRUE(result.cancelled);
  // Cancelled outcomes must never poison the cache.
  EXPECT_EQ(engine.cache().stats().stores, 0u);
}

TEST(Engine, InterruptMidRunYieldsPartialReport) {
  // Flip the flag from a progress callback after the first few completions:
  // queued jobs are dropped, the flag is recorded, and the jobs that did
  // finish keep their results.
  const EngineUniverse& u = universe();
  std::atomic<bool> interrupt{false};
  EngineConfig config;
  config.jobs = 1;  // sequential: the interrupt point is deterministic
  config.interrupt = &interrupt;
  ScanEngine engine(config);
  std::atomic<std::size_t> completions{0};
  const ScanReport report =
      engine.run(u.request(), [&](const JobEvent&) {
        if (completions.fetch_add(1) + 1 == 2) interrupt.store(true);
      });
  EXPECT_TRUE(report.interrupted);
  EXPECT_GT(report.jobs_cancelled, 0u);
  EXPECT_EQ(report.timings.size(), 2u);  // exactly the pre-interrupt jobs
}

TEST(Engine, InterruptedRunDoesNotDisturbLaterRuns) {
  const EngineUniverse& u = universe();
  std::atomic<bool> interrupt{true};
  EngineConfig config;
  config.jobs = 2;
  config.interrupt = &interrupt;
  ScanEngine engine(config);
  EXPECT_TRUE(engine.run(u.request()).interrupted);
  interrupt.store(false);
  const ScanReport clean = engine.run(u.request());
  EXPECT_FALSE(clean.interrupted);
  EXPECT_EQ(clean.jobs_cancelled, 0u);
  ScanEngine reference(EngineConfig{});
  EXPECT_EQ(clean.canonical_text(),
            reference.run(u.request()).canonical_text());
}

EngineConfig prefilter_config(retrieval::PrefilterMode mode,
                              std::size_t top_k = 32) {
  EngineConfig config;
  config.jobs = 4;
  config.use_cache = false;
  config.pipeline.prefilter_mode = mode;
  config.pipeline.prefilter_top_k = top_k;
  // The shared test corpus is small; drop the exact-fallback floor so the
  // shortlist path genuinely engages.
  config.pipeline.prefilter_min_total = 0;
  return config;
}

TEST(Engine, PrefilterOnKeepsTheShortlistedExactCandidates) {
  // A stage-1 score is a pure function of the (query, target) bits, so per
  // (CVE, direction) an `on` scan's candidates are the `off` scan's
  // candidates that the index shortlists, with the same DL scores: the
  // prefilter's recall is `on` read against `off`.
  const EngineUniverse& u = universe();
  const ScanReport off =
      ScanEngine(prefilter_config(retrieval::PrefilterMode::off))
          .run(u.request());
  const ScanReport on =
      ScanEngine(prefilter_config(retrieval::PrefilterMode::on))
          .run(u.request());
  ASSERT_EQ(on.results.size(), off.results.size());
  ASSERT_FALSE(on.results.empty());
  const auto score_bits = [](const obs::StageRecord& stage) {
    std::map<std::uint64_t, std::uint64_t> bits;
    for (const obs::CandidateRecord& record : stage.candidates) {
      std::uint64_t value = 0;
      std::memcpy(&value, &record.dl_score, sizeof(value));
      bits[record.function_index] = value;
    }
    return bits;
  };

  std::size_t shortlisted = 0, total = 0, compared = 0;
  for (std::size_t r = 0; r < on.results.size(); ++r) {
    const CveScanResult& result = on.results[r];
    if (result.library_missing) continue;
    const auto library = std::find_if(
        u.firmware.libraries.begin(), u.firmware.libraries.end(),
        [&](const LibraryBinary& lib) { return lib.name == result.library; });
    ASSERT_NE(library, u.firmware.libraries.end()) << result.library;
    AnalyzedLibrary analyzed = analyze_library(*library);
    ensure_retrieval_index(analyzed);
    const CveEntry& entry = u.database->by_id(result.cve_id);
    for (const bool patched : {false, true}) {
      const DetectionOutcome& on_outcome =
          patched ? result.from_patched : result.from_vulnerable;
      const DetectionOutcome& off_outcome =
          patched ? off.results[r].from_patched
                  : off.results[r].from_vulnerable;
      const std::string where =
          result.cve_id + (patched ? " patched" : " vulnerable");
      EXPECT_EQ(on_outcome.prefilter_mode, retrieval::PrefilterMode::on);
      EXPECT_FALSE(on_outcome.prefilter_exact_fallback);
      const std::vector<std::uint32_t> shortlist = analyzed.index->top_k(
          retrieval::quantize(patched ? entry.patched_features
                                      : entry.vulnerable_features),
          32);
      std::vector<std::size_t> expected;
      for (const std::size_t index : off_outcome.candidates)
        if (std::binary_search(shortlist.begin(), shortlist.end(), index))
          expected.push_back(index);
      EXPECT_EQ(on_outcome.candidates, expected) << where;
      const auto on_bits = score_bits(on_outcome.provenance);
      const auto off_bits = score_bits(off_outcome.provenance);
      for (const auto& [index, bits] : on_bits) {
        ASSERT_EQ(off_bits.count(index), 1u) << where << " function " << index;
        EXPECT_EQ(off_bits.at(index), bits) << where << " function " << index;
      }
      shortlisted += on_outcome.prefilter_shortlist;
      total += on_outcome.total;
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_GT(shortlisted, 0u);
  EXPECT_LT(shortlisted, total) << "shortlist never pruned anything";
  // The default K keeps every exact candidate on this corpus, so the
  // prefiltered report equals the exact one. (If this corpus ever loses a
  // candidate, the defaults are mistuned: a real regression, not a flake.)
  EXPECT_EQ(on.canonical_text(), off.canonical_text());
}

TEST(Engine, PrefilterFallsBackToExactBelowMinTotal) {
  // Tiny targets are cheaper to scan exactly than to index; the outcome
  // records the applied mode (off) plus the fallback marker.
  const EngineUniverse& u = universe();
  EngineConfig config = prefilter_config(retrieval::PrefilterMode::on);
  config.pipeline.prefilter_min_total = 1u << 20;
  const ScanReport report = ScanEngine(config).run(u.request());
  ASSERT_FALSE(report.results.empty());
  for (const CveScanResult& result : report.results) {
    for (const DetectionOutcome* outcome :
         {&result.from_vulnerable, &result.from_patched}) {
      EXPECT_EQ(outcome->prefilter_mode, retrieval::PrefilterMode::off);
      EXPECT_TRUE(outcome->prefilter_exact_fallback);
      EXPECT_EQ(outcome->prefilter_shortlist, 0u);
    }
  }
  const ScanReport off =
      ScanEngine(prefilter_config(retrieval::PrefilterMode::off))
          .run(u.request());
  EXPECT_EQ(report.canonical_text(), off.canonical_text());
}

TEST(Engine, PrefilterConfigChangeInvalidatesOutcomesButNotFeatures) {
  // Turning the prefilter on (or resizing K) changes which functions the
  // network scores, so cached outcomes keyed to the old config must miss.
  const EngineUniverse& u = universe();
  const std::string dir = scratch_dir("engine_invalidate_prefilter");
  EngineConfig config;
  config.jobs = 2;
  config.cache_dir = dir;
  ScanEngine(config).run(u.request());

  EngineConfig prefiltered = config;
  prefiltered.pipeline.prefilter_mode = retrieval::PrefilterMode::on;
  prefiltered.pipeline.prefilter_min_total = 0;
  const ScanReport report = ScanEngine(prefiltered).run(u.request());
  EXPECT_EQ(report.cache.feature_hits, report.analyzed_libraries);
  EXPECT_EQ(report.cache.outcome_hits, 0u);
  EXPECT_EQ(report.cache.outcome_misses, report.results.size());

  EngineConfig wider = prefiltered;
  wider.pipeline.prefilter_top_k = prefiltered.pipeline.prefilter_top_k * 2;
  const ScanReport rewidened = ScanEngine(wider).run(u.request());
  EXPECT_EQ(rewidened.cache.outcome_hits, 0u);
}

TEST(Engine, PrefilteredOutcomesSurviveWarmCacheByteIdentical) {
  // Warm runs replay prefiltered outcomes (shortlist stats and provenance)
  // from the cache byte-for-byte.
  const EngineUniverse& u = universe();
  EngineConfig config;
  config.jobs = 4;  // memory-only cache
  config.pipeline.prefilter_mode = retrieval::PrefilterMode::on;
  config.pipeline.prefilter_min_total = 0;
  ScanEngine engine(config);
  const ScanReport cold = engine.run(u.request());
  const ScanReport warm = engine.run(u.request());
  EXPECT_EQ(warm.cache.misses(), 0u);
  EXPECT_EQ(warm.canonical_text(), cold.canonical_text());
  EXPECT_EQ(warm.provenance_jsonl(), cold.provenance_jsonl());
  for (std::size_t i = 0; i < warm.results.size(); ++i) {
    EXPECT_EQ(warm.results[i].from_vulnerable.prefilter_mode,
              cold.results[i].from_vulnerable.prefilter_mode);
    EXPECT_EQ(warm.results[i].from_vulnerable.prefilter_shortlist,
              cold.results[i].from_vulnerable.prefilter_shortlist);
  }
}

TEST(Engine, RetainedIndexIsReusedUntilClearMemory) {
  // The memory tier keeps each library's retrieval index beside its
  // features. A scan whose CVE entries all hit needs neither. A scan whose
  // entries miss (here: another model) but whose features hit builds no
  // index while one is retained; clear_memory() costs exactly one rebuild
  // per library, after which the index is retained again. This counter is
  // the one that shows the reuse: perfbench's traced replay calls
  // ensure_retrieval_index on a fresh AnalyzedLibrary, so its
  // retrieval.index_build_s still books one build per library.
  const EngineUniverse& u = universe();
  const obs::EnabledScope obs_on(true);
  const obs::Counter& builds =
      obs::Registry::global().counter("retrieval.index_builds");
  EngineConfig config;
  config.jobs = 2;
  config.cache_dir = scratch_dir("engine_retained_index");
  config.pipeline.prefilter_mode = retrieval::PrefilterMode::on;
  config.pipeline.prefilter_min_total = 0;
  ScanEngine engine(config);
  EngineConfig uncached = config;
  uncached.use_cache = false;
  std::vector<SimilarityModel> models(4, u.model);
  for (std::size_t m = 1; m < models.size(); ++m)
    models[m].network().layers()[0].weights()[0] += static_cast<float>(m);
  // Index builds during one scan with models[m]; its report must be an
  // uncached scan's.
  const auto builds_during = [&](std::size_t m, ScanReport& report) {
    ScanRequest request = u.request();
    request.model = &models[m];
    const std::uint64_t before = builds.value();
    report = engine.run(request);
    const std::uint64_t built = builds.value() - before;
    EXPECT_EQ(report.canonical_text(),
              ScanEngine(uncached).run(request).canonical_text())
        << "model " << m;
    return built;
  };

  ScanReport cold, warm, remodeled, cleared, rewarmed;
  EXPECT_EQ(builds_during(0, cold), cold.analyzed_libraries);
  ASSERT_GE(cold.analyzed_libraries, 2u);
  EXPECT_EQ(builds_during(0, warm), 0u);
  EXPECT_EQ(warm.cache.feature_hits, 0u);
  EXPECT_EQ(builds_during(1, remodeled), 0u);
  EXPECT_EQ(remodeled.cache.feature_hits, remodeled.analyzed_libraries);
  engine.cache().clear_memory();
  EXPECT_EQ(builds_during(2, cleared), cold.analyzed_libraries);
  EXPECT_EQ(cleared.cache.disk_loads, cleared.cache.hits());
  EXPECT_EQ(builds_during(3, rewarmed), 0u);
  EXPECT_EQ(rewarmed.cache.feature_hits, rewarmed.analyzed_libraries);
}

TEST(Engine, WarmOutcomeHitBuildsNoClasses) {
  // Feature classes are built inside a detect that scores every function,
  // never in analyze and never cached: a run whose outcomes all hit the
  // cache builds none, and a prefilter-`on` run (which scores only its
  // shortlist) builds none either.
  const EngineUniverse& u = universe();
  const obs::EnabledScope obs_on(true);
  const obs::Counter& builds =
      obs::Registry::global().counter("pipeline.feature_class_builds");
  EngineConfig config;
  config.jobs = 4;
  ScanEngine engine(config);
  std::uint64_t before = builds.value();
  const ScanReport cold = engine.run(u.request());
  EXPECT_EQ(builds.value() - before, cold.analyzed_libraries);
  before = builds.value();
  const ScanReport warm = engine.run(u.request());
  EXPECT_EQ(warm.cache.outcome_hits, warm.results.size());
  EXPECT_EQ(builds.value() - before, 0u);
  EXPECT_EQ(warm.canonical_text(), cold.canonical_text());

  config.pipeline.prefilter_mode = retrieval::PrefilterMode::on;
  config.pipeline.prefilter_min_total = 0;
  before = builds.value();
  ScanEngine(config).run(u.request());
  EXPECT_EQ(builds.value() - before, 0u);
}

TEST(Engine, ConcurrentRunsOnOneEngineStayDeterministic) {
  // The scan service dispatches many requests through one resident engine;
  // concurrent run() calls share the result cache and the global pool but
  // must not share per-run state.
  const EngineUniverse& u = universe();
  EngineConfig config;
  config.jobs = 2;
  ScanEngine engine(config);
  const std::string expected =
      ScanEngine(EngineConfig{}).run(u.request()).canonical_text();
  constexpr int kRuns = 4;
  std::vector<std::string> reports(kRuns);
  std::vector<std::thread> threads;
  for (int i = 0; i < kRuns; ++i)
    threads.emplace_back(
        [&, i] { reports[i] = engine.run(u.request()).canonical_text(); });
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kRuns; ++i) EXPECT_EQ(reports[i], expected) << i;
}

}  // namespace
}  // namespace patchecko
