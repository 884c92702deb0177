// End-to-end integration tests: the full PATCHECKO workflow on a scaled-down
// evaluation universe. Asserts the paper's headline behaviours: targets
// found and ranked top-3, patch verdicts correct except the engineered
// one-integer miss, and the cross-device patch-gap signal.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "core/pipeline.h"
#include "dl/trainer.h"
#include "obs/decision.h"
#include "obs/metrics.h"

namespace patchecko {
namespace {

// Heavy fixture shared by every test in this file.
struct Universe {
  SimilarityModel model;
  std::unique_ptr<EvalCorpus> corpus;
  std::unique_ptr<CveDatabase> database;
  DeviceSpec things = android_things_device();
  std::vector<LibraryBinary> libraries;       // per corpus library
  std::vector<AnalyzedLibrary> analyzed;

  Universe() {
    TrainerConfig trainer;
    trainer.dataset.library_count = 24;
    trainer.dataset.functions_per_library = 18;
    trainer.epochs = 10;
    TrainingRun run = train_similarity_model(trainer);
    model = std::move(run.model);

    EvalConfig eval;
    eval.scale = 0.04;
    corpus = std::make_unique<EvalCorpus>(eval);
    database = std::make_unique<CveDatabase>(*corpus, DatabaseConfig{});
    for (std::size_t i = 0; i < corpus->library_specs().size(); ++i)
      libraries.push_back(corpus->compile_for_device(i, things));
    for (const LibraryBinary& lib : libraries)
      analyzed.push_back(analyze_library(lib));
  }
};

const Universe& universe() {
  static Universe instance;
  return instance;
}

// libwebview at a scale where it spans more than three stage-1 chunks plus a
// ragged tail, with the retrieval index built for the prefilter modes.
struct LargeTarget {
  std::unique_ptr<EvalCorpus> corpus;
  std::unique_ptr<CveDatabase> database;
  LibraryBinary library;
  AnalyzedLibrary analyzed;

  LargeTarget() {
    EvalConfig eval;
    eval.scale = 0.12;
    corpus = std::make_unique<EvalCorpus>(eval);
    database = std::make_unique<CveDatabase>(*corpus, DatabaseConfig{});
    const CveEntry& entry = database->by_id("CVE-2018-9498");
    library =
        corpus->compile_for_device(entry.library_index, android_things_device());
    analyzed = analyze_library(library, 1);
    ensure_retrieval_index(analyzed);
  }
};

const LargeTarget& large_target() {
  static LargeTarget instance;
  return instance;
}

/// Every stage-1 and stage-2 field of an outcome, scores and distances as
/// exact bits (via the provenance line), so equal text is equal outcomes.
std::string outcome_text(const DetectionOutcome& outcome) {
  std::ostringstream out;
  out << outcome.total << ' ' << outcome.true_positives << ' '
      << outcome.true_negatives << ' ' << outcome.false_positives << ' '
      << outcome.false_negatives << ' ' << outcome.executed << ' '
      << outcome.rank_of_target << ' ' << outcome.prefilter_shortlist << ' '
      << outcome.cancelled << '\n';
  for (std::size_t index : outcome.candidates) out << index << ',';
  out << '\n';
  for (const RankedCandidate& ranked : outcome.ranking) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &ranked.distance, sizeof(bits));
    out << ranked.function_index << ':' << bits << ' ';
  }
  obs::DecisionRecord record;
  record.from_vulnerable = outcome.provenance;
  out << '\n' << obs::decision_jsonl_line(record);
  return out.str();
}

/// The differential stage's output, distances as exact bits.
std::string report_text(const PatchReport& report) {
  obs::DecisionRecord record;
  record.pool = report.pool;
  std::ostringstream out;
  out << obs::decision_jsonl_line(record) << '\n';
  if (report.matched_function) out << *report.matched_function;
  if (report.decision) {
    const PatchDecision& decision = *report.decision;
    out << ' ' << static_cast<int>(decision.verdict) << ' '
        << decision.votes_vulnerable << ' ' << decision.votes_patched;
    for (const double value : {decision.dynamic_distance_vulnerable,
                               decision.dynamic_distance_patched}) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      out << ' ' << bits;
    }
    for (const std::string& note : decision.evidence) out << '\n' << note;
  }
  return out.str();
}

TEST(Pipeline, ModelQualityInPaperBand) {
  TrainerConfig trainer;
  trainer.dataset.library_count = 24;
  trainer.dataset.functions_per_library = 18;
  trainer.epochs = 10;
  const TrainingRun run = train_similarity_model(trainer);
  EXPECT_GT(run.test_accuracy, 0.88);  // paper: >93% detection, ~96% train
  EXPECT_GT(run.test_auc, 0.93);       // paper cites 0.971 AUC
}

TEST(Pipeline, DatabaseCoversAllCves) {
  EXPECT_EQ(universe().database->entries().size(), 25u);
  for (const CveEntry& entry : universe().database->entries()) {
    EXPECT_FALSE(entry.environments.empty()) << entry.spec.cve_id;
    EXPECT_GT(entry.vulnerable_profile.successful_runs(), 0u)
        << entry.spec.cve_id;
    EXPECT_FALSE(entry.arch_refs.empty());
  }
}

TEST(Pipeline, DetectsMostTargetsTop3) {
  const Universe& u = universe();
  const Patchecko pipeline(&u.model);
  int found = 0, top3 = 0, total = 0;
  for (const CveEntry& entry : u.database->entries()) {
    const DetectionOutcome outcome = pipeline.detect(
        entry, u.analyzed[entry.library_index], /*query_is_patched=*/false);
    ++total;
    if (outcome.rank_of_target > 0) {
      ++found;
      if (outcome.rank_of_target <= 3) ++top3;
    }
    // Confusion-matrix bookkeeping is consistent.
    EXPECT_EQ(outcome.true_positives + outcome.false_negatives, 1);
    EXPECT_EQ(outcome.true_positives + outcome.true_negatives +
                  outcome.false_positives + outcome.false_negatives,
              static_cast<int>(outcome.total));
    EXPECT_LE(outcome.executed, outcome.candidates.size());
  }
  EXPECT_GE(found, 22);       // paper: 24 of 25 via the vulnerable query
  EXPECT_GE(top3, found - 2); // paper: top-3 100% of the time
}

TEST(Pipeline, DynamicStagePrunesCandidates) {
  const Universe& u = universe();
  const Patchecko pipeline(&u.model);
  std::size_t with_fps = 0, pruned = 0;
  for (const CveEntry& entry : u.database->entries()) {
    const DetectionOutcome outcome = pipeline.detect(
        entry, u.analyzed[entry.library_index], false);
    if (outcome.candidates.size() > 1) ++with_fps;
    if (outcome.executed < outcome.candidates.size()) ++pruned;
  }
  EXPECT_GT(with_fps, 15u);  // the DL stage produces copious candidates
}

TEST(Pipeline, PatchDetectionMatchesPaperShape) {
  const Universe& u = universe();
  const Patchecko pipeline(&u.model);
  int correct = 0, total = 0;
  bool cve_9470_wrong = false;
  for (const CveEntry& entry : u.database->entries()) {
    const PatchReport report =
        pipeline.full_report(entry, u.analyzed[entry.library_index]);
    ASSERT_TRUE(report.decision.has_value()) << entry.spec.cve_id;
    const bool truth = u.things.is_patched(entry.spec.cve_id);
    const bool says =
        report.decision->verdict == PatchVerdict::patched;
    if (says == truth)
      ++correct;
    else if (entry.spec.cve_id == "CVE-2018-9470")
      cve_9470_wrong = true;
    ++total;
  }
  EXPECT_GE(correct, 23);       // paper: 24/25
  EXPECT_TRUE(cve_9470_wrong);  // the paper's single engineered miss
}

TEST(Pipeline, Cve13209MissedByVulnerableQuery) {
  // The paper's N/A row: the heavily patched CVE-2017-13209 is invisible to
  // the vulnerable-function query but found by the patched query.
  const Universe& u = universe();
  const Patchecko pipeline(&u.model);
  const CveEntry& entry = u.database->by_id("CVE-2017-13209");
  const DetectionOutcome vuln_query = pipeline.detect(
      entry, u.analyzed[entry.library_index], /*query_is_patched=*/false);
  const DetectionOutcome patched_query = pipeline.detect(
      entry, u.analyzed[entry.library_index], /*query_is_patched=*/true);
  EXPECT_EQ(vuln_query.rank_of_target, -1);
  EXPECT_EQ(patched_query.rank_of_target, 1);
}

TEST(Pipeline, Cve9412MemmoveEvidence) {
  // The case study: the matched target still contains the memmove the
  // patch would have removed.
  const Universe& u = universe();
  const Patchecko pipeline(&u.model);
  const CveEntry& entry = u.database->by_id("CVE-2018-9412");
  const PatchReport report =
      pipeline.full_report(entry, u.analyzed[entry.library_index]);
  ASSERT_TRUE(report.decision.has_value());
  EXPECT_EQ(report.decision->verdict, PatchVerdict::vulnerable);
  bool memmove_evidence = false;
  for (const std::string& note : report.decision->evidence)
    if (note.find("memmove") != std::string::npos) memmove_evidence = true;
  EXPECT_TRUE(memmove_evidence);
}

TEST(Pipeline, MatchedFunctionIsTheTrueTarget) {
  const Universe& u = universe();
  const Patchecko pipeline(&u.model);
  int exact = 0, total = 0;
  for (const CveEntry& entry : u.database->entries()) {
    const PatchReport report =
        pipeline.full_report(entry, u.analyzed[entry.library_index]);
    if (!report.matched_function) continue;
    ++total;
    const auto& fn =
        u.libraries[entry.library_index].functions[*report.matched_function];
    if (fn.source_uid == entry.target_uid) ++exact;
  }
  EXPECT_GE(exact * 10, total * 9);  // >= 90% exact subject selection
}

TEST(Pipeline, CrossDeviceScanFindsPatchGap) {
  // Pixel 2 XL (07/2017 level) must show strictly more vulnerable verdicts
  // than Android Things (05/2018 level).
  const Universe& u = universe();
  const Patchecko pipeline(&u.model);
  const DeviceSpec pixel = pixel2xl_device();
  int things_vulnerable = 0, pixel_vulnerable = 0;
  for (const CveEntry& entry : u.database->entries()) {
    const PatchReport things_report =
        pipeline.full_report(entry, u.analyzed[entry.library_index]);
    if (things_report.decision &&
        things_report.decision->verdict == PatchVerdict::vulnerable)
      ++things_vulnerable;
    const LibraryBinary pixel_lib =
        u.corpus->compile_for_device(entry.library_index, pixel);
    const AnalyzedLibrary pixel_analyzed = analyze_library(pixel_lib);
    const PatchReport pixel_report =
        pipeline.full_report(entry, pixel_analyzed);
    if (pixel_report.decision &&
        pixel_report.decision->verdict == PatchVerdict::vulnerable)
      ++pixel_vulnerable;
  }
  EXPECT_GT(pixel_vulnerable, things_vulnerable);
}

// Stage 1 scores in chunks across workers; the merged outcome must be the
// same bits at every worker count and match a serial one-scorer pass, in
// every prefilter mode, including the `on` mode with a shortlist long
// enough to split into chunks.
TEST(Pipeline, ChunkedStage1MatchesSerial) {
  const Universe& u = universe();
  const LargeTarget& large = large_target();
  const std::size_t total = large.analyzed.features.size();
  ASSERT_GT(total, 3 * stage1_chunk_pairs);
  ASSERT_NE(total % stage1_chunk_pairs, 0u);
  const CveEntry& entry = large.database->by_id("CVE-2018-9498");

  struct Mode {
    retrieval::PrefilterMode mode;
    std::size_t top_k;
  };
  const Mode modes[] = {{retrieval::PrefilterMode::off, 32},
                        {retrieval::PrefilterMode::on, 32},
                        {retrieval::PrefilterMode::on, 2 * stage1_chunk_pairs}};
  for (const Mode& mode : modes) {
    for (const bool query_is_patched : {false, true}) {
      std::string texts[2];
      DetectionOutcome chunked;
      for (const unsigned threads : {1u, 4u}) {
        PipelineConfig config;
        config.worker_threads = threads;
        config.prefilter_mode = mode.mode;
        config.prefilter_top_k = mode.top_k;
        const Patchecko pipeline(&u.model, config);
        const DetectionOutcome outcome =
            pipeline.detect(entry, large.analyzed, query_is_patched);
        EXPECT_FALSE(outcome.cancelled);
        EXPECT_EQ(outcome.prefilter_mode, mode.mode);
        EXPECT_EQ(outcome.true_positives + outcome.true_negatives +
                      outcome.false_positives + outcome.false_negatives,
                  static_cast<int>(total));
        EXPECT_TRUE(std::is_sorted(outcome.candidates.begin(),
                                   outcome.candidates.end()));
        texts[threads == 1 ? 0 : 1] = outcome_text(outcome);
        chunked = outcome;
      }
      const std::string where = "mode " +
                                std::to_string(static_cast<int>(mode.mode)) +
                                " top_k " + std::to_string(mode.top_k) +
                                " patched " + std::to_string(query_is_patched);
      EXPECT_EQ(texts[0], texts[1]) << where;

      // Serial reference: one scorer over every function in index order,
      // classified through the shortlist; `exact` counts what the exact
      // scan accepts.
      const StaticFeatureVector& query = query_is_patched
                                             ? entry.patched_features
                                             : entry.vulnerable_features;
      std::vector<bool> shortlisted(
          total, mode.mode == retrieval::PrefilterMode::off);
      if (mode.mode != retrieval::PrefilterMode::off)
        for (const std::uint32_t i : large.analyzed.index->top_k(
                 retrieval::quantize(query), mode.top_k))
          shortlisted[i] = true;
      QueryScorer scorer(u.model, query);
      std::vector<std::size_t> candidates;
      std::vector<float> scores;
      std::size_t exact = 0;
      for (std::size_t i = 0; i < total; ++i) {
        const float score = scorer.score(large.analyzed.features[i]);
        if (score < PipelineConfig{}.detection_threshold) continue;
        ++exact;
        if (!shortlisted[i]) continue;
        candidates.push_back(i);
        scores.push_back(score);
      }
      EXPECT_EQ(chunked.candidates, candidates) << where;
      std::vector<float> chunked_scores;
      for (const obs::CandidateRecord& record :
           chunked.provenance.candidates)
        chunked_scores.push_back(static_cast<float>(record.dl_score));
      EXPECT_EQ(chunked_scores, scores) << where;
      if (mode.mode == retrieval::PrefilterMode::off) {
        EXPECT_EQ(chunked.candidates.size(), exact) << where;
      } else {
        EXPECT_LE(chunked.candidates.size(), exact) << where;
      }
    }
  }

  // A token that is already set cancels every chunk; detect still returns.
  PipelineConfig config;
  config.worker_threads = 4;
  const Patchecko pipeline(&u.model, config);
  const std::atomic<bool> cancel{true};
  DetectionOutcome outcome;
  EXPECT_NO_THROW(outcome = pipeline.detect(entry, large.analyzed, false,
                                            &cancel));
  EXPECT_TRUE(outcome.cancelled);
  EXPECT_TRUE(outcome.candidates.empty());
}

// A cancel stops stage 1 at a tile boundary, and
// pipeline.stage1_pairs_scored counts the pairs scored before it: the
// finished chunks plus the finished tiles of the chunk it interrupted, not
// that whole chunk.
TEST(Pipeline, Stage1CancelledMidChunkCountsScoredPairs) {
  const Universe& u = universe();
  const LargeTarget& large = large_target();
  const obs::EnabledScope on(true);
  const obs::Counter& pairs =
      obs::Registry::global().counter("pipeline.stage1_pairs_scored");
  const CveEntry& entry = large.database->by_id("CVE-2018-9498");
  const std::size_t representatives =
      large.analyzed.feature_classes().representatives.size();
  ASSERT_GT(representatives, stage1_chunk_pairs + QueryScorer::kTile);
  // Wide hidden layers make a chunk take long enough (about 0.1 s here)
  // for a cancel from another thread to land inside it.
  const SimilarityModel slow(Network({96, 1024, 1024, 1}, 7),
                             u.model.normalizer());
  PipelineConfig config;
  config.worker_threads = 1;
  const Patchecko pipeline(&slow, config);

  {  // Set before detect: nothing is scored or counted.
    const std::atomic<bool> cancel{true};
    const std::uint64_t before = pairs.value();
    EXPECT_TRUE(
        pipeline.detect(entry, large.analyzed, false, &cancel).cancelled);
    EXPECT_EQ(pairs.value(), before);
  }

  // A watcher sets the flag a growing delay after the first chunk is
  // counted, while the second is scoring; try until one lands inside it.
  bool mid_chunk = false;
  for (int attempt = 0; attempt < 20 && !mid_chunk; ++attempt) {
    std::atomic<bool> cancel{false};
    const std::uint64_t before = pairs.value();
    std::jthread watcher([&](std::stop_token stop) {
      while (pairs.value() < before + stage1_chunk_pairs) {
        if (stop.stop_requested()) return;
        std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2 * attempt));
      cancel.store(true);
    });
    const DetectionOutcome outcome =
        pipeline.detect(entry, large.analyzed, false, &cancel);
    watcher.request_stop();
    watcher.join();
    const std::uint64_t scored = pairs.value() - before;
    EXPECT_GE(scored, stage1_chunk_pairs);
    EXPECT_LE(scored, representatives);
    if (scored == representatives) continue;  // the cancel came after
    EXPECT_TRUE(outcome.cancelled) << scored << " of " << representatives;
    EXPECT_EQ(scored % QueryScorer::kTile, 0u) << scored;
    mid_chunk = scored % stage1_chunk_pairs != 0;
  }
  EXPECT_TRUE(mid_chunk);
}

// full_report shares one memo between its detect directions and the
// differential stage; the report must be the memo-less one, bit for bit,
// while the patched direction and the patch stage reuse VM runs.
TEST(Pipeline, ProfileMemoIsBitIdentical) {
  const Universe& u = universe();
  const Patchecko pipeline(&u.model);
  const obs::EnabledScope on(true);
  obs::Counter& runs = obs::Registry::global().counter("vm.runs");
  obs::Counter& reuses = obs::Registry::global().counter("vm.profile_reuses");
  std::uint64_t plain_runs = 0, memo_runs = 0, patch_runs = 0;
  std::uint64_t memo_reuses = 0;
  for (const CveEntry& entry : u.database->entries()) {
    const AnalyzedLibrary& target = u.analyzed[entry.library_index];
    std::uint64_t before = runs.value();
    const DetectionOutcome plain_vulnerable =
        pipeline.detect(entry, target, /*query_is_patched=*/false);
    const DetectionOutcome plain_patched =
        pipeline.detect(entry, target, /*query_is_patched=*/true);
    const PatchReport plain = pipeline.report_from(
        entry, target, plain_vulnerable, plain_patched);
    plain_runs += runs.value() - before;

    before = runs.value();
    const std::uint64_t reuses_before = reuses.value();
    ProfileMemo memo;
    const DetectionOutcome memo_vulnerable =
        pipeline.detect(entry, target, false, nullptr, nullptr, &memo);
    const DetectionOutcome memo_patched =
        pipeline.detect(entry, target, true, nullptr, nullptr, &memo);
    const std::uint64_t patch_before = runs.value();
    const PatchReport memoized = pipeline.report_from(
        entry, target, memo_vulnerable, memo_patched, nullptr, &memo);
    patch_runs += runs.value() - patch_before;
    memo_runs += runs.value() - before;
    memo_reuses += reuses.value() - reuses_before;

    EXPECT_EQ(outcome_text(memo_vulnerable), outcome_text(plain_vulnerable))
        << entry.spec.cve_id;
    EXPECT_EQ(outcome_text(memo_patched), outcome_text(plain_patched))
        << entry.spec.cve_id;
    EXPECT_EQ(report_text(memoized), report_text(plain)) << entry.spec.cve_id;
    EXPECT_EQ(report_text(pipeline.full_report(entry, target)),
              report_text(plain))
        << entry.spec.cve_id;
  }
  // Every pool member is a validated candidate detect already ran.
  EXPECT_EQ(patch_runs, 0u);
  EXPECT_GT(memo_reuses, 0u);
  EXPECT_LT(memo_runs, plain_runs);
}

// Stage 1 scores one representative per feature class. Scoring every
// function with its own QueryScorer call instead must give the same counts,
// candidates, candidate scores and stage-1 provenance, in every prefilter
// mode and at any worker count.
TEST(Pipeline, Stage1ClassesMatchDirectScoring) {
  const Universe& u = universe();
  const obs::EnabledScope on(true);
  const obs::Counter& pairs =
      obs::Registry::global().counter("pipeline.stage1_pairs_scored");
  std::size_t functions = 0, representatives = 0;
  for (const double scale : {0.05, 0.1}) {
    EvalConfig eval;
    eval.scale = scale;
    const EvalCorpus corpus(eval);
    const CveDatabase database(corpus, DatabaseConfig{});
    // The first CVE of each of the first four host libraries, plus the
    // largest library's.
    std::vector<const CveEntry*> entries{&database.by_id("CVE-2018-9498")};
    for (const CveEntry& entry : database.entries())
      if (entries.size() < 5 &&
          std::none_of(entries.begin(), entries.end(),
                       [&](const CveEntry* e) {
                         return e->library_index == entry.library_index;
                       }))
        entries.push_back(&entry);
    for (const CveEntry* entry : entries) {
      const LibraryBinary library = corpus.compile_for_device(
          entry->library_index, android_things_device());
      AnalyzedLibrary analyzed = analyze_library(library, 1);
      ensure_retrieval_index(analyzed);
      const std::size_t total = analyzed.features.size();
      const FeatureClasses& classes = analyzed.feature_classes();
      functions += total;
      representatives += classes.representatives.size();
      for (const retrieval::PrefilterMode mode :
           {retrieval::PrefilterMode::off, retrieval::PrefilterMode::on}) {
        for (const bool query_is_patched : {false, true}) {
          const StaticFeatureVector& query = query_is_patched
                                                 ? entry->patched_features
                                                 : entry->vulnerable_features;
          std::vector<bool> shortlisted(total,
                                        mode == retrieval::PrefilterMode::off);
          std::size_t shortlist_size = 0;
          if (mode != retrieval::PrefilterMode::off)
            for (const std::uint32_t i : analyzed.index->top_k(query, 32)) {
              shortlisted[i] = true;
              ++shortlist_size;
            }

          // Direct: every function scored on its own, classified in order.
          // `exact` counts what the exact scan accepts.
          DetectionOutcome direct;
          std::ostringstream records;
          std::size_t exact = 0;
          for (std::size_t i = 0; i < total; ++i) {
            const bool is_target =
                library.functions[i].source_uid == entry->target_uid;
            if (mode == retrieval::PrefilterMode::on && !shortlisted[i]) {
              ++(is_target ? direct.false_negatives : direct.true_negatives);
              continue;
            }
            const float score =
                QueryScorer(u.model, query).score(analyzed.features[i]);
            const bool accepted =
                score >= PipelineConfig{}.detection_threshold;
            if (mode == retrieval::PrefilterMode::off && accepted) ++exact;
            std::uint32_t bits = 0;
            std::memcpy(&bits, &score, sizeof(bits));
            if (accepted) {
              records << i << ':' << bits << ' ';
              direct.candidates.push_back(i);
              ++(is_target ? direct.true_positives : direct.false_positives);
            } else {
              ++(is_target ? direct.false_negatives : direct.true_negatives);
            }
          }

          for (const unsigned threads : {1u, 4u}) {
            PipelineConfig config;
            config.worker_threads = threads;
            config.prefilter_mode = mode;
            config.prefilter_min_total = 0;
            const Patchecko pipeline(&u.model, config);
            const std::uint64_t pairs_before = pairs.value();
            const DetectionOutcome outcome =
                pipeline.detect(*entry, analyzed, query_is_patched);
            const std::string where =
                library.name + " scale " + std::to_string(scale) + " mode " +
                std::to_string(static_cast<int>(mode)) + " patched " +
                std::to_string(query_is_patched) + " threads " +
                std::to_string(threads);
            EXPECT_EQ(pairs.value() - pairs_before,
                      mode == retrieval::PrefilterMode::on
                          ? shortlist_size
                          : classes.representatives.size())
                << where;
            EXPECT_EQ(outcome.true_positives, direct.true_positives) << where;
            EXPECT_EQ(outcome.true_negatives, direct.true_negatives) << where;
            EXPECT_EQ(outcome.false_positives, direct.false_positives)
                << where;
            EXPECT_EQ(outcome.false_negatives, direct.false_negatives)
                << where;
            EXPECT_EQ(outcome.candidates, direct.candidates) << where;
            if (mode == retrieval::PrefilterMode::off) {
              EXPECT_EQ(outcome.candidates.size(), exact) << where;
            }
            std::ostringstream detected;
            for (const obs::CandidateRecord& record :
                 outcome.provenance.candidates) {
              const float score = static_cast<float>(record.dl_score);
              std::uint32_t bits = 0;
              std::memcpy(&bits, &score, sizeof(bits));
              detected << record.function_index << ':' << bits << ' ';
            }
            EXPECT_EQ(detected.str(), records.str()) << where;
          }
        }
      }
    }
  }
  // The libraries repeat feature vectors, so the classes did save pairs.
  EXPECT_LT(representatives, functions);
}

// Classes compare raw bits: operator== would merge -0.0 with 0.0 and never
// match a NaN, even with itself.
TEST(Pipeline, FeatureClassesCompareRawBits) {
  const auto from_bits = [](std::uint64_t bits) {
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  };
  const StaticFeatureVector zero{};
  StaticFeatureVector negative_zero = zero;
  negative_zero[5] = -0.0;
  StaticFeatureVector nan_a = zero;
  nan_a[7] = from_bits(0x7ff8000000000001ULL);
  StaticFeatureVector nan_b = zero;
  nan_b[7] = from_bits(0x7ff8000000000002ULL);
  ASSERT_TRUE(zero == negative_zero);
  ASSERT_FALSE(nan_a == nan_a);

  const std::vector<StaticFeatureVector> features{
      zero, negative_zero, nan_a, zero, nan_a, nan_b, negative_zero};
  const FeatureClasses classes = classify_by_bytes(features);
  EXPECT_EQ(classes.class_of,
            (std::vector<std::uint32_t>{0, 1, 2, 0, 2, 3, 1}));
  EXPECT_EQ(classes.representatives,
            (std::vector<std::uint32_t>{0, 1, 2, 5}));

  // An AnalyzedLibrary builds its classes once, on first use; a copy starts
  // unbuilt and classifies its own features.
  const obs::EnabledScope on(true);
  const obs::Counter& builds =
      obs::Registry::global().counter("pipeline.feature_class_builds");
  AnalyzedLibrary analyzed;
  analyzed.features = features;
  const std::uint64_t before = builds.value();
  const FeatureClasses& built = analyzed.feature_classes();
  EXPECT_EQ(&built, &analyzed.feature_classes());
  EXPECT_EQ(builds.value() - before, 1u);
  EXPECT_EQ(built.class_of, classes.class_of);
  AnalyzedLibrary copy = analyzed;
  copy.features.push_back(negative_zero);
  EXPECT_EQ(copy.feature_classes().class_of.size(), features.size() + 1);
  EXPECT_EQ(copy.feature_classes().class_of.back(), 1u);
  EXPECT_EQ(builds.value() - before, 2u);
}

}  // namespace
}  // namespace patchecko
