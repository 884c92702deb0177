#include "core/pipeline.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace patchecko {

namespace {

/// Stage counters and latency histograms behind `--metrics`. The stage
/// stopwatches the pipeline keeps anyway (dl_seconds/da_seconds) feed the
/// histograms, so enabling metrics adds no extra clock reads per stage.
struct PipelineMetrics {
  obs::Counter& functions_analyzed =
      obs::Registry::global().counter("pipeline.functions_analyzed");
  /// Model pairs stage 1 actually ran: one per feature class on an exact
  /// scan, one per shortlisted function under prefilter `on`.
  obs::Counter& stage1_pairs_scored =
      obs::Registry::global().counter("pipeline.stage1_pairs_scored");
  obs::Counter& feature_class_builds =
      obs::Registry::global().counter("pipeline.feature_class_builds");
  obs::Counter& candidates_stage1 =
      obs::Registry::global().counter("pipeline.candidates_stage1");
  obs::Counter& candidates_executed =
      obs::Registry::global().counter("pipeline.candidates_executed");
  obs::Counter& candidates_pruned =
      obs::Registry::global().counter("pipeline.candidates_pruned");
  obs::Histogram& analyze_seconds =
      obs::Registry::global().histogram("pipeline.analyze_seconds");
  obs::Histogram& dl_seconds =
      obs::Registry::global().histogram("pipeline.dl_seconds");
  obs::Histogram& da_seconds =
      obs::Registry::global().histogram("pipeline.da_seconds");
  obs::Histogram& patch_seconds =
      obs::Registry::global().histogram("pipeline.patch_seconds");
  /// Candidates whose stage-2 result came from a ProfileMemo, not the VM.
  obs::Counter& profile_reuses =
      obs::Registry::global().counter("vm.profile_reuses");

  // Stage-1 retrieval prefilter (src/retrieval).
  obs::Counter& prefilter_shortlisted =
      obs::Registry::global().counter("pipeline.prefilter_shortlisted");
  obs::Counter& prefilter_pruned =
      obs::Registry::global().counter("pipeline.prefilter_pruned");
  obs::Counter& prefilter_exact_fallbacks =
      obs::Registry::global().counter("pipeline.prefilter_exact_fallbacks");
  obs::Counter& index_builds =
      obs::Registry::global().counter("retrieval.index_builds");
  obs::Counter& index_vectors =
      obs::Registry::global().counter("retrieval.index_vectors");
  obs::Counter& index_distinct_codes =
      obs::Registry::global().counter("retrieval.index_distinct_codes");
  obs::Histogram& index_build_seconds =
      obs::Registry::global().histogram("retrieval.index_build_seconds");

  static PipelineMetrics& get() {
    static PipelineMetrics metrics;
    return metrics;
  }
};

inline bool is_cancelled(const std::atomic<bool>* cancel) {
  return cancel != nullptr && cancel->load(std::memory_order_relaxed);
}

}  // namespace

AnalyzedLibrary analyze_library(const LibraryBinary& library,
                                unsigned worker_threads) {
  const obs::ScopedSpan span("pipeline.analyze");
  const Stopwatch watch;
  AnalyzedLibrary analyzed;
  analyzed.binary = &library;
  analyzed.features.resize(library.functions.size());
  parallel_for(library.functions.size(), worker_threads, [&](std::size_t i) {
    analyzed.features[i] = extract_static_features(library.functions[i]);
  });
  PipelineMetrics::get().functions_analyzed.add(library.functions.size());
  PipelineMetrics::get().analyze_seconds.record(watch.elapsed_seconds());
  return analyzed;
}

void ensure_retrieval_index(AnalyzedLibrary& analyzed) {
  if (analyzed.index != nullptr) return;
  const obs::ScopedSpan span("retrieval.index_build");
  analyzed.index = retrieval::FunctionIndex::build_shared(analyzed.features);
  PipelineMetrics& metrics = PipelineMetrics::get();
  metrics.index_builds.add(1);
  metrics.index_vectors.add(analyzed.features.size());
  metrics.index_distinct_codes.add(analyzed.index->stats().distinct_codes);
  metrics.index_build_seconds.record(analyzed.index->stats().build_seconds);
}

const FeatureClasses& LazyFeatureClasses::get(
    const std::vector<StaticFeatureVector>& features) const {
  std::call_once(state_->once, [&] {
    state_->classes = classify_by_bytes(features);
    PipelineMetrics::get().feature_class_builds.add(1);
  });
  return state_->classes;
}

Patchecko::Patchecko(const SimilarityModel* model, PipelineConfig config)
    : model_(model), config_(config) {}

DetectionOutcome Patchecko::detect(const CveEntry& entry,
                                   const AnalyzedLibrary& target,
                                   bool query_is_patched,
                                   const std::atomic<bool>* cancel,
                                   const retrieval::QuantizedVector* query_code,
                                   ProfileMemo* memo) const {
  DetectionOutcome outcome;
  outcome.cve_id = entry.spec.cve_id;
  outcome.query_is_patched = query_is_patched;
  outcome.total = target.features.size();

  // Stage 1 matches the cross-platform (db-arch) reference features; Stage 2
  // compares against the reference profile collected on the target's own
  // architecture (the paper runs the injected reference binary on-device).
  const StaticFeatureVector& query_features =
      query_is_patched ? entry.patched_features : entry.vulnerable_features;
  const ArchRefs* refs = entry.refs_for(target.binary->arch);
  const DynamicProfile& query_profile =
      refs != nullptr
          ? (query_is_patched ? refs->patched_profile
                              : refs->vulnerable_profile)
          : (query_is_patched ? entry.patched_profile
                              : entry.vulnerable_profile);

  // --- Stage 1 prefilter ----------------------------------------------------
  // Shortlist the target functions nearest to the query in quantized feature
  // space (index.h) so the model scores K pairs instead of all of them.
  // Small targets, a zero K, or a missing index fall back to the exact path.
  retrieval::PrefilterMode prefilter = config_.prefilter_mode;
  if (prefilter != retrieval::PrefilterMode::off &&
      (config_.prefilter_top_k == 0 || target.index == nullptr ||
       target.features.size() < config_.prefilter_min_total)) {
    outcome.prefilter_exact_fallback = true;
    prefilter = retrieval::PrefilterMode::off;
  }
  outcome.prefilter_mode = prefilter;
  std::vector<std::uint32_t> shortlist;
  if (prefilter != retrieval::PrefilterMode::off) {
    const obs::ScopedSpan prefilter_span("pipeline.detect.prefilter");
    shortlist = target.index->top_k(
        query_code != nullptr ? *query_code : retrieval::quantize(query_features),
        config_.prefilter_top_k);
    outcome.prefilter_shortlist = shortlist.size();
  }

  // --- Stage 1: deep-learning classification --------------------------------
  // `on` scores only shortlisted functions; everything else is classified
  // negative unscored. `off` scores every function, each distinct feature
  // vector once: a function's score is its class representative's
  // (DESIGN.md §22). The scored functions split into chunks of
  // stage1_chunk_pairs that score independently into one array, a tile of
  // QueryScorer::kTile targets per score_batch call with the cancel flag
  // checked between tiles; a serial pass in index order then classifies
  // every function, so the outcome does not depend on the worker count.
  Stopwatch dl_watch;
  const std::size_t total = outcome.total;
  const FeatureClasses* classes =
      prefilter == retrieval::PrefilterMode::on ? nullptr
                                                : &target.feature_classes();
  const std::vector<std::uint32_t>& scored =
      classes != nullptr ? classes->representatives : shortlist;
  std::vector<float> scores(scored.size());
  std::atomic<bool> stage1_cancelled{false};
  {
    const obs::ScopedSpan dl_span("pipeline.detect.dl");
    const std::size_t chunks =
        (scored.size() + stage1_chunk_pairs - 1) / stage1_chunk_pairs;
    parallel_for(chunks, config_.worker_threads, [&](std::size_t c) {
      const std::size_t begin = c * stage1_chunk_pairs;
      const std::size_t end =
          std::min(scored.size(), begin + stage1_chunk_pairs);
      QueryScorer scorer(*model_, query_features);
      std::array<const StaticFeatureVector*, QueryScorer::kTile> tile{};
      std::size_t j = begin;
      while (j < end && !is_cancelled(cancel)) {
        const std::size_t n = std::min(tile.size(), end - j);
        for (std::size_t k = 0; k < n; ++k)
          tile[k] = &target.features[scored[j + k]];
        scorer.score_batch({tile.data(), n}, {scores.data() + j, n});
        j += n;
      }
      PipelineMetrics::get().stage1_pairs_scored.add(j - begin);
      if (j < end) stage1_cancelled.store(true, std::memory_order_relaxed);
    });
  }
  // A cancelled stage 1 classifies nothing: its scores are incomplete.
  outcome.cancelled = stage1_cancelled.load(std::memory_order_relaxed);
  std::vector<float> candidate_scores;
  std::size_t shortlist_pos = 0;
  for (std::size_t i = 0; i < total && !outcome.cancelled; ++i) {
    const bool is_target =
        target.binary->functions[i].source_uid == entry.target_uid;
    const bool was_scored =
        classes != nullptr ||
        (shortlist_pos < shortlist.size() && shortlist[shortlist_pos] == i);
    if (was_scored) {
      const float score = classes != nullptr ? scores[classes->class_of[i]]
                                             : scores[shortlist_pos++];
      if (score >= config_.detection_threshold) {
        outcome.candidates.push_back(i);
        candidate_scores.push_back(score);
        ++(is_target ? outcome.true_positives : outcome.false_positives);
        continue;
      }
    }
    // Rejected by the model, or pruned before it ran: a true match pruned
    // by the shortlist is the prefilter's recall loss and lands in
    // false_negatives like any stage-1 miss.
    ++(is_target ? outcome.false_negatives : outcome.true_negatives);
  }
  outcome.dl_seconds = dl_watch.elapsed_seconds();

  // --- Stage 2: execution validation + dynamic ranking ----------------------
  // One pass per candidate: its first crashing environment prunes it, else
  // the same runs are its profile. Candidates are independent, so this fans
  // out over worker threads (each thread runs on its own VM image). The
  // memo is only read here; this call's new results go in after the loop.
  Stopwatch da_watch;
  const Machine machine(*target.binary, config_.machine);
  std::vector<CandidateProfile> profiles;
  std::vector<std::optional<CandidateProfile>> slots(
      outcome.candidates.size());
  std::vector<std::int64_t> crash_envs(outcome.candidates.size(), -1);
  std::vector<char> reused(outcome.candidates.size(), 0);
  {
    const obs::ScopedSpan exec_span("pipeline.detect.exec");
    parallel_for(outcome.candidates.size(), config_.worker_threads,
                 [&](std::size_t c) {
                   // Cooperative cancellation: already-claimed candidates
                   // drain as no-ops so parallel_for still joins cleanly.
                   if (is_cancelled(cancel)) return;
                   const std::size_t index = outcome.candidates[c];
                   if (memo != nullptr) {
                     const auto hit = memo->results.find(index);
                     if (hit != memo->results.end()) {
                       reused[c] = 1;
                       crash_envs[c] = hit->second.crash_env;
                       if (hit->second.profile)
                         slots[c] = CandidateProfile{
                             index, *hit->second.profile, candidate_scores[c]};
                       return;
                     }
                   }
                   std::size_t crash_env = 0;
                   std::optional<DynamicProfile> profile = profile_candidate(
                       machine, index, entry.environments, &crash_env);
                   if (!profile) {
                     crash_envs[c] = static_cast<std::int64_t>(crash_env);
                     return;
                   }
                   slots[c] = CandidateProfile{index, std::move(*profile),
                                               candidate_scores[c]};
                 });
    // Survivors move into `profiles` in candidate order; a moved-from slot
    // still reads as validated.
    profiles.reserve(slots.size());
    for (auto& slot : slots)
      if (slot.has_value()) profiles.push_back(std::move(*slot));
  }
  outcome.executed = profiles.size();
  {
    const obs::ScopedSpan rank_span("pipeline.detect.rank");
    outcome.ranking =
        rank_by_similarity(query_profile, profiles, config_.minkowski_p);
    for (std::size_t r = 0; r < outcome.ranking.size(); ++r) {
      const std::size_t index = outcome.ranking[r].function_index;
      if (target.binary->functions[index].source_uid == entry.target_uid) {
        outcome.rank_of_target = static_cast<int>(r) + 1;
        break;
      }
    }
  }
  outcome.da_seconds = da_watch.elapsed_seconds();
  if (is_cancelled(cancel)) outcome.cancelled = true;

  // --- decision provenance ---------------------------------------------------
  outcome.provenance.threshold = config_.detection_threshold;
  outcome.provenance.minkowski_p = config_.minkowski_p;
  outcome.provenance.total = outcome.total;
  outcome.provenance.executed = outcome.executed;
  outcome.provenance.prefilter = static_cast<std::uint8_t>(prefilter);
  outcome.provenance.prefilter_shortlist = outcome.prefilter_shortlist;
  outcome.provenance.candidates.reserve(outcome.candidates.size());
  std::size_t survivor = 0;
  for (std::size_t c = 0; c < outcome.candidates.size(); ++c) {
    obs::CandidateRecord record;
    record.function_index = outcome.candidates[c];
    record.dl_score = candidate_scores[c];
    record.validated = slots[c].has_value();
    record.crash_env = crash_envs[c];
    if (record.validated) {
      record.env_distances = per_env_distances(
          query_profile, profiles[survivor++].profile, config_.minkowski_p);
      for (std::size_t r = 0; r < outcome.ranking.size(); ++r) {
        if (outcome.ranking[r].function_index == outcome.candidates[c]) {
          record.distance = outcome.ranking[r].distance;
          record.rank = static_cast<std::int64_t>(r) + 1;
          break;
        }
      }
    }
    outcome.provenance.candidates.push_back(std::move(record));
  }
  if (obs::events_enabled()) {
    obs::EventLog::global().emit(
        obs::Severity::info, "pipeline.stage1",
        {obs::Field::text("cve", entry.spec.cve_id),
         obs::Field::text("query", query_is_patched ? "patched" : "vulnerable"),
         obs::Field::u64("total", outcome.total),
         obs::Field::u64("candidates", outcome.candidates.size())});
    for (const obs::CandidateRecord& record : outcome.provenance.candidates)
      if (!record.validated)
        obs::EventLog::global().emit(
            obs::Severity::debug, "pipeline.candidate_pruned",
            {obs::Field::text("cve", entry.spec.cve_id),
             obs::Field::u64("function", record.function_index),
             obs::Field::i64("crash_env", record.crash_env)});
    obs::EventLog::global().emit(
        obs::Severity::info, "pipeline.ranked",
        {obs::Field::text("cve", entry.spec.cve_id),
         obs::Field::text("query", query_is_patched ? "patched" : "vulnerable"),
         obs::Field::u64("executed", outcome.executed),
         obs::Field::i64("rank_of_target", outcome.rank_of_target)});
  }

  // This call's stage-2 results go into the memo (rewriting a reused one
  // with the same value). A cancelled call skipped candidates, so it leaves
  // the memo as it was.
  if (memo != nullptr && !outcome.cancelled) {
    for (CandidateProfile& survivor : profiles)
      memo->results[survivor.function_index].profile =
          std::move(survivor.profile);
    for (std::size_t c = 0; c < crash_envs.size(); ++c)
      if (crash_envs[c] >= 0)
        memo->results[outcome.candidates[c]].crash_env = crash_envs[c];
  }

  PipelineMetrics& metrics = PipelineMetrics::get();
  metrics.profile_reuses.add(
      static_cast<std::uint64_t>(std::count(reused.begin(), reused.end(), 1)));
  metrics.candidates_stage1.add(outcome.candidates.size());
  metrics.candidates_executed.add(outcome.executed);
  metrics.candidates_pruned.add(outcome.candidates.size() - outcome.executed);
  metrics.dl_seconds.record(outcome.dl_seconds);
  metrics.da_seconds.record(outcome.da_seconds);
  if (outcome.prefilter_exact_fallback) metrics.prefilter_exact_fallbacks.add(1);
  if (prefilter != retrieval::PrefilterMode::off) {
    metrics.prefilter_shortlisted.add(outcome.prefilter_shortlist);
    metrics.prefilter_pruned.add(outcome.total - outcome.prefilter_shortlist);
  }
  return outcome;
}

PatchDecision Patchecko::decide_patch(
    const CveEntry& entry, const AnalyzedLibrary& target,
    std::size_t target_function, const DynamicProfile& target_profile) const {
  const FunctionBinary& fn = target.binary->functions[target_function];
  const StaticFeatureVector target_features = target.features[target_function];
  const DiffSignature target_signature = make_signature(fn);

  // Prefer the architecture-matched references: comparing an ARM target to
  // x86 references would drown patch-sized deltas in codegen noise.
  const ArchRefs* refs = entry.refs_for(target.binary->arch);
  const StaticFeatureVector& ref_vuln_features =
      refs != nullptr ? refs->vulnerable_features : entry.vulnerable_features;
  const StaticFeatureVector& ref_patch_features =
      refs != nullptr ? refs->patched_features : entry.patched_features;
  const DiffSignature& ref_vuln_signature =
      refs != nullptr ? refs->vulnerable_signature
                      : entry.vulnerable_signature;
  const DiffSignature& ref_patch_signature =
      refs != nullptr ? refs->patched_signature : entry.patched_signature;
  const DynamicProfile& ref_vuln_profile =
      refs != nullptr ? refs->vulnerable_profile : entry.vulnerable_profile;
  const DynamicProfile& ref_patch_profile =
      refs != nullptr ? refs->patched_profile : entry.patched_profile;

  const double dist_vulnerable = profile_distance(
      ref_vuln_profile, target_profile, config_.minkowski_p);
  const double dist_patched = profile_distance(
      ref_patch_profile, target_profile, config_.minkowski_p);

  return detect_patch(ref_vuln_features, ref_patch_features, target_features,
                      ref_vuln_signature, ref_patch_signature,
                      target_signature, dist_vulnerable, dist_patched);
}

PatchReport Patchecko::full_report(const CveEntry& entry,
                                   const AnalyzedLibrary& target) const {
  // Section II-B: "PATCHECKO will ... restart the whole process based on the
  // patched version of the vulnerable function" — both references always
  // drive a search, because either one alone can miss (the vulnerable query
  // misses heavily-patched targets, the paper's CVE-2017-13209 case).
  ProfileMemo memo;
  const DetectionOutcome from_vulnerable =
      detect(entry, target, /*query_is_patched=*/false, nullptr, nullptr,
             &memo);
  const DetectionOutcome from_patched =
      detect(entry, target, /*query_is_patched=*/true, nullptr, nullptr,
             &memo);
  return report_from(entry, target, from_vulnerable, from_patched, nullptr,
                     &memo);
}

void ProfileMemo::retain(const std::vector<std::size_t>& keep) {
  for (auto it = results.begin(); it != results.end();)
    it = std::find(keep.begin(), keep.end(), it->first) == keep.end()
             ? results.erase(it)
             : std::next(it);
}

std::vector<std::size_t> patch_pool(const DetectionOutcome& from_vulnerable,
                                    const DetectionOutcome& from_patched,
                                    std::size_t patch_candidates) {
  std::vector<std::size_t> pool;
  for (const DetectionOutcome* outcome : {&from_vulnerable, &from_patched}) {
    const std::size_t considered =
        std::min(patch_candidates, outcome->ranking.size());
    for (std::size_t r = 0; r < considered; ++r) {
      const std::size_t index = outcome->ranking[r].function_index;
      if (std::find(pool.begin(), pool.end(), index) == pool.end())
        pool.push_back(index);
    }
  }
  return pool;
}

PatchReport Patchecko::report_from(const CveEntry& entry,
                                   const AnalyzedLibrary& target,
                                   const DetectionOutcome& from_vulnerable,
                                   const DetectionOutcome& from_patched,
                                   const std::atomic<bool>* cancel,
                                   const ProfileMemo* memo) const {
  const obs::ScopedSpan span("pipeline.patch");
  const Stopwatch watch;
  PatchReport report;
  report.cve_id = entry.spec.cve_id;

  // Pool the top candidates of both rankings; the differential subject is
  // the one nearest to *either* reference profile (a false positive is far
  // from both). No ground-truth knowledge is involved.
  const std::vector<std::size_t> pool =
      patch_pool(from_vulnerable, from_patched, config_.patch_candidates);
  if (pool.empty()) {
    PipelineMetrics::get().patch_seconds.record(watch.elapsed_seconds());
    return report;
  }

  const ArchRefs* refs = entry.refs_for(target.binary->arch);
  const DynamicProfile& ref_vuln_profile =
      refs != nullptr ? refs->vulnerable_profile : entry.vulnerable_profile;
  const DynamicProfile& ref_patch_profile =
      refs != nullptr ? refs->patched_profile : entry.patched_profile;
  std::size_t best_slot = 0;
  // Pool members are validated candidates, so a memo profile (all runs ok)
  // is exactly what profile_function would return; only misses run, on a
  // Machine built for the first of them.
  std::optional<Machine> machine;
  std::vector<DynamicProfile> computed;
  std::vector<const DynamicProfile*> profiles;  // index-aligned with pool
  double best_distance = std::numeric_limits<double>::infinity();
  std::size_t best_effects = 0;
  report.pool.reserve(pool.size());
  computed.reserve(pool.size());  // never reallocates: `profiles` points in
  std::size_t reuses = 0;
  for (std::size_t index : pool) {
    if (is_cancelled(cancel)) break;
    const DynamicProfile* memo_profile = nullptr;
    if (memo != nullptr)
      if (const auto hit = memo->results.find(index);
          hit != memo->results.end() && hit->second.profile)
        memo_profile = &*hit->second.profile;
    if (memo_profile != nullptr) {
      ++reuses;
    } else {
      if (!machine) machine.emplace(*target.binary, config_.machine);
      computed.push_back(
          profile_function(*machine, index, entry.environments));
    }
    const DynamicProfile& profile =
        memo_profile != nullptr ? *memo_profile : computed.back();
    obs::PatchCandidateRecord member;
    member.function_index = index;
    member.distance_vulnerable =
        profile_distance(ref_vuln_profile, profile, config_.minkowski_p);
    member.distance_patched =
        profile_distance(ref_patch_profile, profile, config_.minkowski_p);
    member.effect_matches_vulnerable =
        effect_matches(ref_vuln_profile, profile);
    member.effect_matches_patched = effect_matches(ref_patch_profile, profile);
    const double distance =
        std::min(member.distance_vulnerable, member.distance_patched);
    // Trace-distance ties (count-identical lookalikes) break on memory-
    // effect agreement with either reference: only the true match computes
    // the same values, not just the same instruction counts.
    const std::size_t effects =
        std::max<std::size_t>(member.effect_matches_vulnerable,
                              member.effect_matches_patched);
    if (distance < best_distance ||
        (distance == best_distance && effects > best_effects)) {
      best_distance = distance;
      best_effects = effects;
      best_slot = report.pool.size();
    }
    report.pool.push_back(member);
    profiles.push_back(&profile);
  }
  PipelineMetrics::get().profile_reuses.add(reuses);
  if (report.pool.empty()) {
    // Cancelled before any pool member was profiled; no verdict to render.
    PipelineMetrics::get().patch_seconds.record(watch.elapsed_seconds());
    return report;
  }
  report.pool[best_slot].chosen = true;
  const std::size_t best = report.pool[best_slot].function_index;
  report.matched_function = best;
  report.decision = decide_patch(entry, target, best, *profiles[best_slot]);
  if (obs::events_enabled()) {
    const PatchDecision& decision = *report.decision;
    obs::EventLog::global().emit(
        obs::Severity::info, "pipeline.patch_verdict",
        {obs::Field::text("cve", entry.spec.cve_id),
         obs::Field::u64("function", best),
         obs::Field::text("verdict", decision.verdict == PatchVerdict::patched
                                         ? "patched"
                                         : "vulnerable"),
         obs::Field::f64("votes_vulnerable", decision.votes_vulnerable),
         obs::Field::f64("votes_patched", decision.votes_patched)});
  }
  PipelineMetrics::get().patch_seconds.record(watch.elapsed_seconds());
  return report;
}

}  // namespace patchecko
