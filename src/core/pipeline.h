// The PATCHECKO pipeline (Figure 1): deep-learning candidate detection,
// execution validation, dynamic similarity ranking, and patch-presence
// analysis over a stripped target library.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cve_database.h"
#include "dl/similarity_model.h"
#include "obs/decision.h"
#include "retrieval/index.h"
#include "util/byte_classes.h"

namespace patchecko {

struct PipelineConfig {
  /// DL similarity cut for candidates. Slightly below 0.5 so a true match
  /// behind a small patch still enters the (dynamically pruned) candidate
  /// set; the dynamic stage eliminates the extra false positives.
  float detection_threshold = 0.4f;
  double minkowski_p = 3.0;  ///< Eq. (1) order
  /// The differential stage examines this many top-ranked candidates and
  /// picks the one nearest to either reference profile.
  std::size_t patch_candidates = 3;
  /// Worker threads for Stage 2 (candidate validation + profiling). The
  /// paper parallelizes environment execution and lists per-candidate
  /// parallelism as future work; this implements both. 1 = sequential.
  unsigned worker_threads = 1;
  MachineConfig machine;

  /// Stage-1 retrieval prefilter (src/retrieval): when `on`, the DL model
  /// scores only the index's top-K shortlist per query instead of every
  /// target function. Part of the result-cache key.
  retrieval::PrefilterMode prefilter_mode = retrieval::PrefilterMode::off;
  /// Shortlist size per (CVE, query-direction).
  std::size_t prefilter_top_k = 32;
  /// Targets with fewer functions than this take the exact path even when
  /// the prefilter is on — index overhead only pays off past this size.
  std::size_t prefilter_min_total = 96;
};

/// Stage 1 scores a target in chunks of this many model pairs, fanned out
/// over `PipelineConfig::worker_threads`. A detect call that scores fewer
/// pairs (a prefiltered shortlist) runs as one inline chunk.
inline constexpr std::size_t stage1_chunk_pairs = 512;

/// A library's functions grouped by the raw bits of their 48 static
/// features (classify_by_bytes: -0.0 and 0.0 are different classes, and a
/// NaN shares a class only with the same NaN bits). QueryScorer::score is a
/// pure function of the query and target bits, so stage 1 scores one
/// representative per class and every member takes its score (DESIGN.md
/// §22).
using FeatureClasses = ByteClasses;

/// FeatureClasses built on first use, once, by whichever thread gets there
/// first. A copy starts unbuilt: it may be given other features.
class LazyFeatureClasses {
 public:
  LazyFeatureClasses() = default;
  LazyFeatureClasses(const LazyFeatureClasses&) {}
  LazyFeatureClasses& operator=(const LazyFeatureClasses&) {
    state_ = std::make_unique<State>();
    return *this;
  }

  const FeatureClasses& get(
      const std::vector<StaticFeatureVector>& features) const;

 private:
  struct State {
    std::once_flag once;
    FeatureClasses classes;
  };
  std::unique_ptr<State> state_ = std::make_unique<State>();
};

/// A target library with its static features precomputed (shared across all
/// CVE queries against the same library).
struct AnalyzedLibrary {
  const LibraryBinary* binary = nullptr;
  std::vector<StaticFeatureVector> features;
  /// Retrieval index over `features`, present when the prefilter is in use
  /// (see ensure_retrieval_index). Shared so cached analyses and in-flight
  /// scans can hold the same immutable index.
  std::shared_ptr<const retrieval::FunctionIndex> index;

  /// Classes of `features`, built by the first detect that scores every
  /// function and never cached: a CVE-entry hit needs none, so a warm
  /// scan pays nothing for them. Safe to call from concurrent detects;
  /// `features` must not change after the first call.
  const FeatureClasses& feature_classes() const {
    return classes_.get(features);
  }

 private:
  LazyFeatureClasses classes_;
};

/// Extracts the 48 static features of every function, optionally across
/// worker threads.
AnalyzedLibrary analyze_library(const LibraryBinary& library,
                                unsigned worker_threads = 1);

/// Builds `analyzed.index` if absent (no-op otherwise). Deterministic for a
/// given feature set; records retrieval.* build metrics.
void ensure_retrieval_index(AnalyzedLibrary& analyzed);

/// Everything Tables VI/VII report for one (CVE, query-version, target).
struct DetectionOutcome {
  std::string cve_id;
  bool query_is_patched = false;

  // Stage 1: deep-learning classification over all target functions.
  std::size_t total = 0;
  int true_positives = 0;
  int true_negatives = 0;
  int false_positives = 0;
  int false_negatives = 0;
  std::vector<std::size_t> candidates;
  double dl_seconds = 0.0;

  // Stage-1 prefilter (src/retrieval). `prefilter_mode` is the mode that was
  // *applied*: it reads `off` when the configured prefilter fell back to the
  // exact path (small target / missing index), with `prefilter_exact_fallback`
  // recording that the fallback fired.
  retrieval::PrefilterMode prefilter_mode = retrieval::PrefilterMode::off;
  bool prefilter_exact_fallback = false;
  std::size_t prefilter_shortlist = 0;  ///< shortlist size scored

  // Stage 2: execution validation + dynamic similarity ranking.
  std::size_t executed = 0;  ///< candidates surviving input validation
  std::vector<RankedCandidate> ranking;
  int rank_of_target = -1;   ///< 1-based; -1 when the target was missed
  double da_seconds = 0.0;

  /// Decision provenance: why each Stage-1 candidate was kept or pruned.
  /// Always filled (it is deterministic and costs one pass over data the
  /// stages computed anyway) and round-trips through the result cache, so
  /// cold and warm scans produce bitwise-identical records.
  obs::StageRecord provenance;

  /// The cooperative cancel flag fired mid-detect (watchdog hard deadline):
  /// the outcome covers only the work finished before cancellation. Never
  /// serialized — the engine refuses to cache cancelled outcomes.
  bool cancelled = false;

  double false_positive_rate() const {
    const int negatives = true_negatives + false_positives;
    return negatives == 0 ? 0.0
                          : static_cast<double>(false_positives) /
                                static_cast<double>(negatives);
  }
};

/// Stage-2 results of one CVE's candidates, keyed by function index: the
/// profile of a validated candidate, or the first environment that crashed
/// a pruned one. One memo covers one (CVE entry, target library, machine
/// config) within one run, so the index alone is a complete key. Both detect
/// directions of the CVE and its differential stage share it, so each
/// candidate runs on the VM once (see DESIGN.md §19).
struct ProfileMemo {
  struct Result {
    std::optional<DynamicProfile> profile;  ///< absent: crash-pruned
    std::int64_t crash_env = -1;            ///< set when pruned
  };
  std::unordered_map<std::size_t, Result> results;

  /// Drops every result whose function index is not in `keep`.
  void retain(const std::vector<std::size_t>& keep);
};

/// Result of the differential stage plus the target it was applied to.
struct PatchReport {
  std::string cve_id;
  std::optional<std::size_t> matched_function;  ///< top-ranked candidate
  std::optional<PatchDecision> decision;        ///< absent if nothing matched
  /// Differential-pool provenance: every pooled candidate scored against
  /// both reference profiles, with the chosen one flagged. Cached with the
  /// CVE's detection outcomes (engine/cache.h ScanEntry), so a warm scan
  /// restores it bit for bit.
  std::vector<obs::PatchCandidateRecord> pool;
};

/// The differential stage's subjects: the top `patch_candidates` of each
/// ranking, vulnerable query first, without repeats.
std::vector<std::size_t> patch_pool(const DetectionOutcome& from_vulnerable,
                                    const DetectionOutcome& from_patched,
                                    std::size_t patch_candidates);

class Patchecko {
 public:
  Patchecko(const SimilarityModel* model, PipelineConfig config = {});

  /// Stages 1+2 for one CVE against an analyzed target library.
  /// `query_is_patched` selects which reference drives the search
  /// (Table VI = vulnerable, Table VII = patched). `cancel`, when given, is
  /// the watchdog's cooperative stop flag: both stages poll it and abandon
  /// remaining work once it reads true (outcome.cancelled records that).
  /// `query_code`, when given, is the precomputed quantized form of the
  /// query's features (the corpus snapshot caches one per entry/direction);
  /// when absent the prefilter quantizes on the fly. `memo`, when given,
  /// serves candidates an earlier call on the same CVE already ran, and
  /// receives the ones this call runs (nothing when cancelled).
  DetectionOutcome detect(const CveEntry& entry,
                          const AnalyzedLibrary& target,
                          bool query_is_patched,
                          const std::atomic<bool>* cancel = nullptr,
                          const retrieval::QuantizedVector* query_code =
                              nullptr,
                          ProfileMemo* memo = nullptr) const;

  /// Full workflow: detect with the vulnerable query, take the top-ranked
  /// candidate, and decide patch presence.
  PatchReport full_report(const CveEntry& entry,
                          const AnalyzedLibrary& target) const;

  /// Differential stage given already-computed detection outcomes for both
  /// query directions — the batch engine's patch jobs consume the (possibly
  /// cache-served) outcomes of its detect jobs through this entry point.
  /// Pool members found in `memo` are not run again.
  PatchReport report_from(const CveEntry& entry, const AnalyzedLibrary& target,
                          const DetectionOutcome& from_vulnerable,
                          const DetectionOutcome& from_patched,
                          const std::atomic<bool>* cancel = nullptr,
                          const ProfileMemo* memo = nullptr) const;

  const PipelineConfig& config() const { return config_; }

 private:
  /// Differential stage on one matched target function whose profile is
  /// already known.
  PatchDecision decide_patch(const CveEntry& entry,
                             const AnalyzedLibrary& target,
                             std::size_t target_function,
                             const DynamicProfile& target_profile) const;

  const SimilarityModel* model_;
  PipelineConfig config_;
};

}  // namespace patchecko
