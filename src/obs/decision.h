// Observability: per-candidate decision provenance.
//
// A scan report states *what* was decided; these records state *why*. For
// every (CVE, target) pair the pipeline fills one DecisionRecord covering
// the full verdict chain of the paper: the Stage-1 DL score against the
// detection threshold, per-environment Minkowski distances and their
// aggregate (Eq. 1–2), the crash that pruned a candidate during execution
// validation, the final rank, the differential pool the patch stage chose
// from, and the verdict with the evidence markers that produced it.
//
// Everything here is plain data over primitive/std types — obs is a leaf
// library, so these structs can be embedded in core pipeline results and
// serialized into the engine's result cache without layering cycles. All
// fields are deterministic (no wall-clock, no thread ids): the same inputs
// produce byte-identical decision_jsonl_line() output whether the scan ran
// cold, from cache, or across any number of worker threads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace patchecko::obs {

/// One Stage-1 candidate of one detect() direction, followed through
/// Stage 2. Non-candidates (score below threshold) are not recorded — on a
/// real library that would be thousands of uninteresting rows per CVE.
struct CandidateRecord {
  std::uint64_t function_index = 0;
  double dl_score = 0.0;       ///< Stage-1 similarity vs the query
  bool validated = false;      ///< survived crash-based execution validation
  std::int64_t crash_env = -1; ///< first crashing environment; -1 = none
  /// Per-environment Minkowski distance to the reference profile; NaN where
  /// either side failed to terminate in that environment. Empty when the
  /// candidate was pruned before profiling.
  std::vector<double> env_distances;
  /// Eq. (2) aggregate over common-success environments (+inf if none).
  double distance = 0.0;
  std::int64_t rank = -1;      ///< 1-based position in the ranking; -1 = pruned
};

/// Provenance of one detect() call (one query direction).
struct StageRecord {
  double threshold = 0.0;    ///< Stage-1 DL cut the candidates passed
  double minkowski_p = 0.0;  ///< Eq. (1) order used for the distances
  std::uint64_t total = 0;   ///< functions scanned by Stage 1
  std::uint64_t executed = 0;  ///< candidates surviving validation
  /// Retrieval prefilter applied to this direction: 0 = off (exact scan),
  /// 1 = on (retrieval::PrefilterMode numeric values).
  std::uint8_t prefilter = 0;
  std::uint64_t prefilter_shortlist = 0;  ///< functions the shortlist kept
  std::vector<CandidateRecord> candidates;
};

/// One member of the differential stage's candidate pool: the top-ranked
/// functions of both query directions, scored against both references.
struct PatchCandidateRecord {
  std::uint64_t function_index = 0;
  double distance_vulnerable = 0.0;  ///< dynamic distance to f_v's profile
  double distance_patched = 0.0;     ///< dynamic distance to f_p's profile
  std::uint64_t effect_matches_vulnerable = 0;
  std::uint64_t effect_matches_patched = 0;
  bool chosen = false;  ///< the function the verdict was rendered on
};

/// The complete decision chain for one (CVE, target library) scan.
struct DecisionRecord {
  std::string cve_id;
  std::string library;
  bool library_missing = false;
  /// The watchdog's hard deadline cancelled this scan mid-flight; the rest
  /// of the record covers only the work finished before cancellation.
  bool stalled = false;

  StageRecord from_vulnerable;  ///< detect() with the vulnerable query
  StageRecord from_patched;     ///< detect() with the patched query

  std::vector<PatchCandidateRecord> pool;
  std::optional<std::uint64_t> matched_function;

  /// Differential verdict; absent when nothing matched.
  bool has_verdict = false;
  bool verdict_patched = false;
  double votes_vulnerable = 0.0;
  double votes_patched = 0.0;
  double dynamic_distance_vulnerable = 0.0;
  double dynamic_distance_patched = 0.0;
  std::vector<std::string> evidence;
};

/// One JSONL line (no trailing newline): {"type":"decision","cve":...,...}.
/// Deterministic field order; non-finite doubles render as null.
std::string decision_jsonl_line(const DecisionRecord& record);

/// Inverse of decision_jsonl_line. Lines whose "type" is not "decision"
/// (meta or event lines of the same provenance file), malformed input, and
/// stages whose `prefilter` is neither 0 nor 1 (a mode this build does not
/// know, whose records it would misexplain) return nullopt. nulls parse
/// back as NaN inside env_distances and as +inf for aggregate distances, so
/// render(parse(render(r))) == render(r).
std::optional<DecisionRecord> parse_decision_line(std::string_view line);

/// True when `line` is a JSON object whose "type" is "decision", whether or
/// not parse_decision_line can read the rest of it. `explain` counts the
/// decision lines it could not read (another format version) with this.
bool is_decision_line(std::string_view line);

/// Renders the human-readable decision chain the `explain` subcommand
/// prints: Stage 1 score vs threshold, per-environment distances and the
/// Minkowski aggregate, prune/keep reason per candidate, the differential
/// pool, and the verdict with its evidence.
std::string explain_text(const DecisionRecord& record);

}  // namespace patchecko::obs
