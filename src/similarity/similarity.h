// Dynamic semantic similarity (Section III-C).
//
// Each function execution yields a 21-wide dynamic feature vector; the
// similarity between a CVE function f and a candidate g is the Minkowski
// distance of order p=3 between their vectors (Eq. 1), averaged over the K
// fixed execution environments (Eq. 2). Smaller is more similar.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "binary/binary.h"
#include "source/interp.h"
#include "vm/dynamic_features.h"
#include "vm/machine.h"

namespace patchecko {

/// Per-environment dynamic feature vectors of one function. Environments
/// where the function did not terminate normally are nullopt.
/// `effect_hash` captures the paper's "ultimate effect on the memory after
/// the function finishes execution": a hash over the return value and the
/// final contents of every environment buffer. It is not part of the
/// 21-feature distance (Table II fidelity) but breaks exact trace ties
/// between count-identical lookalikes.
struct DynamicProfile {
  std::vector<std::optional<DynamicFeatures>> per_env;
  std::vector<std::optional<std::uint64_t>> effect_hash;

  std::size_t successful_runs() const;
};

/// Number of environments where both profiles succeeded with identical
/// memory/return effects.
std::size_t effect_matches(const DynamicProfile& a, const DynamicProfile& b);

/// Executes the function under every environment and records its features.
DynamicProfile profile_function(const Machine& machine,
                                std::size_t function_index,
                                const std::vector<CallEnv>& environments);

/// Stage 2 for one stage-1 candidate in a single pass: the paper's execution
/// validation and profiling together. Runs the environments in order and
/// stops at the first one where the candidate does not return normally:
/// the candidate is pruned, nullopt is returned and that environment's index
/// goes to `crash_env` (when non-null). Otherwise returns the profile, which
/// then has every environment filled in.
std::optional<DynamicProfile> profile_candidate(
    const Machine& machine, std::size_t function_index,
    const std::vector<CallEnv>& environments, std::size_t* crash_env = nullptr);

/// Eq. (1) + (2): mean Minkowski-p distance over environments where both
/// profiles succeeded. Returns +inf if no common environment exists.
double profile_distance(const DynamicProfile& a, const DynamicProfile& b,
                        double p = 3.0);

/// Eq. (1) per environment: the Minkowski-p distance in each environment,
/// NaN where either profile failed to terminate there. profile_distance()
/// is the mean of the non-NaN entries; exposing them individually feeds
/// decision provenance (why *this* environment pulled the aggregate up).
std::vector<double> per_env_distances(const DynamicProfile& a,
                                      const DynamicProfile& b, double p = 3.0);

struct RankedCandidate {
  std::size_t function_index = 0;
  double distance = 0.0;
  double secondary = 0.0;  ///< tie-break score (higher wins), e.g. Stage-1
};

struct CandidateProfile {
  std::size_t function_index = 0;
  DynamicProfile profile;
  double secondary = 0.0;
};

/// Sorts candidates by ascending distance to the reference profile; exact
/// distance ties (family lookalikes whose traces coincide on every
/// environment) break on the higher secondary score.
std::vector<RankedCandidate> rank_by_similarity(
    const DynamicProfile& reference,
    const std::vector<CandidateProfile>& candidates, double p = 3.0);

}  // namespace patchecko
