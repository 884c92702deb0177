// Execution-environment generation (the paper's LibFuzzer role).
//
// The dynamic engine needs K fixed execution environments per CVE function:
// concrete argument values plus the byte buffers pointer arguments reference.
// We generate them with a light coverage-guided fuzzer: random seeds,
// mutation of surviving inputs, and greedy selection for instruction-site
// coverage of the subject function. Stage 2 then runs every candidate on
// these environments once, in order (profile_candidate in
// similarity/similarity.h): the first environment a candidate crashes on
// removes it, exactly the paper's input-validation pruning step, and a
// candidate that survives all of them has its dynamic profile from the
// same runs.
#pragma once

#include <cstdint>
#include <vector>

#include "binary/binary.h"
#include "source/interp.h"
#include "util/rng.h"
#include "vm/machine.h"

namespace patchecko {

struct FuzzConfig {
  std::size_t env_count = 6;        ///< K fixed environments to produce
  std::size_t attempts = 96;        ///< generation/mutation budget
  std::int64_t min_buffer = 8;
  std::int64_t max_buffer = 96;
  MachineConfig machine;
};

/// A fresh random environment for the given signature. Pointer parameters
/// get byte buffers; by corpus convention an i64 parameter directly following
/// a ptr is that buffer's length, so it is set consistently.
CallEnv random_env(Rng& rng, const std::vector<ValueType>& params,
                   const FuzzConfig& config);

/// Mutates an environment: byte flips, length-preserving splices, integer
/// tweaks, and dictionary injections (adjacent pairs of interesting bytes).
/// Keeps length parameters consistent with their buffers.
CallEnv mutate_env(Rng& rng, const CallEnv& env,
                   const std::vector<ValueType>& params,
                   const FuzzConfig& config,
                   const std::vector<std::uint8_t>& dictionary = {});

/// LibFuzzer-style dictionary: byte-sized immediates harvested from the
/// subject's code. Comparison guards ("data[i] == 0xff") compare against
/// materialized constants, so planting these bytes in the input is what
/// drives execution into rare branches.
std::vector<std::uint8_t> byte_dictionary(const FunctionBinary& function);

/// Coverage-guided environment selection for `function_index` of `library`:
/// returns up to env_count environments on which the subject executes
/// successfully, preferring diverse instruction coverage.
std::vector<CallEnv> generate_environments(const LibraryBinary& library,
                                           std::size_t function_index,
                                           Rng& rng,
                                           const FuzzConfig& config);

}  // namespace patchecko
