// Tests for the fuzzer (environment generation, dictionary mutation), the
// fused validation-and-profiling pass, and the dynamic-similarity engine
// (Eq. 1-2, effect hashes, ranking).
#include <gtest/gtest.h>

#include <cmath>

#include "compiler/compiler.h"
#include "fuzz/fuzzer.h"
#include "obs/metrics.h"
#include "similarity/similarity.h"
#include "source/generator.h"

namespace patchecko {
namespace {

struct Fixture {
  SourceLibrary source;
  LibraryBinary binary;
  Machine machine;

  Fixture()
      : source(generate_library("fx", 0xF1, 24)),
        binary(compile_library(source, Arch::arm32, OptLevel::O2, 10)),
        machine(binary) {}
};

TEST(Fuzz, RandomEnvMatchesSignature) {
  Rng rng(1);
  FuzzConfig config;
  const std::vector<ValueType> params{ValueType::ptr, ValueType::i64,
                                      ValueType::f64};
  const CallEnv env = random_env(rng, params, config);
  ASSERT_EQ(env.args.size(), 3u);
  EXPECT_EQ(env.args[0].type, ValueType::ptr);
  EXPECT_EQ(env.args[1].type, ValueType::i64);
  EXPECT_EQ(env.args[2].type, ValueType::f64);
  ASSERT_EQ(env.buffers.size(), 1u);
  // Length convention: the i64 after a ptr equals the buffer length.
  EXPECT_EQ(env.args[1].i,
            static_cast<std::int64_t>(env.buffers[0].size()));
}

TEST(Fuzz, BufferSizesWithinBounds) {
  Rng rng(2);
  FuzzConfig config;
  config.min_buffer = 10;
  config.max_buffer = 20;
  for (int i = 0; i < 50; ++i) {
    const CallEnv env = random_env(rng, {ValueType::ptr, ValueType::i64},
                                   config);
    EXPECT_GE(env.buffers[0].size(), 10u);
    EXPECT_LE(env.buffers[0].size(), 20u);
  }
}

TEST(Fuzz, MutateKeepsLengthConsistency) {
  Rng rng(3);
  FuzzConfig config;
  const std::vector<ValueType> params{ValueType::ptr, ValueType::i64};
  CallEnv env = random_env(rng, params, config);
  for (int i = 0; i < 20; ++i) {
    env = mutate_env(rng, env, params, config);
    EXPECT_EQ(env.args[1].i,
              static_cast<std::int64_t>(env.buffers[0].size()));
  }
}

TEST(Fuzz, DictionaryHarvestsByteConstants) {
  FunctionBinary fn;
  Instruction ldi;
  ldi.op = Opcode::ldi;
  ldi.dst = 0;
  ldi.imm = 0xff;
  Instruction big;
  big.op = Opcode::ldi;
  big.dst = 1;
  big.imm = 1 << 20;  // not byte-sized: excluded
  Instruction ret;
  ret.op = Opcode::ret;
  fn.code = {ldi, ldi, big, ret};
  const auto dict = byte_dictionary(fn);
  ASSERT_EQ(dict.size(), 1u);
  EXPECT_EQ(dict[0], 0xff);
}

TEST(Fuzz, DictionaryInjectionPlantsPairs) {
  Rng rng(4);
  FuzzConfig config;
  const std::vector<ValueType> params{ValueType::ptr, ValueType::i64};
  CallEnv env = random_env(rng, params, config);
  std::fill(env.buffers[0].begin(), env.buffers[0].end(), 0x11);
  const std::vector<std::uint8_t> dict{0xAB};
  bool planted = false;
  for (int i = 0; i < 30 && !planted; ++i) {
    const CallEnv mutated = mutate_env(rng, env, params, config, dict);
    for (std::uint8_t b : mutated.buffers[0])
      if (b == 0xAB) planted = true;
  }
  EXPECT_TRUE(planted);
}

TEST(Fuzz, GeneratedEnvironmentsExecuteSuccessfully) {
  Fixture fx;
  Rng rng(5);
  FuzzConfig config;
  for (std::size_t f = 0; f < 6; ++f) {
    const auto envs = generate_environments(fx.binary, f, rng, config);
    EXPECT_FALSE(envs.empty()) << "fn " << f;
    for (const CallEnv& env : envs)
      EXPECT_EQ(fx.machine.run(f, env).status, ExecStatus::ok);
  }
}

TEST(Fuzz, ValidationRejectsSignatureMismatch) {
  Fixture fx;
  Rng rng(6);
  FuzzConfig config;
  // Find a ptr-first function and an int-only function.
  std::size_t ptr_fn = SIZE_MAX, int_fn = SIZE_MAX;
  for (std::size_t f = 0; f < fx.source.functions.size(); ++f) {
    const auto& types = fx.source.functions[f].param_types;
    if (!types.empty() && types[0] == ValueType::ptr && ptr_fn == SIZE_MAX)
      ptr_fn = f;
    if (!types.empty() && types[0] == ValueType::i64 && int_fn == SIZE_MAX)
      int_fn = f;
  }
  ASSERT_NE(ptr_fn, SIZE_MAX);
  ASSERT_NE(int_fn, SIZE_MAX);
  const auto envs = generate_environments(fx.binary, ptr_fn, rng, config);
  ASSERT_FALSE(envs.empty());
  // The ptr function's own environments validate.
  EXPECT_TRUE(profile_candidate(fx.machine, ptr_fn, envs).has_value());
  // An int-only function receiving a pointer as its scalar may or may not
  // crash, but a function that *loads through* its first int param will.
  // Validation itself must at least be callable on any candidate:
  (void)profile_candidate(fx.machine, int_fn, envs);
}

TEST(Fuzz, ValidationPrunesCrashingCandidate) {
  // A function that dereferences data[big] crashes on small buffers.
  SourceLibrary src;
  src.name = "crash";
  src.strings.assign(12, "s");
  SourceFunction safe;
  safe.name = "safe";
  safe.param_types = {ValueType::ptr, ValueType::i64};
  safe.body.push_back(make_ret(make_int(1)));
  SourceFunction crasher;
  crasher.name = "crasher";
  crasher.param_types = {ValueType::ptr, ValueType::i64};
  crasher.body.push_back(make_ret(
      make_load(make_param(0, ValueType::ptr), make_int(1 << 20), true)));
  src.functions = {safe, crasher};
  const LibraryBinary bin = compile_library(src, Arch::amd64, OptLevel::O1);
  const Machine machine(bin);
  Rng rng(7);
  FuzzConfig config;
  const auto envs = generate_environments(bin, 0, rng, config);
  ASSERT_FALSE(envs.empty());
  EXPECT_TRUE(profile_candidate(machine, 0, envs).has_value());
  EXPECT_FALSE(profile_candidate(machine, 1, envs).has_value());
}

// A library whose function 1 traps exactly on buffers shorter than 32 bytes
// (it loads data[31]), and a run of environments with chosen lengths.
struct LengthGate {
  LibraryBinary binary;
  Machine machine;

  LengthGate()
      : binary([] {
          SourceLibrary src;
          src.name = "gate";
          src.strings.assign(12, "s");
          SourceFunction safe;
          safe.name = "safe";
          safe.param_types = {ValueType::ptr, ValueType::i64};
          safe.body.push_back(make_ret(make_int(1)));
          SourceFunction gate;
          gate.name = "gate";
          gate.param_types = {ValueType::ptr, ValueType::i64};
          gate.body.push_back(make_ret(
              make_load(make_param(0, ValueType::ptr), make_int(31), true)));
          src.functions = {safe, gate};
          return compile_library(src, Arch::amd64, OptLevel::O1);
        }()),
        machine(binary) {}

  static std::vector<CallEnv> environments(
      const std::vector<std::size_t>& lengths) {
    std::vector<CallEnv> envs;
    for (const std::size_t length : lengths) {
      CallEnv env;
      env.buffers.push_back(std::vector<std::uint8_t>(length, 7));
      env.args = {Value::from_ptr(0),
                  Value::from_int(static_cast<std::int64_t>(length))};
      envs.push_back(std::move(env));
    }
    return envs;
  }
};

std::uint64_t vm_runs() {
  return obs::Registry::global().counter("vm.runs").value();
}

TEST(Fuzz, PrunedCandidateStopsAtFirstCrashingEnvironment) {
  const obs::EnabledScope on(true);
  const LengthGate gate;
  // Environments 0-2 hold data[31]; 3 and 5 do not.
  const auto envs = LengthGate::environments({64, 40, 32, 8, 64, 4});
  std::size_t crash_env = 99;
  const std::uint64_t before = vm_runs();
  EXPECT_FALSE(profile_candidate(gate.machine, 1, envs, &crash_env));
  EXPECT_EQ(crash_env, 3u);
  EXPECT_EQ(vm_runs() - before, crash_env + 1);
}

TEST(Fuzz, SurvivorRunsEachEnvironmentOnce) {
  const obs::EnabledScope on(true);
  const LengthGate gate;
  const auto envs = LengthGate::environments({64, 40, 32, 33, 100});
  std::size_t crash_env = 99;
  const std::uint64_t before = vm_runs();
  const auto profile = profile_candidate(gate.machine, 1, envs, &crash_env);
  EXPECT_EQ(vm_runs() - before, envs.size());
  ASSERT_TRUE(profile.has_value());
  EXPECT_EQ(crash_env, 99u);  // untouched on survival
  EXPECT_EQ(profile->successful_runs(), envs.size());
  // The single pass yields exactly what profiling alone yields.
  const DynamicProfile reference = profile_function(gate.machine, 1, envs);
  ASSERT_EQ(profile->per_env.size(), reference.per_env.size());
  for (std::size_t i = 0; i < envs.size(); ++i) {
    EXPECT_EQ(profile->per_env[i]->to_vector(),
              reference.per_env[i]->to_vector());
    EXPECT_EQ(profile->effect_hash[i], reference.effect_hash[i]);
  }
}

// --- similarity -----------------------------------------------------------------

TEST(Similarity, SelfDistanceZero) {
  Fixture fx;
  Rng rng(8);
  FuzzConfig config;
  const auto envs = generate_environments(fx.binary, 2, rng, config);
  ASSERT_FALSE(envs.empty());
  const DynamicProfile p = profile_function(fx.machine, 2, envs);
  EXPECT_DOUBLE_EQ(profile_distance(p, p), 0.0);
  EXPECT_EQ(effect_matches(p, p), p.successful_runs());
}

TEST(Similarity, DistanceSymmetric) {
  Fixture fx;
  Rng rng(9);
  FuzzConfig config;
  const auto envs = generate_environments(fx.binary, 2, rng, config);
  const DynamicProfile a = profile_function(fx.machine, 2, envs);
  const DynamicProfile b = profile_function(fx.machine, 3, envs);
  EXPECT_DOUBLE_EQ(profile_distance(a, b), profile_distance(b, a));
}

TEST(Similarity, CrashedEnvironmentsSkipped) {
  DynamicProfile a, b;
  DynamicFeatures f1;
  f1.instructions = 10;
  DynamicFeatures f2;
  f2.instructions = 20;
  a.per_env = {f1, std::nullopt};
  b.per_env = {f2, f2};
  const double d = profile_distance(a, b, 1.0);
  EXPECT_DOUBLE_EQ(d, 10.0);  // only the common env counts
}

TEST(Similarity, NoCommonEnvironmentIsInfinite) {
  DynamicProfile a, b;
  DynamicFeatures f;
  a.per_env = {f, std::nullopt};
  b.per_env = {std::nullopt, f};
  EXPECT_TRUE(std::isinf(profile_distance(a, b)));
}

TEST(Similarity, RankingSortsByDistance) {
  DynamicProfile ref;
  DynamicFeatures base;
  base.instructions = 100;
  ref.per_env = {base};
  ref.effect_hash = {std::uint64_t{1}};

  auto candidate_with = [&](std::size_t idx, std::uint64_t instructions,
                            std::uint64_t hash) {
    CandidateProfile c;
    c.function_index = idx;
    DynamicFeatures f;
    f.instructions = instructions;
    c.profile.per_env = {f};
    c.profile.effect_hash = {hash};
    return c;
  };
  const std::vector<CandidateProfile> candidates{
      candidate_with(0, 150, 7), candidate_with(1, 100, 9),
      candidate_with(2, 110, 7)};
  const auto ranking = rank_by_similarity(ref, candidates);
  EXPECT_EQ(ranking[0].function_index, 1u);
  EXPECT_EQ(ranking[1].function_index, 2u);
  EXPECT_EQ(ranking[2].function_index, 0u);
}

TEST(Similarity, EffectHashBreaksExactTies) {
  DynamicProfile ref;
  DynamicFeatures base;
  base.instructions = 50;
  ref.per_env = {base};
  ref.effect_hash = {std::uint64_t{42}};

  CandidateProfile wrong;  // same trace, different effect
  wrong.function_index = 0;
  wrong.profile.per_env = {base};
  wrong.profile.effect_hash = {std::uint64_t{7}};
  CandidateProfile right;  // same trace, same effect
  right.function_index = 1;
  right.profile.per_env = {base};
  right.profile.effect_hash = {std::uint64_t{42}};

  const auto ranking = rank_by_similarity(ref, {wrong, right});
  EXPECT_EQ(ranking[0].function_index, 1u);
}

TEST(Similarity, SecondaryScoreBreaksRemainingTies) {
  DynamicProfile ref;
  DynamicFeatures base;
  ref.per_env = {base};
  ref.effect_hash = {std::uint64_t{1}};
  CandidateProfile low, high;
  low.function_index = 0;
  low.profile = ref;
  low.secondary = 0.2;
  high.function_index = 1;
  high.profile = ref;
  high.secondary = 0.9;
  const auto ranking = rank_by_similarity(ref, {low, high});
  EXPECT_EQ(ranking[0].function_index, 1u);
}

TEST(Similarity, SameSourceDifferentArchIsCloserThanDifferentSource) {
  // The dynamic-stage premise: cross-compiled same-source functions have
  // closer traces than different functions under the same environments.
  const SourceLibrary src = generate_library("prem", 0xAA, 12);
  const LibraryBinary arm = compile_library(src, Arch::arm32, OptLevel::O2);
  const LibraryBinary x86 = compile_library(src, Arch::amd64, OptLevel::O2);
  const Machine arm_machine(arm);
  const Machine x86_machine(x86);
  Rng rng(10);
  FuzzConfig config;
  int wins = 0, comparisons = 0;
  for (std::size_t f = 0; f + 1 < 8; ++f) {
    const auto envs = generate_environments(arm, f, rng, config);
    if (envs.empty()) continue;
    const DynamicProfile self_arm = profile_function(arm_machine, f, envs);
    const DynamicProfile self_x86 = profile_function(x86_machine, f, envs);
    const DynamicProfile other_arm =
        profile_function(arm_machine, f + 1, envs);
    const double same = profile_distance(self_arm, self_x86);
    const double different = profile_distance(self_arm, other_arm);
    if (!std::isfinite(same) || !std::isfinite(different)) continue;
    ++comparisons;
    if (same < different) ++wins;
  }
  ASSERT_GT(comparisons, 3);
  EXPECT_GE(wins * 2, comparisons);  // majority
}

}  // namespace
}  // namespace patchecko
