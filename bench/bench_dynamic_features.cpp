// Table II companion + microbenchmarks: instrumented execution cost of the
// dynamic-analysis engine (the GDB/gdbserver tracing analog): per-run
// cost, per-instruction cost over a realistic sweep, and end-to-end
// candidate profiling.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "fuzz/fuzzer.h"
#include "harness.h"
#include "similarity/similarity.h"
#include "source/generator.h"
#include "util/table.h"
#include "vm/machine.h"

using namespace patchecko;

namespace {

struct Fixture {
  LibraryBinary library;
  std::vector<CallEnv> environments;
};

const Fixture& fixture() {
  static const Fixture fx = [] {
    Fixture out;
    const SourceLibrary source = generate_library("dynlib", 0xD1A, 64);
    out.library = compile_library(source, Arch::arm32, OptLevel::O2, 1);
    Rng rng(0xF077);
    FuzzConfig config;
    out.environments =
        generate_environments(out.library, 3, rng, config);
    return out;
  }();
  return fx;
}

void BM_ExecuteInstrumented(benchmark::State& state) {
  const Fixture& fx = fixture();
  const Machine machine(fx.library);
  std::size_t f = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.run(f, fx.environments.front()));
    f = (f + 1) % fx.library.functions.size();
  }
}
BENCHMARK(BM_ExecuteInstrumented);

// A realistic stage-2 sweep: 4 generated libraries (one per arch) x 200
// functions x 6 fuzz environments. BM_ExecuteInstrumented runs tiny
// functions, where per-run setup dominates; this row reports the cost of an
// interpreted instruction, ns_per_instruction (wall time / VM steps).
struct Sweep {
  std::vector<LibraryBinary> libraries;
  std::vector<std::vector<std::vector<CallEnv>>> environments;  ///< [lib][fn]
};

const Sweep& sweep() {
  static const Sweep out = [] {
    Sweep sw;
    const Arch arches[] = {Arch::x86, Arch::amd64, Arch::arm32, Arch::arm64};
    Rng rng(0x5EE9);
    FuzzConfig config;
    for (std::size_t i = 0; i < 4; ++i) {
      const SourceLibrary source =
          generate_library("sweep" + std::to_string(i), 0x5EE9 + i, 200);
      sw.libraries.push_back(
          compile_library(source, arches[i], OptLevel::O2, i + 1));
      auto& envs = sw.environments.emplace_back();
      for (std::size_t f = 0; f < sw.libraries.back().functions.size(); ++f)
        envs.push_back(
            generate_environments(sw.libraries.back(), f, rng, config));
    }
    return sw;
  }();
  return out;
}

void BM_ExecuteSweep(benchmark::State& state) {
  const Sweep& sw = sweep();
  std::vector<Machine> machines(sw.libraries.begin(), sw.libraries.end());
  std::uint64_t instructions = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state)
    for (std::size_t l = 0; l < machines.size(); ++l)
      for (std::size_t f = 0; f < sw.environments[l].size(); ++f)
        for (const CallEnv& env : sw.environments[l][f])
          instructions += machines[l].run(f, env).steps;
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["ns_per_instruction"] =
      elapsed.count() / static_cast<double>(instructions);
}
BENCHMARK(BM_ExecuteSweep);

void BM_ProfileFunction(benchmark::State& state) {
  const Fixture& fx = fixture();
  const Machine machine(fx.library);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        profile_function(machine, 3, fx.environments));
}
BENCHMARK(BM_ProfileFunction);

void BM_ProfileDistance(benchmark::State& state) {
  const Fixture& fx = fixture();
  const Machine machine(fx.library);
  const DynamicProfile a = profile_function(machine, 3, fx.environments);
  const DynamicProfile b = profile_function(machine, 5, fx.environments);
  for (auto _ : state)
    benchmark::DoNotOptimize(profile_distance(a, b, 3.0));
}
BENCHMARK(BM_ProfileDistance);

}  // namespace

int main(int argc, char** argv) {
  const Fixture& fx = fixture();
  const Machine machine(fx.library);
  const RunResult result = machine.run(3, fx.environments.front());

  std::printf("=== Table II: the 21 dynamic features ===\n");
  TextTable table({"#", "Feature", "Example value (fn_3, env_0)"});
  const auto values = result.features.to_array();
  for (std::size_t i = 0; i < DynamicFeatures::count; ++i)
    table.add_row({std::to_string(i + 1),
                   std::string(DynamicFeatures::name(i)),
                   fmt_double(values[i], 2)});
  std::printf("%s\n", table.render().c_str());

  return bench::run_gbench_to_json("dynamic_features", &argc, argv);
}
