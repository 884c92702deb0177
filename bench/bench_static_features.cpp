// Table I companion + microbenchmarks: the 48 static features with a sample
// extraction, and google-benchmark timings for CFG recovery and feature
// extraction (the per-function cost of the paper's IDA plugin analog),
// with the extractor's heap allocations per function.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "compiler/compiler.h"
#include "features/static_features.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "source/generator.h"
#include "util/table.h"

using namespace patchecko;

namespace {

const LibraryBinary& sample_library() {
  static const LibraryBinary library = [] {
    const SourceLibrary source = generate_library("featlib", 0xF3A7, 200);
    return compile_library(source, Arch::arm32, OptLevel::O2, 1);
  }();
  return library;
}

void BM_BuildCfg(benchmark::State& state) {
  const LibraryBinary& library = sample_library();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_cfg(library.functions[i]));
    i = (i + 1) % library.functions.size();
  }
}
BENCHMARK(BM_BuildCfg);

void BM_ExtractStaticFeatures(benchmark::State& state) {
  const LibraryBinary& library = sample_library();
  // Warm the thread's extractor scratch on the whole library first.
  for (const FunctionBinary& fn : library.functions)
    benchmark::DoNotOptimize(extract_static_features(fn));
  const obs::EnabledScope count_allocations(true);
  const std::uint64_t allocations_before = obs::thread_allocation_count();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        extract_static_features(library.functions[i]));
    i = (i + 1) % library.functions.size();
  }
  // Heap allocations per extracted function once warm.
  state.counters["allocs_per_function"] =
      static_cast<double>(obs::thread_allocation_count() -
                          allocations_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_ExtractStaticFeatures);

void BM_ExtractWholeLibrary(benchmark::State& state) {
  const LibraryBinary& library = sample_library();
  for (auto _ : state) {
    std::vector<StaticFeatureVector> all;
    all.reserve(library.functions.size());
    for (const auto& fn : library.functions)
      all.push_back(extract_static_features(fn));
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              library.functions.size()));
}
BENCHMARK(BM_ExtractWholeLibrary);

}  // namespace

int main(int argc, char** argv) {
  // Table I listing with a concrete example vector.
  const LibraryBinary& library = sample_library();
  const StaticFeatureVector example =
      extract_static_features(library.functions[7]);
  std::printf("=== Table I: the 48 static function features ===\n");
  TextTable table({"#", "Feature", "Example value (fn_7, arm32 -O2)"});
  for (std::size_t i = 0; i < static_feature_count; ++i)
    table.add_row({std::to_string(i + 1),
                   std::string(static_feature_name(i)),
                   fmt_double(example[i], 2)});
  std::printf("%s\n", table.render().c_str());

  return bench::run_gbench_to_json("static_features", &argc, argv);
}
