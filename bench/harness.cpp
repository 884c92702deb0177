#include "harness.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "corpus/builder.h"
#include "obs/json.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace patchecko::bench {

namespace {

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

std::string env_string(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

}  // namespace

HarnessConfig harness_config() {
  HarnessConfig config;
  config.eval.scale = env_double("PATCHECKO_SCALE", 1.0);
  config.trainer.epochs = static_cast<std::size_t>(
      env_double("PATCHECKO_EPOCHS", 12));
  config.trainer.verbose = false;
  config.cache_dir = env_string("PATCHECKO_CACHE", "/tmp/patchecko_cache");
  std::filesystem::create_directories(config.cache_dir);
  return config;
}

const SimilarityModel& shared_model() {
  static SimilarityModel model = [] {
    const HarnessConfig config = harness_config();
    std::ostringstream path;
    // v-tag invalidates cached models when the corpus generator evolves.
    path << config.cache_dir << "/model_v4_e" << config.trainer.epochs << "_s"
         << config.trainer.dataset.seed << "_l"
         << config.trainer.dataset.library_count << ".bin";
    std::fprintf(stderr, "[harness] similarity model: %s\n",
                 path.str().c_str());
    return load_or_train_model(path.str(), config.trainer);
  }();
  return model;
}

const AnalyzedLibrary& EvalContext::analyzed_for(const CveEntry& entry,
                                                 bool pixel_device) const {
  return pixel_device ? pixel_analyzed[entry.library_index]
                      : things_analyzed[entry.library_index];
}

const EvalContext& shared_eval_context() {
  static EvalContext context = [] {
    EvalContext ctx;
    ctx.config = harness_config();
    ctx.model = shared_model();
    std::fprintf(stderr,
                 "[harness] building evaluation corpus (scale=%.3f)...\n",
                 ctx.config.eval.scale);
    ctx.corpus = std::make_unique<EvalCorpus>(ctx.config.eval);
    const std::string store_dir = env_string("PATCHECKO_CORPUS", "");
    const Stopwatch database_watch;
    if (!store_dir.empty()) {
      // Store-backed: populate missing artifacts once (a warm store builds
      // nothing), then assemble the database from stored entries.
      std::fprintf(stderr,
                   "[harness] loading vulnerability database from corpus "
                   "store %s...\n",
                   store_dir.c_str());
      corpus::PrebuiltStore store(store_dir);
      corpus::BuildMatrix matrix;
      matrix.eval = ctx.config.eval;
      matrix.database = ctx.config.database;
      matrix.jobs = default_worker_threads();
      corpus::build_store(store, matrix);
      ctx.database = std::make_unique<CveDatabase>(
          corpus::load_database(store, *ctx.corpus, ctx.config.database));
      ctx.database_store_backed = true;
    } else {
      std::fprintf(stderr, "[harness] building vulnerability database...\n");
      ctx.database =
          std::make_unique<CveDatabase>(*ctx.corpus, ctx.config.database);
    }
    ctx.database_seconds = database_watch.elapsed_seconds();
    ctx.things = android_things_device();
    ctx.pixel = pixel2xl_device();

    const std::size_t libs = ctx.corpus->library_specs().size();
    std::fprintf(stderr, "[harness] compiling device firmware images...\n");
    for (std::size_t i = 0; i < libs; ++i) {
      ctx.things_libraries.push_back(
          ctx.corpus->compile_for_device(i, ctx.things));
      ctx.pixel_libraries.push_back(
          ctx.corpus->compile_for_device(i, ctx.pixel));
    }
    for (std::size_t i = 0; i < libs; ++i) {
      ctx.things_analyzed.push_back(
          analyze_library(ctx.things_libraries[i]));
      ctx.pixel_analyzed.push_back(analyze_library(ctx.pixel_libraries[i]));
    }
    std::fprintf(stderr, "[harness] ready.\n");
    return ctx;
  }();
  return context;
}

bool write_bench_json(const std::string& bench,
                      const std::vector<BenchRow>& rows,
                      const std::vector<std::string>& higher_is_better) {
  const std::string dir = env_string("PATCHECKO_BENCH_DIR", ".");
  const std::string path = dir + "/BENCH_" + bench + ".json";
  std::string out;
  out += "{\"bench\":";
  obs::json::append_string(out, bench);
  out += ",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"name\":";
    obs::json::append_string(out, rows[i].name);
    out += ",\"metrics\":{";
    for (std::size_t m = 0; m < rows[i].metrics.size(); ++m) {
      if (m != 0) out += ',';
      obs::json::append_string(out, rows[i].metrics[m].first);
      out += ':';
      obs::json::append_double(out, rows[i].metrics[m].second);
    }
    out += "}}";
  }
  out += "],\"higher_is_better\":[";
  for (std::size_t i = 0; i < higher_is_better.size(); ++i) {
    if (i != 0) out += ',';
    obs::json::append_string(out, higher_is_better[i]);
  }
  out += "]}\n";
  std::ofstream file(path, std::ios::trunc);
  file << out;
  if (!file.good()) {
    std::fprintf(stderr, "[harness] warning: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "[harness] wrote %s\n", path.c_str());
  return true;
}

namespace {

/// Console reporter that also collects per-benchmark timings for the
/// BENCH_*.json trajectory file.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      BenchRow row;
      row.name = run.benchmark_name();
      row.set("real_ns", run.GetAdjustedRealTime());
      row.set("cpu_ns", run.GetAdjustedCPUTime());
      // User counters (state.counters[...]) ride along as extra metrics,
      // already finalized by the runner (rates divided, averages taken). A
      // rate (items_per_second, ...) is a throughput: higher is better.
      for (const auto& [name, counter] : run.counters) {
        row.set(name, counter.value);
        if ((counter.flags & benchmark::Counter::kIsRate) != 0 &&
            std::find(higher_is_better_.begin(), higher_is_better_.end(),
                      name) == higher_is_better_.end())
          higher_is_better_.push_back(name);
      }
      rows_.push_back(std::move(row));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<BenchRow>& rows() const { return rows_; }
  const std::vector<std::string>& higher_is_better() const {
    return higher_is_better_;
  }

 private:
  std::vector<BenchRow> rows_;
  std::vector<std::string> higher_is_better_;
};

}  // namespace

int run_gbench_to_json(const std::string& bench, int* argc, char** argv) {
  benchmark::Initialize(argc, argv);
  if (benchmark::ReportUnrecognizedArguments(*argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return write_bench_json(bench, reporter.rows(), reporter.higher_is_better())
             ? 0
             : 1;
}

}  // namespace patchecko::bench
