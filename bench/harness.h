// Shared benchmark harness: one trained model and one evaluation universe
// per process, with disk caching so the bench suite doesn't retrain the
// network for every table.
//
// Environment knobs (all optional):
//   PATCHECKO_SCALE   — evaluation-library scale factor (default 1.0 = the
//                       paper's function counts; use 0.05 for a fast pass)
//   PATCHECKO_EPOCHS  — training epochs (default 12)
//   PATCHECKO_CACHE   — cache directory (default /tmp/patchecko_cache)
//   PATCHECKO_CORPUS  — prebuilt-corpus store directory; when set, the CVE
//                       database loads from the store (populated on first
//                       use) instead of rebuilding cold every bench run
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cve_database.h"
#include "core/pipeline.h"
#include "dl/trainer.h"
#include "firmware/firmware.h"

namespace patchecko::bench {

struct HarnessConfig {
  TrainerConfig trainer;
  EvalConfig eval;
  DatabaseConfig database;
  PipelineConfig pipeline;
  std::string cache_dir;
};

/// Defaults + environment overrides.
HarnessConfig harness_config();

/// Trains (or loads from cache) the similarity model.
const SimilarityModel& shared_model();

/// The full evaluation universe: corpus, CVE database, both device
/// firmwares' analyzed libraries, and the pipeline. Built once per process.
struct EvalContext {
  HarnessConfig config;
  SimilarityModel model;
  std::unique_ptr<EvalCorpus> corpus;
  std::unique_ptr<CveDatabase> database;
  /// How long the database took to assemble, and whether it came from the
  /// prebuilt store ($PATCHECKO_CORPUS) — benches record these as setup
  /// rows so the before/after cost is visible in the BENCH JSONs.
  double database_seconds = 0.0;
  bool database_store_backed = false;
  DeviceSpec things;
  DeviceSpec pixel;
  // Compiled + analyzed libraries per device, indexed like corpus libraries.
  std::vector<LibraryBinary> things_libraries;
  std::vector<AnalyzedLibrary> things_analyzed;
  std::vector<LibraryBinary> pixel_libraries;
  std::vector<AnalyzedLibrary> pixel_analyzed;

  const AnalyzedLibrary& analyzed_for(const CveEntry& entry,
                                      bool pixel_device) const;
};

const EvalContext& shared_eval_context();

/// One measured row of a benchmark table: a name plus named metric values.
/// Metric order is preserved in the JSON output.
struct BenchRow {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;

  BenchRow() = default;
  BenchRow(std::string row_name,
           std::vector<std::pair<std::string, double>> row_metrics)
      : name(std::move(row_name)), metrics(std::move(row_metrics)) {}
  /// Back-compat shape for the enabled-vs-disabled micro-benches.
  BenchRow(std::string row_name, double enabled_ns, double disabled_ns)
      : name(std::move(row_name)),
        metrics{{"enabled_ns", enabled_ns}, {"disabled_ns", disabled_ns}} {}

  BenchRow& set(std::string key, double value) {
    metrics.emplace_back(std::move(key), value);
    return *this;
  }
};

/// Writes BENCH_<bench>.json — {"bench","rows":[{"name",..,"metrics":{K:V}}],
/// "higher_is_better":[K,..]} — so the perf trajectory is machine-trackable
/// across PRs (bench-diff consumes these). Metrics listed in
/// `higher_is_better` regress when they *drop* (accuracy, throughput);
/// everything else regresses when it grows (latency, misses). Directory from
/// $PATCHECKO_BENCH_DIR (default "."). Returns false (after printing a
/// warning) when the file cannot be written.
bool write_bench_json(const std::string& bench,
                      const std::vector<BenchRow>& rows,
                      const std::vector<std::string>& higher_is_better = {});

/// Runs google-benchmark (Initialize + RunSpecifiedBenchmarks) and captures
/// each benchmark's real/CPU ns, plus its user counters, into
/// BENCH_<bench>.json alongside the normal console output. Rate counters
/// (items_per_second, ...) are listed as higher-is-better. Returns the
/// process exit status (nonzero when the JSON could not be written).
int run_gbench_to_json(const std::string& bench, int* argc, char** argv);

}  // namespace patchecko::bench
