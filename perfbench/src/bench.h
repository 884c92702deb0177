// Shared types of the scan benchmark.
//
// One process runs one workload: set-up (model, corpus, CVE database,
// firmware images), a reference report per image from a fresh jobs-1
// engine, a closed-loop timed run through the public ScanEngine /
// ScanService APIs, and — with --trace 1 — a separate traced pass that
// times direct calls into each layer. README.md in this directory lists the
// workloads and metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cve_database.h"
#include "engine/corpus_store.h"
#include "engine/engine.h"
#include "firmware/firmware.h"
#include "service/server.h"

namespace perfbench {

using namespace patchecko;

struct Options {
  std::string mode;      ///< "fixtures" or "run"
  std::string workload;
  /// Workload seed: picks each image's library order and which image a
  /// scan loop or daemon client starts with. It leaves the scan work
  /// unchanged, so runs with different seeds are comparable.
  std::uint64_t seed = 1;
  /// EvalConfig seed of the corpus (the CLI default unless overridden);
  /// changing it changes the libraries, the CVE database and the work.
  std::uint64_t corpus_seed = EvalConfig{}.seed;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string fixtures;  ///< fixture root: model.bin + per-seed images
  std::string work;      ///< scratch directory (cache dirs, socket, logs)
  /// Self-test hook: alter every reference report so each scan must fail.
  bool corrupt_reference = false;
};

/// Named metrics with units, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}` with %.17g values.
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The engine/service shape of one named workload.
struct Workload {
  std::vector<std::string> devices;  ///< "things" / "pixel", scan order
  EngineConfig engine;               ///< per-scan (one-shot) or daemon engine
  bool fresh_cache_dir = false;      ///< cold_exact: empty on-disk cache
  bool warm_cache_dir = false;       ///< warm_disk: cache dir filled in set-up
  bool daemon = false;
};

/// Set-up runs this many times per process; its medians are reported.
constexpr int kSetupRepeats = 3;

/// Throws std::invalid_argument for an unknown name.
Workload workload_named(const std::string& name);

struct Image {
  std::string device;  ///< "things" / "pixel"
  DeviceSpec spec;
  std::string path;
  std::uintmax_t bytes = 0;
  FirmwareImage firmware;
  std::string reference;           ///< canonical text of the reference run
  double reference_seconds = 0.0;  ///< that jobs-1 ScanEngine::run wall
  ScanReport reference_report;     ///< for the quality metrics
};

struct SetupTimes {
  double model_load_s = 0.0;
  double corpus_s = 0.0;
  double database_s = 0.0;
  double firmware_load_s = 0.0;
  double cache_populate_s = 0.0;
  double service_start_s = 0.0;
  /// Median over the repeats of model + corpus + database + firmware; the
  /// cache population and service start above happen once.
  double total_s = 0.0;
};

struct Context {
  Options options;
  Workload workload;
  EvalConfig eval;
  SimilarityModel model;
  std::unique_ptr<EvalCorpus> corpus;
  std::unique_ptr<CveDatabase> database;
  /// daemon_warm: the corpus and database adopted into the service's
  /// snapshot (corpus/database above are then empty).
  std::shared_ptr<const CorpusSnapshot> snapshot;
  std::vector<Image> images;
  SetupTimes setup;
  std::string cache_dir;  ///< cold_exact scratch dir / warm_disk filled dir
  std::unique_ptr<service::ScanService> service;
  std::string socket_path;
  std::string access_log_path;
  bool correct = true;    ///< cleared by any oracle or cross-check failure

  const CveDatabase& db() const {
    return snapshot != nullptr ? snapshot->database : *database;
  }
  const retrieval::QueryCatalog* query_codes() const {
    return snapshot != nullptr ? &snapshot->queries : nullptr;
  }
  ScanRequest request_for(const Image& image) const;
  void fail(const std::string& why);
};

// --- set-up (setup.cpp) ------------------------------------------------------

/// Trains the CLI-default model, builds the corpus's two images and the
/// seed's reordered copies when they are missing. Never timed.
void build_fixtures(const Options& options);

/// Loads model, corpus, database and images kSetupRepeats times (medians
/// kept); daemon_warm then adopts them into the service's snapshot.
void set_up(Context& ctx);
/// One reference report per image from a fresh jobs-1 engine. On warm_disk
/// this run is also the cache population.
void capture_references(Context& ctx);
/// daemon_warm: starts the in-process service and warms it with one request
/// per image.
void start_service(Context& ctx);

struct ServiceSample;
/// Stops the service and returns the queue waits of `samples` from its
/// access log.
std::vector<double> stop_service(Context& ctx,
                                 const std::vector<ServiceSample>& samples);

// --- timed run (workloads.cpp) -------------------------------------------------

/// Per-scan engine view, from a ScanReport.
struct EngineSample {
  double analyze_s = 0.0;
  double detect_s = 0.0;
  double patch_s = 0.0;
  double detect_max_s = 0.0;
  double parallel_efficiency = 0.0;
  CacheStats cache;
};
EngineSample engine_sample(const ScanReport& report, unsigned jobs);

struct ServiceSample {
  double latency_s = 0.0;
  double accept_s = 0.0;
  double engine_s = 0.0;
  double result_bytes = 0.0;
  std::uint64_t request_id = 0;
};

struct TimedRun {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> latencies;  ///< successful scans, seconds
  double elapsed_s = 0.0;
  double cpu_s = 0.0;             ///< process user + sys over the loop
  std::vector<EngineSample> engine;    ///< one-shot scans
  std::vector<ServiceSample> service;  ///< daemon scans
  std::vector<double> queue_waits;     ///< daemon: from the access log
};

TimedRun run_timed(Context& ctx);

/// Canonical report of a daemon result frame; empty on any protocol error.
struct ResultFrame {
  bool ok = false;
  std::string report;
  double seconds = 0.0;
};
ResultFrame parse_result_frame(const std::string& payload);

// --- traced pass (trace.cpp) ---------------------------------------------------

void traced_pass(Context& ctx, const TimedRun& timed, Metrics& out);

// --- helpers -----------------------------------------------------------------

double now_seconds();       ///< steady clock
double process_cpu_seconds();
double peak_rss_mb();
double median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> values, double p);
double mean(const std::vector<double>& values);
std::uintmax_t directory_bytes(const std::string& path);

}  // namespace perfbench
