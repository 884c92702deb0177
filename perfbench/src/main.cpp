// Scan benchmark entry point.
//
//   perfbench fixtures --fixtures DIR --seed N [--scale S] [--corpus-seed N]
//   perfbench run --workload NAME --seed N --seconds T --trace 0|1
//                 --fixtures DIR --work DIR [--scale S] [--corpus-seed N]
//                 [--corrupt-reference]
//
// `run` prints one JSON line: {"correct", "attempted", "failed", "metrics"}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// run.py in this directory builds the binary, makes the fixtures and
// selects the metrics BENCHMARK.json names.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace perfbench {

namespace fs = std::filesystem;

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    char value[64];
    if (std::isfinite(entry.value))
      std::snprintf(value, sizeof(value), "%.17g", entry.value);
    else
      std::snprintf(value, sizeof(value), "null");
    if (i != 0) out += ", ";
    out += "\"" + entry.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           entry.unit + "\"}";
  }
  return out + "}";
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::uintmax_t directory_bytes(const std::string& path) {
  std::uintmax_t bytes = 0;
  std::error_code error;
  for (const auto& entry : fs::recursive_directory_iterator(path, error))
    if (entry.is_regular_file()) bytes += entry.file_size();
  return bytes;
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(why);
}

Options parse_options(int argc, char** argv) {
  Options options;
  if (argc < 2) usage("missing mode (fixtures | run)");
  options.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      options.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::stoull(value);
    else if (flag == "--corpus-seed") options.corpus_seed = std::stoull(value);
    else if (flag == "--seconds") options.seconds = std::stod(value);
    else if (flag == "--trace") options.trace = value == "1";
    else if (flag == "--scale") options.scale = std::stod(value);
    else if (flag == "--fixtures") options.fixtures = value;
    else if (flag == "--work") options.work = value;
    else usage("unknown flag " + flag);
  }
  if (options.fixtures.empty()) usage("--fixtures is required");
  if (options.mode == "run" && (options.work.empty() || options.workload.empty()))
    usage("run needs --workload and --work");
  if (options.scale <= 0.0 || options.seconds <= 0.0)
    usage("--scale and --seconds must be positive");
  return options;
}

/// Ground-truth quality of the reference reports: verdicts against
/// DeviceSpec::is_patched (an unresolved verdict is wrong), target rank 1
/// and the stage-1 false-positive rate per detect outcome.
void quality_metrics(const Context& ctx, Metrics& out) {
  std::size_t verdicts = 0, right = 0, outcomes = 0, rank1 = 0;
  double fpr = 0.0;
  for (const Image& image : ctx.images)
    for (const CveScanResult& result : image.reference_report.results) {
      ++verdicts;
      if (result.library_missing) continue;
      if (result.report.decision &&
          (result.report.decision->verdict == PatchVerdict::patched) ==
              image.spec.is_patched(result.cve_id))
        ++right;
      for (const DetectionOutcome* outcome :
           {&result.from_vulnerable, &result.from_patched}) {
        ++outcomes;
        if (outcome->rank_of_target == 1) ++rank1;
        fpr += outcome->false_positive_rate();
      }
    }
  const auto frac = [](double part, std::size_t whole) {
    return whole == 0 ? 0.0 : part / static_cast<double>(whole);
  };
  out.set("verdict_accuracy", frac(static_cast<double>(right), verdicts),
          "frac");
  out.set("rank1_frac", frac(static_cast<double>(rank1), outcomes), "frac");
  out.set("stage1_fpr", frac(fpr, outcomes), "frac");
}

void end_to_end_metrics(const Context& ctx, const TimedRun& timed,
                        Metrics& out) {
  const std::size_t done = timed.attempted - timed.failed;
  const SetupTimes& setup = ctx.setup;
  out.set("setup_s",
          setup.total_s + setup.cache_populate_s + setup.service_start_s, "s");
  out.set("scan_p50_s", median(timed.latencies), "s");
  out.set("scans_per_s",
          timed.elapsed_s > 0.0 ? static_cast<double>(done) / timed.elapsed_s
                                : 0.0,
          "1/s");
  out.set("cpu_per_scan_s",
          timed.cpu_s / static_cast<double>(std::max<std::size_t>(
                            1, timed.attempted)),
          "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  quality_metrics(ctx, out);
}

/// Per-layer figures that come from set-up and the timed loop rather than
/// the traced pass.
void loop_layer_metrics(const Context& ctx, const TimedRun& timed,
                        Metrics& out) {
  const SetupTimes& setup = ctx.setup;
  out.set("setup.model_load_s", setup.model_load_s, "s");
  out.set("setup.corpus_s", setup.corpus_s, "s");
  out.set("setup.database_s", setup.database_s, "s");
  out.set("setup.firmware_load_s", setup.firmware_load_s, "s");
  out.set("setup.cache_populate_s", setup.cache_populate_s, "s");
  out.set("setup.service_start_s", setup.service_start_s, "s");
  out.set("scan.p90_s", percentile(timed.latencies, 90.0), "s");
  out.set("scan.samples", static_cast<double>(timed.latencies.size()),
          "count");
  std::vector<double> accept, engine, overhead, bytes;
  for (const ServiceSample& sample : timed.service) {
    accept.push_back(sample.accept_s);
    engine.push_back(sample.engine_s);
    overhead.push_back(sample.latency_s - sample.engine_s);
    bytes.push_back(sample.result_bytes);
  }
  out.set("service.accept_s", median(accept), "s");
  out.set("service.engine_s", median(engine), "s");
  out.set("service.overhead_s", median(overhead), "s");
  out.set("service.result_bytes", median(bytes), "bytes");
  out.set("service.queue_wait_p50_s", median(timed.queue_waits), "s");
}

int run(const Options& options) {
  Context ctx;
  ctx.options = options;
  ctx.workload = workload_named(options.workload);
  fs::create_directories(options.work);
  set_up(ctx);
  capture_references(ctx);
  if (ctx.workload.daemon) start_service(ctx);

  TimedRun timed = run_timed(ctx);
  Metrics out;
  if (options.trace) traced_pass(ctx, timed, out);
  if (ctx.service != nullptr)
    timed.queue_waits = stop_service(ctx, timed.service);
  if (options.trace)
    loop_layer_metrics(ctx, timed, out);
  else
    end_to_end_metrics(ctx, timed, out);
  if (!ctx.cache_dir.empty()) fs::remove_all(ctx.cache_dir);

  const bool correct = ctx.correct && timed.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", timed.attempted, timed.failed,
              out.json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Options options = perfbench::parse_options(argc, argv);
    if (options.mode == "fixtures") {
      perfbench::build_fixtures(options);
      return 0;
    }
    if (options.mode == "run") return perfbench::run(options);
    std::fprintf(stderr, "perfbench: unknown mode '%s'\n",
                 options.mode.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
