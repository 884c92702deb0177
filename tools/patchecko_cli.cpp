// patchecko — command-line front end for the full workflow.
//
//   patchecko train  --out model.bin [--libraries N] [--functions N]
//                    [--epochs N]
//   patchecko build-firmware --device things|pixel --out fw.img
//                    [--scale S] [--seed N]
//   patchecko inspect --firmware fw.img
//   patchecko disasm  --firmware fw.img --library NAME --function INDEX
//   patchecko scan   --model model.bin --firmware fw.img [--cve ID]
//                    [--scale S] [--seed N] [--threads N] [--metrics[=FILE]]
//                    [--events[=FILE]] [--trace-out=FILE]
//                    [--prefilter on|off] [--prefilter-top-k N]
//                    [--prefilter-min-total N]
//   patchecko batch-scan --model model.bin --firmware fw.img [--cve ID]
//                    [--jobs N] [--cache-dir DIR] [--no-cache]
//                    [--scale S] [--seed N] [--verbose] [--metrics[=FILE]]
//                    [--events[=FILE]] [--trace-out=FILE]
//                    [--heartbeat[=FILE][:interval_ms]]
//                    [--watchdog-soft S] [--watchdog-hard S]
//                    [--stall-inject LABEL:SECONDS]
//                    [--prefilter on|off] [--prefilter-top-k N]
//                    [--prefilter-min-total N]
//   patchecko explain --provenance FILE [--cve ID] [--function INDEX]
//   patchecko bench-diff --old PATH --new PATH [--rel-tol F] [--abs-tol F]
//   patchecko corpus build  --dir DIR [--jobs N] [--scale S] [--seed N]
//                    [--arch a,b,...] [--opt O0,O2,...]
//   patchecko corpus verify --dir DIR
//   patchecko corpus gc     --dir DIR [--dry-run]
//   patchecko corpus stats  --dir DIR [--json]
//   patchecko serve  --model model.bin --socket PATH [--tcp PORT]
//                    [--scale S] [--seed N] [--jobs N] [--cache-dir DIR]
//                    [--no-cache] [--corpus-dir DIR]
//                    [--queue-limit N] [--dispatchers N]
//                    [--max-frame-bytes N] [--events=FILE]
//                    [--heartbeat=FILE[:interval_ms]]
//                    [--access-log[=FILE]] [--stats-out=FILE[:interval_ms]]
//                    [--stats-window S]
//                    [--prefilter on|off] [--prefilter-top-k N]
//                    [--prefilter-min-total N]
//   patchecko client --socket PATH | --tcp PORT [--op submit|status|health|
//                    reload|drain|ping|stats|profile] [--firmware fw.img]
//                    [--cve ID] [--provenance[=FILE]] [--request-id N]
//                    [--scale S] [--seed N] [--seconds S]
//                    [--profile-out=FILE]
//   patchecko top    --socket PATH | --tcp PORT [--once] [--interval MS]
//
// `scan` rebuilds the vulnerability database deterministically from the
// corpus seed, loads the stripped firmware image from disk, and runs the
// two-stage pipeline plus the differential engine for each CVE, exactly as
// the paper's evaluation does. It runs on the batch engine, a
// dependency-aware job graph on the shared thread pool, without a cache
// (`--threads` is the job count). `batch-scan` runs the same engine with
// analyze/detect results served from a content-addressed cache.
// `--metrics` turns on the observability layer (src/obs): a one-line stage/
// cache/pruning summary on stderr plus the full JSON metrics document on
// stdout (or written to FILE). `--events` records decision provenance and
// structured events as JSONL; `--trace-out` writes a Chrome trace_event
// file loadable in Perfetto; `explain` renders the human-readable decision
// chain from a prior scan's provenance file. `--prefilter` enables the
// sub-linear stage-1 retrieval index (src/retrieval): `on` scores only each
// query's top-K nearest functions; its recall is read by comparing an `on`
// scan's decision records with an `off` scan's. `--heartbeat` appends live
// JSONL run-health snapshots during batch-scan; `--watchdog-soft/-hard`
// flag and cancel stalled jobs; `bench-diff` compares two BENCH_*.json
// files (or baseline directories) and exits nonzero on a perf regression.
//
// `serve` keeps the model, CVE corpus, and result cache resident in a
// long-lived daemon speaking the length-prefixed JSON protocol of
// src/service/protocol.h over a Unix-domain socket (and optionally TCP on
// 127.0.0.1); `client` submits scans and control requests to it. SIGHUP —
// or a `reload` request — hot-swaps the corpus snapshot without dropping
// in-flight scans; SIGINT/SIGTERM shut down gracefully (queued scans are
// cancelled with structured errors, telemetry files are flushed) and exit
// with 128+signal. The same interrupt handling applies to `batch-scan`.
//
// Daemon observability: `--access-log` writes one JSONL line per completed
// request (after its response frame); the `stats` and `health` requests —
// and the periodic `--stats-out` dump — answer with one state document
// (corpus, queue, image tier, cache, latest heartbeat, retrieval catalog,
// the sliding-window per-endpoint rollup, profiler and process RSS); `top`
// polls `stats` and renders a deterministic text dashboard (`--once` for a
// single scriptable frame).
//
// Profiling: `--profile[=FILE]` on scan/batch-scan charges the run's time
// and allocations to its span paths, prints a self-time/allocation top
// table on stderr, and writes flamegraph.pl/speedscope-compatible folded
// stacks to FILE. `client --op profile [--seconds S]` captures the same
// thing from a running daemon (409 while another capture is active); `top`
// shows the last capture's hottest leaf.
#include <chrono>
#include <cstdio>
#include <thread>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/pipeline.h"
#include "corpus/builder.h"
#include "dl/trainer.h"
#include "engine/engine.h"
#include "obs/decision.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/signals.h"
#include "service/top.h"
#include "tools/bench_diff_cmd.h"
#include "util/cli_args.h"
#include "util/parallel.h"

using namespace patchecko;
using cli::Args;
using cli::UsageError;
using cli::metrics_spec_from;
using cli::output_spec_from;
using cli::parse_args;
using cli::require_known_options;

namespace {

int write_text_file(const std::string& path, const std::string& content,
                    const char* what) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
  if (!out.good()) {
    std::fprintf(stderr, "error: cannot write %s to %s\n", what, path.c_str());
    return 1;
  }
  // The notice goes to stderr with the other progress text — stdout is
  // reserved for the report (or the JSONL itself in stdout mode).
  std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
  return 0;
}

/// Emits the end-of-run metrics artifacts: summary line on stderr (it must
/// never corrupt piped report/JSONL output), JSON on stdout or to the
/// requested file. No-op when --metrics was not given.
int emit_metrics(const cli::MetricsSpec& spec) {
  if (!spec.enabled) return 0;
  return obs::write_metrics_artifacts(
      obs::Registry::global(), obs::Tracer::global(),
      &obs::EventLog::global(), spec.file, stdout, stderr);
}

/// Emits the provenance JSONL: deterministic meta + decision lines first
/// (byte-identical across runs for unchanged inputs), wall-clock event
/// lines after. No-op when --events was not given.
int emit_events(const cli::OutputSpec& spec, const ScanReport& report) {
  if (!spec.enabled) return 0;
  std::string out = report.provenance_jsonl();
  for (const obs::Event& event : obs::EventLog::global().events())
    out += obs::event_jsonl_line(event) + "\n";
  if (spec.file.empty()) {
    std::printf("%s", out.c_str());
    return 0;
  }
  return write_text_file(spec.file, out, "events");
}

/// Verdict tally of one listing; `unresolved` counts CVEs whose library is
/// missing from the image or that matched no function.
struct VerdictCounts {
  int vulnerable = 0;
  int patched = 0;
  int unresolved = 0;
};

/// Prints the per-CVE verdict listing of `scan` and `batch-scan`: one line
/// per result in database order, then its evidence lines.
VerdictCounts print_results(const ScanReport& report) {
  VerdictCounts counts;
  for (const CveScanResult& result : report.results) {
    if (result.library_missing || !result.report.decision) {
      std::printf("%-16s %-18s %s\n", result.cve_id.c_str(),
                  result.library.c_str(),
                  result.library_missing ? "library not in image"
                                         : "no match");
      ++counts.unresolved;
      continue;
    }
    const bool is_patched =
        result.report.decision->verdict == PatchVerdict::patched;
    std::printf("%-16s %-18s %s (function #%zu)\n", result.cve_id.c_str(),
                result.library.c_str(), is_patched ? "patched" : "VULNERABLE",
                *result.report.matched_function);
    for (const std::string& note : result.report.decision->evidence)
      std::printf("                   evidence: %s\n", note.c_str());
    ++(is_patched ? counts.patched : counts.vulnerable);
  }
  return counts;
}

/// The --model file, or nullopt after printing why it does not load.
std::optional<SimilarityModel> load_model(const Args& args) {
  std::string why;
  auto model = SimilarityModel::load(args.get("model", ""), &why);
  if (!model)
    std::fprintf(stderr,
                 "error: cannot load model: %s (run `patchecko train`)\n",
                 why.c_str());
  return model;
}

/// Starts the in-process --profile capture. Returns whether a capture was
/// actually started (the caller passes that to emit_profile, so a pop
/// without a push is impossible even if something else owns the profiler).
bool start_profile(const cli::ProfileSpec& spec) {
  if (!spec.enabled) return false;
  if (!obs::Profiler::global().start(obs::Profiler::Config{})) {
    std::fprintf(stderr,
                 "warning: a profiler capture is already running; "
                 "--profile ignored\n");
    return false;
  }
  return true;
}

/// Stops the --profile capture and emits its artifacts: the self-time/
/// allocation top table on stderr (diagnostics never corrupt the piped
/// report), folded stacks to the requested file.
int emit_profile(const cli::ProfileSpec& spec, bool started) {
  if (!started) return 0;
  const obs::ProfileReport report = obs::Profiler::global().stop();
  std::fprintf(stderr, "%s", obs::profile_top_table(report).c_str());
  if (spec.file.empty()) return 0;
  return write_text_file(spec.file, obs::folded_stacks(report),
                         "folded profile");
}

/// Emits the Chrome trace_event file. No-op when --trace-out was not given.
int emit_trace(const cli::OutputSpec& spec) {
  if (!spec.enabled) return 0;
  return write_text_file(
      spec.file,
      obs::chrome_trace_json(obs::Tracer::global(), &obs::EventLog::global()) +
          "\n",
      "trace");
}

/// Shared --prefilter/--prefilter-top-k/--prefilter-min-total parsing for
/// scan, batch-scan, and serve (the flags mean the same thing through every
/// entry point).
void apply_prefilter_options(const Args& args, PipelineConfig& config) {
  if (args.has("prefilter")) {
    const std::string value = args.get("prefilter", "");
    const auto mode = retrieval::parse_prefilter_mode(value);
    if (!mode) throw UsageError("--prefilter expects on or off");
    config.prefilter_mode = *mode;
  }
  if (args.has("prefilter-top-k")) {
    const long top_k = args.get_long("prefilter-top-k", 0);
    if (top_k <= 0) throw UsageError("--prefilter-top-k must be > 0");
    config.prefilter_top_k = static_cast<std::size_t>(top_k);
  }
  if (args.has("prefilter-min-total")) {
    const long min_total = args.get_long("prefilter-min-total", -1);
    if (min_total < 0)
      throw UsageError("--prefilter-min-total must be >= 0");
    config.prefilter_min_total = static_cast<std::size_t>(min_total);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  patchecko train --out model.bin [--libraries N] "
               "[--functions N] [--epochs N] [--metrics[=FILE]]\n"
               "  patchecko build-firmware --device things|pixel --out "
               "fw.img [--scale S] [--seed N] [--metrics[=FILE]]\n"
               "  patchecko inspect --firmware fw.img [--metrics[=FILE]]\n"
               "  patchecko disasm --firmware fw.img --library NAME "
               "--function INDEX [--metrics[=FILE]]\n"
               "  patchecko scan --model model.bin --firmware fw.img "
               "[--cve ID] [--scale S] [--seed N] [--threads N]\n"
               "                 [--metrics[=FILE]] [--events[=FILE]] "
               "[--trace-out=FILE] [--profile[=FILE]]\n"
               "                 [--prefilter on|off] "
               "[--prefilter-top-k N] [--prefilter-min-total N]\n"
               "  patchecko batch-scan --model model.bin --firmware fw.img "
               "[--cve ID] [--jobs N] [--cache-dir DIR] [--no-cache]\n"
               "                 [--scale S] [--seed N] [--verbose] "
               "[--metrics[=FILE]] [--events[=FILE]] [--trace-out=FILE]\n"
               "                 [--heartbeat[=FILE][:interval_ms]] "
               "[--watchdog-soft S] [--watchdog-hard S]\n"
               "                 [--stall-inject LABEL:SECONDS] "
               "[--canonical[=FILE]] [--profile[=FILE]]\n"
               "                 [--prefilter on|off] "
               "[--prefilter-top-k N] [--prefilter-min-total N]\n"
               "  patchecko explain --provenance FILE [--cve ID] "
               "[--function INDEX]\n"
               "  patchecko bench-diff --old PATH --new PATH [--rel-tol F] "
               "[--abs-tol F]\n"
               "  patchecko corpus build --dir DIR [--jobs N] [--scale S] "
               "[--seed N] [--arch a,b,...] [--opt O0,O2,...]\n"
               "  patchecko corpus verify|gc|stats --dir DIR [--dry-run] "
               "[--json]\n"
               "  patchecko serve --model model.bin --socket PATH "
               "[--tcp PORT] [--scale S] [--seed N] [--jobs N]\n"
               "                 [--cache-dir DIR] [--no-cache] "
               "[--corpus-dir DIR] [--queue-limit N] [--dispatchers N]\n"
               "                 [--max-frame-bytes N] [--events=FILE] "
               "[--heartbeat=FILE[:interval_ms]]\n"
               "                 [--access-log[=FILE]] "
               "[--stats-out=FILE[:interval_ms]] [--stats-window S]\n"
               "                 [--prefilter on|off] "
               "[--prefilter-top-k N] [--prefilter-min-total N]\n"
               "  patchecko client --socket PATH | --tcp PORT "
               "[--op submit|status|health|reload|drain|ping|stats|profile]\n"
               "                 [--firmware fw.img] [--cve ID] "
               "[--provenance[=FILE]] [--request-id N]\n"
               "                 [--scale S] [--seed N] [--seconds S] "
               "[--profile-out=FILE]\n"
               "  patchecko top --socket PATH | --tcp PORT [--once] "
               "[--interval MS]\n");
  return 2;
}

int cmd_train(const Args& args) {
  require_known_options(args, {"out", "libraries", "functions", "epochs",
                               "scale", "seed", "metrics"});
  const cli::MetricsSpec metrics = metrics_spec_from(args);
  obs::set_enabled(metrics.enabled);
  const std::string out = args.get("out", "");
  if (out.empty()) return usage();
  TrainerConfig config;
  config.dataset.library_count =
      static_cast<std::size_t>(args.get_count("libraries", 60));
  config.dataset.functions_per_library =
      static_cast<std::size_t>(args.get_count("functions", 24));
  config.epochs = static_cast<std::size_t>(args.get_count("epochs", 12));
  config.verbose = true;
  std::printf("training on %zu libraries x %zu functions, %zu epochs...\n",
              config.dataset.library_count,
              config.dataset.functions_per_library, config.epochs);
  const TrainingRun run = train_similarity_model(config);
  std::printf("test accuracy %.2f%%, AUC %.4f\n", run.test_accuracy * 100.0,
              run.test_auc);
  if (!run.model.save(out)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("model written to %s\n", out.c_str());
  return emit_metrics(metrics);
}

EvalConfig eval_config_from(const Args& args) {
  EvalConfig config;
  config.scale = args.get_double("scale", 0.1);
  if (config.scale <= 0.0)
    throw UsageError("--scale must be > 0");
  config.seed = static_cast<std::uint64_t>(
      args.get_long("seed", static_cast<long>(config.seed)));
  return config;
}

/// The CVE ids a scan is limited to: none without --cve (every CVE), else
/// the one named. An empty --cve= names nothing and is a usage error.
std::vector<std::string> cve_selection(const Args& args) {
  if (!args.has("cve")) return {};
  const std::string cve = args.get("cve", "");
  if (cve.empty()) throw UsageError("--cve needs a CVE id");
  return {cve};
}

// --- corpus lifecycle ------------------------------------------------------

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  for (const char c : text) {
    if (c == ',') {
      out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  out.push_back(current);
  return out;
}

Arch parse_arch(const std::string& name) {
  for (int i = 0; i <= static_cast<int>(Arch::arm64); ++i)
    if (name == arch_name(static_cast<Arch>(i)))
      return static_cast<Arch>(i);
  throw UsageError("unknown arch '" + name +
                   "' (expected x86, amd64, arm32, or arm64)");
}

OptLevel parse_opt(const std::string& name) {
  for (int i = 0; i <= static_cast<int>(OptLevel::Ofast); ++i)
    if (name == opt_level_name(static_cast<OptLevel>(i)))
      return static_cast<OptLevel>(i);
  throw UsageError("unknown opt level '" + name +
                   "' (expected O0, O1, O2, O3, Oz, or Ofast)");
}

corpus::PrebuiltStore open_store(const Args& args) {
  const std::string dir = args.get("dir", "");
  if (dir.empty())
    throw UsageError("corpus " + args.command + " requires --dir DIR");
  return corpus::PrebuiltStore(dir);
}

int cmd_corpus_build(const Args& args) {
  require_known_options(
      args, {"dir", "jobs", "scale", "seed", "arch", "opt", "metrics"});
  const cli::MetricsSpec metrics = metrics_spec_from(args);
  obs::set_enabled(metrics.enabled);
  corpus::PrebuiltStore store = open_store(args);
  corpus::BuildMatrix matrix;
  matrix.eval = eval_config_from(args);
  matrix.jobs = static_cast<unsigned>(
      args.get_count("jobs", static_cast<long>(default_worker_threads())));
  if (args.has("arch"))
    for (const std::string& name : split_csv(args.get("arch", "")))
      matrix.arches.push_back(parse_arch(name));
  if (args.has("opt"))
    for (const std::string& name : split_csv(args.get("opt", "")))
      matrix.opts.push_back(parse_opt(name));
  std::printf("populating corpus store %s (scale %.2f, %u jobs)...\n",
              store.root().c_str(), matrix.eval.scale, matrix.jobs);
  const corpus::BuildReport report = corpus::build_store(store, matrix);
  // CI greps "built N, reused M" to assert a warm rebuild recompiles
  // nothing — keep this line format stable.
  std::printf("requested %llu artifacts (%llu libraries, %llu entries): "
              "built %llu, reused %llu in %.2fs\n",
              static_cast<unsigned long long>(report.requested),
              static_cast<unsigned long long>(report.library_artifacts),
              static_cast<unsigned long long>(report.entry_artifacts),
              static_cast<unsigned long long>(report.built),
              static_cast<unsigned long long>(report.reused),
              report.build_seconds);
  return emit_metrics(metrics);
}

int cmd_corpus_verify(const Args& args) {
  require_known_options(args, {"dir"});
  corpus::PrebuiltStore store = open_store(args);
  if (const auto issue = store.verify()) {
    std::fprintf(stderr, "error: corpus store %s: object %s",
                 store.root().c_str(), issue->object.c_str());
    if (!issue->key.empty())
      std::fprintf(stderr, " [%s]", issue->key.c_str());
    std::fprintf(stderr, ": %s\n", issue->detail.c_str());
    return 1;
  }
  const corpus::StoreStats stats = store.stats();
  std::printf("corpus store ok: %llu objects, %llu bytes verified\n",
              static_cast<unsigned long long>(stats.entries),
              static_cast<unsigned long long>(stats.bytes));
  return 0;
}

int cmd_corpus_gc(const Args& args) {
  require_known_options(args, {"dir", "dry-run"});
  corpus::PrebuiltStore store = open_store(args);
  const bool dry_run = args.has("dry-run");
  const corpus::GcResult result = store.gc(dry_run);
  if (!dry_run && !store.flush()) {
    std::fprintf(stderr, "error: cannot write manifest in %s\n",
                 store.root().c_str());
    return 1;
  }
  std::printf("%s %llu objects, %llu bytes%s\n",
              dry_run ? "would remove" : "removed",
              static_cast<unsigned long long>(result.removed_objects),
              static_cast<unsigned long long>(result.reclaimed_bytes),
              dry_run ? " (dry run)" : "");
  return 0;
}

int cmd_corpus_stats(const Args& args) {
  require_known_options(args, {"dir", "json"});
  corpus::PrebuiltStore store = open_store(args);
  if (args.has("json")) {
    std::printf("%s\n", store.stats_json().c_str());
    return 0;
  }
  const corpus::StoreStats stats = store.stats();
  std::printf("corpus store %s\n"
              "  entries     %llu\n"
              "  bytes       %llu\n"
              "  generation  %llu\n",
              store.root().c_str(),
              static_cast<unsigned long long>(stats.entries),
              static_cast<unsigned long long>(stats.bytes),
              static_cast<unsigned long long>(stats.generation));
  return 0;
}

int cmd_build_firmware(const Args& args) {
  require_known_options(args, {"out", "device", "scale", "seed", "metrics"});
  const cli::MetricsSpec metrics = metrics_spec_from(args);
  obs::set_enabled(metrics.enabled);
  const std::string out = args.get("out", "");
  if (out.empty()) return usage();
  const std::string device_name = args.get("device", "things");
  if (device_name != "things" && device_name != "pixel")
    throw UsageError("--device expects 'things' or 'pixel', got '" +
                     device_name + "'");
  const DeviceSpec device =
      device_name == "pixel" ? pixel2xl_device() : android_things_device();
  const EvalConfig config = eval_config_from(args);
  std::printf("building \"%s\" firmware (scale %.2f)...\n",
              device.name.c_str(), config.scale);
  const EvalCorpus corpus(config);
  const FirmwareImage image = corpus.build_firmware(device);
  if (!save_firmware(image, out)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("%zu libraries, %zu functions -> %s\n", image.libraries.size(),
              image.total_functions(), out.c_str());
  return emit_metrics(metrics);
}

int cmd_inspect(const Args& args) {
  require_known_options(args, {"firmware", "metrics"});
  const cli::MetricsSpec metrics = metrics_spec_from(args);
  obs::set_enabled(metrics.enabled);
  const auto image = load_firmware(args.get("firmware", ""));
  if (!image) {
    std::fprintf(stderr, "error: cannot load firmware image\n");
    return 1;
  }
  std::printf("device : %s\n", image->device.c_str());
  std::printf("%-20s %-8s %-6s %-10s %s\n", "library", "arch", "opt",
               "functions", "stripped");
  for (const LibraryBinary& lib : image->libraries)
    std::printf("%-20s %-8s %-6s %-10zu %s\n", lib.name.c_str(),
                std::string(arch_name(lib.arch)).c_str(),
                std::string(opt_level_name(lib.opt)).c_str(),
                lib.function_count(), lib.stripped ? "yes" : "no");
  std::printf("total: %zu functions\n", image->total_functions());
  return emit_metrics(metrics);
}

int cmd_disasm(const Args& args) {
  require_known_options(args, {"firmware", "library", "function", "metrics"});
  const cli::MetricsSpec metrics = metrics_spec_from(args);
  obs::set_enabled(metrics.enabled);
  const auto image = load_firmware(args.get("firmware", ""));
  if (!image) {
    std::fprintf(stderr, "error: cannot load firmware image\n");
    return 1;
  }
  const std::string library = args.get("library", "");
  const long index_arg = args.get_long("function", 0);
  if (index_arg < 0)
    throw UsageError("--function must be >= 0");
  const auto index = static_cast<std::size_t>(index_arg);
  for (const LibraryBinary& lib : image->libraries) {
    if (lib.name != library) continue;
    if (index >= lib.function_count()) {
      std::fprintf(stderr, "error: function index out of range (%zu)\n",
                   lib.function_count());
      return 1;
    }
    const FunctionBinary& fn = lib.functions[index];
    std::printf("%s!fn_%zu  (%zu instructions, frame %lld bytes)\n",
                lib.name.c_str(), index, fn.code.size(),
                static_cast<long long>(fn.frame_size));
    for (std::size_t i = 0; i < fn.code.size(); ++i)
      std::printf("%4zu  %s\n", i, to_string(fn.code[i]).c_str());
    return emit_metrics(metrics);
  }
  std::fprintf(stderr, "error: no library named %s\n", library.c_str());
  return 1;
}

int cmd_scan(const Args& args) {
  require_known_options(
      args, {"model", "firmware", "cve", "scale", "seed", "threads",
             "metrics", "events", "trace-out", "profile", "prefilter",
             "prefilter-top-k", "prefilter-min-total"});
  const std::vector<std::string> cve_ids = cve_selection(args);
  const cli::MetricsSpec metrics = metrics_spec_from(args);
  const cli::OutputSpec events = output_spec_from(args, "events");
  const cli::OutputSpec trace_out =
      output_spec_from(args, "trace-out", /*value_required=*/true);
  const cli::ProfileSpec profile = cli::profile_spec_from(args);
  // The profiler snapshots span stacks, so spans must actually be pushed.
  obs::set_enabled(metrics.enabled || trace_out.enabled || profile.enabled);
  obs::set_events_enabled(events.enabled || trace_out.enabled);
  const bool profiling = start_profile(profile);
  const auto model = load_model(args);
  if (!model) return 1;
  const auto image = load_firmware(args.get("firmware", ""));
  if (!image) {
    std::fprintf(stderr, "error: cannot load firmware image\n");
    return 1;
  }

  const EvalConfig config = eval_config_from(args);
  std::printf("building vulnerability database (scale %.2f)...\n",
              config.scale);
  const EvalCorpus corpus(config);
  const CveDatabase database(corpus, DatabaseConfig{});

  EngineConfig engine_config;
  engine_config.jobs = static_cast<unsigned>(args.get_count(
      "threads", static_cast<long>(default_worker_threads())));
  engine_config.use_cache = false;
  apply_prefilter_options(args, engine_config.pipeline);

  ScanRequest request;
  request.model = &*model;
  request.firmware = &*image;
  request.database = &database;
  request.cve_ids = cve_ids;

  const ScanReport report = ScanEngine(engine_config).run(request);
  const VerdictCounts counts = print_results(report);
  std::printf("\nscan finished in %.1fs: %d vulnerable, %d patched, %d "
              "unresolved\n",
              report.total_seconds, counts.vulnerable, counts.patched,
              counts.unresolved);
  int status = emit_metrics(metrics);
  if (const int rc = emit_profile(profile, profiling); rc != 0) status = rc;
  if (const int rc = emit_events(events, report); rc != 0) status = rc;
  if (const int rc = emit_trace(trace_out); rc != 0) status = rc;
  return status;
}

int cmd_batch_scan(const Args& args) {
  // Validate every option before the expensive corpus/database build.
  require_known_options(args, {"model", "firmware", "cve", "jobs", "cache-dir",
                               "no-cache", "scale", "seed", "verbose",
                               "metrics", "events", "trace-out", "profile",
                               "heartbeat", "watchdog-soft", "watchdog-hard",
                               "stall-inject", "canonical", "prefilter",
                               "prefilter-top-k", "prefilter-min-total"});
  const std::vector<std::string> cve_ids = cve_selection(args);
  const cli::MetricsSpec metrics = metrics_spec_from(args);
  const cli::OutputSpec events = output_spec_from(args, "events");
  const cli::OutputSpec canonical = output_spec_from(args, "canonical");
  const cli::OutputSpec trace_out =
      output_spec_from(args, "trace-out", /*value_required=*/true);
  const cli::HeartbeatSpec heartbeat = cli::heartbeat_spec_from(args);
  const cli::ProfileSpec profile = cli::profile_spec_from(args);
  const double watchdog_soft = args.get_double("watchdog-soft", 0.0);
  const double watchdog_hard = args.get_double("watchdog-hard", 0.0);
  if ((args.has("watchdog-soft") && watchdog_soft <= 0.0) ||
      (args.has("watchdog-hard") && watchdog_hard <= 0.0))
    throw UsageError("watchdog deadlines must be > 0 seconds");
  const bool watchdog_on = watchdog_soft > 0.0 || watchdog_hard > 0.0;
  // Heartbeat/watchdog *sample* the registry and event log, so they need
  // the obs flags on even without --metrics/--events.
  obs::set_enabled(metrics.enabled || trace_out.enabled || heartbeat.enabled ||
                   watchdog_on || profile.enabled);
  obs::set_events_enabled(events.enabled || trace_out.enabled || watchdog_on);
  const bool profiling = start_profile(profile);
  EngineConfig engine_config;
  engine_config.jobs = static_cast<unsigned>(
      args.get_count("jobs", static_cast<long>(default_worker_threads())));
  engine_config.cache_dir = args.get("cache-dir", "");
  engine_config.use_cache = !args.has("no-cache");
  if (args.has("no-cache") && args.has("cache-dir"))
    throw UsageError("--no-cache and --cache-dir are mutually exclusive");
  engine_config.watchdog.soft_deadline_seconds = watchdog_soft;
  engine_config.watchdog.hard_deadline_seconds = watchdog_hard;
  apply_prefilter_options(args, engine_config.pipeline);
  if (args.has("stall-inject")) {
    // LABEL:SECONDS — the test hook that makes a detect job oversleep.
    const std::string value = args.get("stall-inject", "");
    const auto colon = value.rfind(':');
    if (colon == std::string::npos || colon == 0)
      throw UsageError("--stall-inject expects LABEL:SECONDS");
    engine_config.stall_inject_label = value.substr(0, colon);
    try {
      engine_config.stall_inject_seconds = std::stod(value.substr(colon + 1));
    } catch (const std::exception&) {
      throw UsageError("--stall-inject expects LABEL:SECONDS");
    }
    if (engine_config.stall_inject_seconds <= 0.0)
      throw UsageError("--stall-inject seconds must be > 0");
  }
  // Ctrl-C / kill stop launching queued jobs, cancel in-flight work at the
  // next cooperative check, and still flush every telemetry artifact.
  service::install_signal_handlers(/*with_sighup=*/false);
  engine_config.interrupt = &service::interrupt_flag();
  std::optional<obs::Heartbeat> heartbeat_publisher;
  if (heartbeat.enabled) {
    obs::HeartbeatConfig heartbeat_config;
    heartbeat_config.file = heartbeat.file;
    heartbeat_config.interval_seconds = heartbeat.interval_seconds;
    heartbeat_publisher.emplace(std::move(heartbeat_config));
    engine_config.heartbeat = &*heartbeat_publisher;
  }

  const auto model = load_model(args);
  if (!model) return 1;
  const auto image = load_firmware(args.get("firmware", ""));
  if (!image) {
    std::fprintf(stderr, "error: cannot load firmware image\n");
    return 1;
  }

  const EvalConfig config = eval_config_from(args);
  // Bare --canonical reserves stdout for the report bytes, so the progress
  // note joins the other diagnostics on stderr.
  std::fprintf(args.has("canonical") && args.get("canonical", "").empty()
                   ? stderr
                   : stdout,
               "building vulnerability database (scale %.2f)...\n",
               config.scale);
  const EvalCorpus corpus(config);
  const CveDatabase database(corpus, DatabaseConfig{});

  ScanEngine engine(engine_config);

  ScanRequest request;
  request.model = &*model;
  request.firmware = &*image;
  request.database = &database;
  request.cve_ids = cve_ids;

  const bool verbose = args.has("verbose");
  const ProgressFn progress = [verbose](const JobEvent& event) {
    if (!verbose) return;
    std::fprintf(stderr, "[%zu/%zu] %-7s %-20s %7.3fs%s\n",
                 event.sequence + 1, event.total_jobs,
                 std::string(job_kind_name(event.kind)).c_str(),
                 event.label.c_str(), event.seconds,
                 event.cache_hit ? "  (cache)" : "");
  };

  const ScanReport report = engine.run(request, progress);
  // Bare --canonical reserves stdout for the canonical report bytes (the
  // artifact CI byte-compares against the service); the human listing and
  // summary move aside.
  const bool canonical_stdout = canonical.enabled && canonical.file.empty();
  if (canonical_stdout) {
    std::fputs(report.canonical_text().c_str(), stdout);
  } else {
    print_results(report);
    std::printf("\n%s", report.summary_text().c_str());
  }
  int status = emit_metrics(metrics);
  if (const int rc = emit_profile(profile, profiling); rc != 0) status = rc;
  if (canonical.enabled && !canonical.file.empty()) {
    if (const int rc = write_text_file(canonical.file, report.canonical_text(),
                                       "canonical report");
        rc != 0)
      status = rc;
  }
  if (const int rc = emit_events(events, report); rc != 0) status = rc;
  if (const int rc = emit_trace(trace_out); rc != 0) status = rc;
  if (report.interrupted && service::interrupt_signal() != 0) {
    std::fprintf(stderr,
                 "scan interrupted by signal %d: %zu queued jobs cancelled; "
                 "partial report emitted\n",
                 service::interrupt_signal(), report.jobs_cancelled);
    return 128 + service::interrupt_signal();
  }
  return status;
}

int cmd_explain(const Args& args) {
  require_known_options(args, {"provenance", "cve", "function"});
  const std::string path = args.get("provenance", "");
  if (path.empty()) return usage();
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read provenance file %s\n",
                 path.c_str());
    return 1;
  }
  const std::string only_cve = args.get("cve", "");
  const bool by_function = args.has("function");
  const long function_arg = args.get_long("function", 0);
  if (by_function && function_arg < 0)
    throw UsageError("--function must be >= 0");
  const auto wanted_function = static_cast<std::uint64_t>(function_arg);

  std::size_t shown = 0;
  std::size_t unreadable = 0;
  std::vector<std::string> available;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto record = obs::parse_decision_line(line);
    if (!record) {  // meta or event line, or a decision this build can't read
      if (obs::is_decision_line(line)) ++unreadable;
      continue;
    }
    available.push_back(record->cve_id);
    if (!only_cve.empty() && record->cve_id != only_cve) continue;
    if (by_function &&
        !(record->matched_function == wanted_function))
      continue;
    if (shown != 0) std::printf("\n");
    std::printf("%s", obs::explain_text(*record).c_str());
    ++shown;
  }
  if (unreadable != 0)
    std::fprintf(stderr,
                 "%zu decision records could not be read (another format "
                 "version?)\n",
                 unreadable);
  if (shown != 0) return 0;
  std::fprintf(stderr, "no matching decision record in %s\n", path.c_str());
  if (!available.empty()) {
    std::fprintf(stderr, "recorded CVEs:");
    for (const std::string& cve : available)
      std::fprintf(stderr, " %s", cve.c_str());
    std::fprintf(stderr, "\n");
  }
  return 1;
}

int cmd_serve(const Args& args) {
  require_known_options(
      args, {"model", "socket", "tcp", "scale", "seed", "jobs", "cache-dir",
             "no-cache", "corpus-dir", "queue-limit", "dispatchers",
             "max-frame-bytes", "events", "heartbeat", "access-log",
             "stats-out", "stats-window", "scan-delay", "prefilter",
             "prefilter-top-k", "prefilter-min-total"});
  service::ServiceConfig config;
  config.socket_path = args.get("socket", "");
  if (config.socket_path.empty() && !args.has("tcp"))
    throw UsageError("serve needs --socket PATH and/or --tcp PORT");
  if (args.has("tcp")) {
    const long port = args.get_long("tcp", 0);
    if (port < 0 || port > 65535)
      throw UsageError("--tcp expects a port in [0, 65535]");
    config.tcp_port = static_cast<int>(port);
  }
  config.eval = eval_config_from(args);
  config.engine.jobs = static_cast<unsigned>(
      args.get_count("jobs", static_cast<long>(default_worker_threads())));
  config.engine.cache_dir = args.get("cache-dir", "");
  config.engine.use_cache = !args.has("no-cache");
  if (args.has("no-cache") && args.has("cache-dir"))
    throw UsageError("--no-cache and --cache-dir are mutually exclusive");
  config.engine.interrupt = &service::interrupt_flag();
  apply_prefilter_options(args, config.engine.pipeline);
  config.queue_limit =
      static_cast<std::size_t>(args.get_count("queue-limit", 64));
  config.dispatchers = static_cast<unsigned>(args.get_count("dispatchers", 2));
  config.max_frame_bytes = static_cast<std::size_t>(args.get_count(
      "max-frame-bytes",
      static_cast<long>(service::kDefaultMaxFrameBytes)));
  config.events = output_spec_from(args, "events", /*value_required=*/true);
  config.heartbeat = cli::heartbeat_spec_from(args);
  if (config.heartbeat.enabled && config.heartbeat.file.empty())
    throw UsageError(
        "serve --heartbeat requires a file path (per-request files are "
        "derived from it)");
  // Bare --access-log goes to stderr (one line per request is tolerable
  // operator output); --stats-out must name a file — a periodic full stats
  // document would drown the daemon's stderr.
  config.access_log = output_spec_from(args, "access-log");
  config.stats_out = cli::heartbeat_spec_from(args, "stats-out");
  if (config.stats_out.enabled && config.stats_out.file.empty())
    throw UsageError("serve --stats-out requires a file path");
  config.stats_window_seconds = args.get_double("stats-window", 60.0);
  if (config.stats_window_seconds <= 0.0)
    throw UsageError("--stats-window must be > 0 seconds");
  // Test hook: artificial per-scan dispatch delay, for deterministic
  // backpressure exercises against a fast corpus.
  config.scan_delay_seconds = args.get_double("scan-delay", 0.0);
  if (config.scan_delay_seconds < 0.0)
    throw UsageError("--scan-delay must be >= 0");
  // Store-backed corpus: startup and SIGHUP reloads assemble snapshots from
  // the prebuilt store (self-healing on misses) instead of recompiling, and
  // the state document grows a corpus_store block.
  std::shared_ptr<corpus::PrebuiltStore> prebuilt;
  if (args.has("corpus-dir")) {
    const std::string dir = args.get("corpus-dir", "");
    if (dir.empty()) throw UsageError("--corpus-dir requires a directory");
    prebuilt = std::make_shared<corpus::PrebuiltStore>(dir);
    config.snapshot_builder = corpus::store_backed_builder(prebuilt);
    config.corpus_store_stats_json = [prebuilt] {
      return prebuilt->stats_json();
    };
  }

  // The daemon always runs with obs on: the state document samples the
  // registry and per-request provenance needs the event machinery.
  obs::set_enabled(true);
  obs::set_events_enabled(true);

  const auto model = load_model(args);
  if (!model) return 1;
  config.model = &*model;
  if (prebuilt != nullptr)
    std::printf("loading vulnerability database from corpus store %s "
                "(scale %.2f)...\n",
                prebuilt->root().c_str(), config.eval.scale);
  else
    std::printf("building vulnerability database (scale %.2f)...\n",
                config.eval.scale);
  service::ScanService svc(config);
  service::install_signal_handlers(/*with_sighup=*/true);
  svc.start();
  if (!config.socket_path.empty())
    std::printf("listening on unix:%s\n", config.socket_path.c_str());
  if (svc.tcp_port() >= 0)
    std::printf("listening on tcp:127.0.0.1:%d\n", svc.tcp_port());
  // CI and scripts tail this output to learn the daemon is ready (and which
  // ephemeral port it got), so it must not sit in a stdio buffer.
  std::fflush(stdout);

  while (!service::interrupt_flag().load(std::memory_order_acquire) &&
         !svc.drained()) {
    if (service::consume_reload_request()) {
      const auto snapshot = svc.reload(std::nullopt, std::nullopt);
      std::printf("corpus reloaded: version %llu (%zu CVEs)\n",
                  static_cast<unsigned long long>(snapshot->version),
                  snapshot->database.entries().size());
      std::fflush(stdout);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const bool interrupted =
      service::interrupt_flag().load(std::memory_order_acquire);
  svc.stop();
  if (interrupted) {
    std::fprintf(stderr, "interrupted by signal %d; shut down cleanly\n",
                 service::interrupt_signal());
    return 128 + service::interrupt_signal();
  }
  std::printf("drained; shutting down\n");
  return 0;
}

service::ServiceClient client_connect(const Args& args) {
  if (args.has("socket"))
    return service::ServiceClient::connect_unix(args.get("socket", ""));
  if (args.has("tcp")) {
    const long port = args.get_long("tcp", 0);
    if (port < 1 || port > 65535)
      throw UsageError("--tcp expects a port in [1, 65535]");
    return service::ServiceClient::connect_tcp(static_cast<int>(port));
  }
  throw UsageError("client needs --socket PATH or --tcp PORT");
}

int cmd_client(const Args& args) {
  require_known_options(args, {"socket", "tcp", "op", "firmware", "cve",
                               "provenance", "request-id", "scale", "seed",
                               "seconds", "profile-out"});
  const std::string op = args.get("op", "submit");
  if (op != "submit" && op != "status" && op != "health" && op != "reload" &&
      op != "drain" && op != "ping" && op != "stats" && op != "profile")
    throw UsageError(
        "--op expects submit|status|health|reload|drain|ping|stats|profile, "
        "got '" + op + "'");
  const std::vector<std::string> cve_ids = cve_selection(args);
  const cli::OutputSpec provenance = output_spec_from(args, "provenance");
  service::ServiceClient client = client_connect(args);
  if (!client.connected()) {
    std::fprintf(stderr, "error: cannot connect to the scan service\n");
    return 1;
  }

  if (op != "submit") {
    std::string payload;
    if (op == "status") {
      if (!args.has("request-id"))
        throw UsageError("--op status needs --request-id N");
      const long id = args.get_long("request-id", 0);
      if (id < 0) throw UsageError("--request-id must be >= 0");
      payload =
          service::status_request_json(static_cast<std::uint64_t>(id));
    } else if (op == "health") {
      payload = service::health_request_json();
    } else if (op == "reload") {
      std::optional<double> scale;
      std::optional<std::uint64_t> seed;
      if (args.has("scale")) {
        scale = args.get_double("scale", 0.0);
        if (*scale <= 0.0) throw UsageError("--scale must be > 0");
      }
      if (args.has("seed")) {
        const long value = args.get_long("seed", 0);
        if (value < 0) throw UsageError("--seed must be >= 0");
        seed = static_cast<std::uint64_t>(value);
      }
      payload = service::reload_request_json(scale, seed);
    } else if (op == "drain") {
      payload = service::drain_request_json();
    } else if (op == "stats") {
      payload = service::stats_request_json();
    } else if (op == "profile") {
      const double seconds = args.get_double("seconds", 1.0);
      if (seconds <= 0.0 || seconds > 300.0)
        throw UsageError("--seconds must be in (0, 300]");
      payload = service::profile_request_json(seconds);
    } else {
      payload = service::ping_request_json();
    }
    // Profile captures can legitimately take minutes; validate the output
    // spec before blocking the daemon for the capture window.
    const cli::OutputSpec profile_out =
        output_spec_from(args, "profile-out");
    const auto response = client.call(payload);
    if (!response) {
      std::fprintf(stderr, "error: connection closed without a response\n");
      return 1;
    }
    const auto doc = obs::json::parse(*response);
    if (op == "profile" && doc &&
        doc->get("type").as_string() == "profile") {
      // Folded stacks on stdout (or --profile-out=FILE) so the capture
      // pipes straight into flamegraph.pl; the top table joins the other
      // diagnostics on stderr.
      const std::string folded = doc->get("folded").as_string();
      std::fprintf(stderr, "%s", doc->get("top").as_string().c_str());
      if (profile_out.enabled && !profile_out.file.empty())
        return write_text_file(profile_out.file, folded, "folded profile");
      std::fwrite(folded.data(), 1, folded.size(), stdout);
      return 0;
    }
    std::printf("%s\n", response->c_str());
    return doc && doc->get("type").as_string() == "error" ? 1 : 0;
  }

  // submit: stream the scan through, reserving stdout for the canonical
  // report bytes so `cmp` against a one-shot --canonical run is meaningful.
  const std::string firmware = args.get("firmware", "");
  if (firmware.empty()) throw UsageError("--op submit needs --firmware PATH");
  // Optional client-named request: the daemon honors the id (rejecting
  // duplicates), so scripted storms can pre-assign ids they later grep for
  // in the access log / event files.
  std::uint64_t request_id = 0;
  if (args.has("request-id")) {
    const long id = args.get_long("request-id", 0);
    if (id < 1) throw UsageError("submit --request-id must be >= 1");
    request_id = static_cast<std::uint64_t>(id);
  }
  if (!client.send(service::scan_request_json(firmware, cve_ids,
                                              provenance.enabled,
                                              request_id))) {
    std::fprintf(stderr, "error: cannot submit scan request\n");
    return 1;
  }
  const auto first = client.receive();
  if (!first) {
    std::fprintf(stderr, "error: connection closed without a response\n");
    return 1;
  }
  const auto first_doc = obs::json::parse(*first);
  if (!first_doc) {
    std::fprintf(stderr, "error: malformed response payload\n");
    return 1;
  }
  if (first_doc->get("type").as_string() == "error") {
    const int code = static_cast<int>(first_doc->get("code").as_number());
    std::fprintf(stderr, "error %d: %s\n", code,
                 first_doc->get("message").as_string().c_str());
    // Backpressure rejects get their own exit code so load drivers can
    // distinguish "shed" from "broken".
    return code == 429 ? 3 : 1;
  }
  std::fprintf(stderr, "accepted: request %llu\n",
               static_cast<unsigned long long>(
                   first_doc->get("request_id").as_number()));
  const auto second = client.receive();
  if (!second) {
    std::fprintf(stderr, "error: connection closed before the result\n");
    return 1;
  }
  const auto doc = obs::json::parse(*second);
  if (!doc) {
    std::fprintf(stderr, "error: malformed response payload\n");
    return 1;
  }
  if (doc->get("type").as_string() == "error") {
    std::fprintf(stderr, "error %d: %s\n",
                 static_cast<int>(doc->get("code").as_number()),
                 doc->get("message").as_string().c_str());
    return 1;
  }
  const std::string report = doc->get("report").as_string();
  std::fwrite(report.data(), 1, report.size(), stdout);
  std::fflush(stdout);
  std::fprintf(stderr, "%s", doc->get("summary").as_string().c_str());
  if (provenance.enabled) {
    const std::string decisions = doc->get("provenance").as_string();
    if (provenance.file.empty())
      std::fprintf(stderr, "%s", decisions.c_str());
    else if (const int rc =
                 write_text_file(provenance.file, decisions, "provenance");
             rc != 0)
      return rc;
  }
  if (doc->get("interrupted").as_bool(false)) {
    std::fprintf(stderr, "warning: scan interrupted; report is partial\n");
    return 1;
  }
  return 0;
}

int cmd_top(const Args& args) {
  require_known_options(args, {"socket", "tcp", "once", "interval"});
  const bool once = args.has("once");
  // Same bounds discipline as the HeartbeatSpec interval suffix: strictly
  // positive, and capped so a fat-fingered value (ms vs s confusion) can't
  // freeze the dashboard for hours.
  const long interval_ms = args.get_count("interval", 1000);
  if (interval_ms > 3600000)
    throw UsageError("--interval must be <= 3600000 ms (1 hour), got " +
                     std::to_string(interval_ms));
  service::ServiceClient client = client_connect(args);
  if (!client.connected()) {
    std::fprintf(stderr, "error: cannot connect to the scan service\n");
    return 1;
  }
  // Ctrl-C out of the refresh loop is a normal way to leave a dashboard,
  // not a failure — exit 0, unlike the 128+signal convention of the
  // long-running scan commands.
  service::install_signal_handlers(/*with_sighup=*/false);
  for (;;) {
    const auto response = client.call(service::stats_request_json());
    if (!response) {
      std::fprintf(stderr, "error: connection closed without a response\n");
      return 1;
    }
    const auto doc = obs::json::parse(*response);
    if (!doc) {
      std::fprintf(stderr, "error: malformed stats response (%zu bytes)\n",
                   response->size());
      return 1;
    }
    if (doc->get("type").as_string() == "error") {
      std::fprintf(stderr, "error %d: %s\n",
                   static_cast<int>(doc->get("code").as_number()),
                   doc->get("message").as_string().c_str());
      return 1;
    }
    std::string invalid;
    if (!service::validate_stats(*doc, &invalid)) {
      // A short or mis-shapen document must not paint a dashboard of
      // zeros — name the first missing piece and bail.
      std::fprintf(stderr, "error: invalid stats response: %s\n",
                   invalid.c_str());
      return 1;
    }
    const std::string frame = service::render_top(*doc);
    if (once) {
      std::fputs(frame.c_str(), stdout);
      return 0;
    }
    // Repaint in place: cursor home + clear-to-end, then the fresh frame.
    std::printf("\033[H\033[J%s", frame.c_str());
    std::fflush(stdout);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(interval_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (service::interrupt_flag().load(std::memory_order_acquire)) {
        std::printf("\n");
        return 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

/// `patchecko corpus <verb> ...` — the verb parses as the command once the
/// `corpus` token is shifted off.
int cmd_corpus(int argc, char** argv) {
  const Args args = parse_args(argc - 1, argv + 1);
  if (args.command == "build") return cmd_corpus_build(args);
  if (args.command == "verify") return cmd_corpus_verify(args);
  if (args.command == "gc") return cmd_corpus_gc(args);
  if (args.command == "stats") return cmd_corpus_stats(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "corpus")
      return cmd_corpus(argc, argv);
    const Args args = parse_args(argc, argv);
    if (args.command == "train") return cmd_train(args);
    if (args.command == "build-firmware") return cmd_build_firmware(args);
    if (args.command == "inspect") return cmd_inspect(args);
    if (args.command == "disasm") return cmd_disasm(args);
    if (args.command == "scan") return cmd_scan(args);
    if (args.command == "batch-scan") return cmd_batch_scan(args);
    if (args.command == "explain") return cmd_explain(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "client") return cmd_client(args);
    if (args.command == "top") return cmd_top(args);
    if (args.command == "bench-diff") return patchecko::run_bench_diff(args);
    return usage();
  } catch (const UsageError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
