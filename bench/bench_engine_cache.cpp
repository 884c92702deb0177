// Batch engine acceptance bench: a cold batch-scan populates the
// content-addressed cache; a warm re-scan of the same request must be at
// least 2x faster and produce a byte-identical canonical report, and a
// fresh single-job engine served from the same cache directory must agree
// byte-for-byte with the multi-job cold run (determinism across both job
// count and cache temperature). Both warm runs read one entry per CVE and
// nothing else: they must run the VM 0 times and look up no features.
// Two unit-cost rows price the content digest
// under every cache key: bulk bytes (the verified blob read and the library
// key load_firmware takes from each record it decodes) and digest_library
// over the Things image (the same key for a library built in memory, which
// build_firmware and a scan of a hand-assembled image pay).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "harness.h"
#include "obs/metrics.h"
#include "util/parallel.h"
#include "util/table.h"
#include "util/timer.h"

using namespace patchecko;

namespace {

/// Median wall seconds of `passes` calls of `fn`.
template <typename Fn>
double median_seconds(int passes, Fn&& fn) {
  std::vector<double> seconds;
  for (int i = 0; i < passes; ++i) {
    const Stopwatch watch;
    fn();
    seconds.push_back(watch.elapsed_seconds());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

/// ns/byte of Digest::absorb over a 16 MiB buffer.
double digest_ns_per_byte() {
  std::vector<std::uint8_t> bytes(16u << 20);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(i * 131);
  const double seconds = median_seconds(5, [&] {
    Digest digest;
    digest.absorb(bytes.data(), bytes.size());
  });
  return seconds * 1e9 / static_cast<double>(bytes.size());
}

/// ns/function of digest_library over every library of `firmware`.
double digest_ns_per_function(const FirmwareImage& firmware) {
  const double seconds = median_seconds(5, [&] {
    for (const LibraryBinary& library : firmware.libraries)
      digest_library(library);
  });
  return seconds * 1e9 / static_cast<double>(firmware.total_functions());
}

}  // namespace

int main() {
  const bench::EvalContext& ctx = bench::shared_eval_context();
  const FirmwareImage firmware = ctx.corpus->build_firmware(ctx.things);

  ScanRequest request;
  request.model = &ctx.model;
  request.firmware = &firmware;
  request.database = ctx.database.get();

  const std::string cache_dir =
      (std::filesystem::temp_directory_path() / "pk_bench_engine_cache")
          .string();
  std::filesystem::remove_all(cache_dir);

  EngineConfig config;
  config.jobs = default_worker_threads();
  config.cache_dir = cache_dir;

  std::printf(
      "=== Batch engine: content-addressed cache (%zu CVEs, jobs=%u) ===\n",
      ctx.database->entries().size(), config.jobs);

  ScanEngine engine(config);
  const ScanReport cold = engine.run(request);
  // A warm run with metrics on, so that vm.runs counts its VM runs.
  const auto counted_run = [&request](ScanEngine& runner,
                                      std::uint64_t& vm_runs) {
    const obs::EnabledScope metrics_on(true);
    const obs::Counter& runs = obs::Registry::global().counter("vm.runs");
    const std::uint64_t before = runs.value();
    ScanReport report = runner.run(request);
    vm_runs = runs.value() - before;
    return report;
  };
  std::uint64_t warm_vm_runs = 0, replay_vm_runs = 0;
  const ScanReport warm = counted_run(engine, warm_vm_runs);

  EngineConfig sequential = config;
  sequential.jobs = 1;
  ScanEngine fresh(sequential);  // disk only
  const ScanReport replay = counted_run(fresh, replay_vm_runs);

  TextTable table({"run", "jobs", "seconds", "speedup", "cache hits",
                   "cache misses"});
  const auto add = [&table](const char* name, unsigned jobs,
                            const ScanReport& report, double baseline) {
    table.add_row({name, std::to_string(jobs),
                   fmt_double(report.total_seconds, 3),
                   fmt_double(baseline / report.total_seconds, 2) + "x",
                   std::to_string(report.cache.hits()),
                   std::to_string(report.cache.misses())});
  };
  add("cold", config.jobs, cold, cold.total_seconds);
  add("warm (memory)", config.jobs, warm, cold.total_seconds);
  add("fresh engine (disk)", 1, replay, cold.total_seconds);
  std::printf("%s\n", table.render().c_str());

  const auto json_row = [](const char* name, const ScanReport& report) {
    return bench::BenchRow(
        name, {{"seconds", report.total_seconds},
               {"cache_misses", static_cast<double>(report.cache.misses())}});
  };
  const auto feature_lookups = [](const ScanReport& report) {
    return report.cache.feature_hits + report.cache.feature_misses;
  };
  const auto warm_row = [&](const char* name, const ScanReport& report,
                            std::uint64_t runs) {
    return json_row(name, report)
        .set("vm_runs", static_cast<double>(runs))
        .set("feature_lookups", static_cast<double>(feature_lookups(report)));
  };
  const double ns_per_byte = digest_ns_per_byte();
  const double ns_per_function = digest_ns_per_function(firmware);
  std::printf("digest: %.3f ns/byte (16 MiB), digest_library %.1f "
              "ns/function (%zu functions)\n",
              ns_per_byte, ns_per_function, firmware.total_functions());
  bool ok = bench::write_bench_json(
      "engine_cache",
      {json_row("cold", cold), warm_row("warm_memory", warm, warm_vm_runs),
       warm_row("replay_disk", replay, replay_vm_runs),
       bench::BenchRow("digest_bytes", {{"ns_per_byte", ns_per_byte}}),
       bench::BenchRow("digest_library",
                       {{"ns_per_function", ns_per_function}})});
  if (warm.canonical_text() != cold.canonical_text()) {
    std::printf("FAIL: warm report differs from cold report\n");
    ok = false;
  }
  if (replay.canonical_text() != cold.canonical_text()) {
    std::printf("FAIL: jobs=1 disk-served report differs from cold report\n");
    ok = false;
  }
  if (warm.cache.misses() != 0) {
    std::printf("FAIL: warm run missed the cache %llu times\n",
                static_cast<unsigned long long>(warm.cache.misses()));
    ok = false;
  }
  const auto check_warm = [&](const char* name, const ScanReport& report,
                              std::uint64_t runs) {
    if (runs == 0 && feature_lookups(report) == 0) return;
    std::printf("FAIL: %s run ran the VM %llu times and looked up features "
                "%llu times (want 0 and 0)\n",
                name, static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(feature_lookups(report)));
    ok = false;
  };
  check_warm("warm", warm, warm_vm_runs);
  check_warm("jobs=1 disk-served", replay, replay_vm_runs);
  if (warm.total_seconds * 2.0 > cold.total_seconds) {
    std::printf("FAIL: warm run not >= 2x faster (%.3fs vs %.3fs)\n",
                warm.total_seconds, cold.total_seconds);
    ok = false;
  }
  if (ok)
    std::printf(
        "warm/cold reports byte-identical; warm speedup %.1fx; jobs=1 and "
        "jobs=%u agree exactly.\n",
        cold.total_seconds / warm.total_seconds, config.jobs);
  return ok ? 0 : 1;
}
