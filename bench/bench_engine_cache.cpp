// Batch engine acceptance bench: a cold batch-scan populates the
// content-addressed cache; a warm re-scan of the same request must be at
// least 2x faster and produce a byte-identical canonical report, and a
// fresh single-job engine served from the same cache directory must agree
// byte-for-byte with the multi-job cold run (determinism across both job
// count and cache temperature). Two unit-cost rows price the content digest
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
  const ScanReport warm = engine.run(request);

  EngineConfig sequential = config;
  sequential.jobs = 1;
  const ScanReport replay = ScanEngine(sequential).run(request);  // disk only

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
  const double ns_per_byte = digest_ns_per_byte();
  const double ns_per_function = digest_ns_per_function(firmware);
  std::printf("digest: %.3f ns/byte (16 MiB), digest_library %.1f "
              "ns/function (%zu functions)\n",
              ns_per_byte, ns_per_function, firmware.total_functions());
  bool ok = bench::write_bench_json(
      "engine_cache",
      {json_row("cold", cold), json_row("warm_memory", warm),
       json_row("replay_disk", replay),
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
