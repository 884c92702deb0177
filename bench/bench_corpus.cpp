// Prebuilt-corpus store acceptance bench: a store-backed snapshot load must
// be at least 5x faster than the cold compile/fuzz/profile database build it
// replaces, bit-identical to it, and a second `build` over the unchanged
// matrix must recompile nothing. Cold build, warm load (and its corpus,
// fingerprint and entry-read parts) and the reference compiles are each
// the median of three runs; entry_bytes sums the CVE entry payloads.
// BENCH_corpus.json feeds the bench-diff perf gate.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cve_database.h"
#include "corpus/builder.h"
#include "corpus/serialize.h"
#include "harness.h"
#include "util/parallel.h"
#include "util/table.h"
#include "util/timer.h"

using namespace patchecko;

namespace {

constexpr int kRepeats = 3;

double median(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

}  // namespace

int main() {
  const bench::HarnessConfig config = bench::harness_config();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pk_bench_corpus_store")
          .string();
  std::filesystem::remove_all(dir);

  // Cold: the full database build every scan, bench, and CI run used to pay.
  // The last build is kept for the identity check.
  std::vector<double> cold_runs;
  std::optional<CveDatabase> cold;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    cold.reset();  // freed outside the timed region
    const Stopwatch watch;
    const EvalCorpus corpus(config.eval);
    cold.emplace(corpus, config.database);
    cold_runs.push_back(watch.elapsed_seconds());
  }
  const CveDatabase& cold_database = *cold;
  const double cold_seconds = median(cold_runs);

  // The database build's largest layer on its own: every library's
  // reference compile, as a per-function unit cost.
  const EvalCorpus eval_corpus(config.eval);
  double functions = 0.0;
  for (std::size_t lib = 0; lib < eval_corpus.library_specs().size(); ++lib)
    functions += static_cast<double>(
        eval_corpus.vulnerable_source(lib).functions.size());
  std::vector<double> compile_runs;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    const Stopwatch watch;
    for (std::size_t lib = 0; lib < eval_corpus.library_specs().size(); ++lib)
      eval_corpus.compile_reference(lib);
    compile_runs.push_back(watch.elapsed_seconds());
  }
  const double compile_seconds = median(compile_runs);

  corpus::PrebuiltStore store(dir);
  corpus::BuildMatrix matrix;
  matrix.eval = config.eval;
  matrix.database = config.database;
  matrix.jobs = default_worker_threads();
  const corpus::BuildReport populate = corpus::build_store(store, matrix);
  const corpus::BuildReport repopulate = corpus::build_store(store, matrix);

  // The warm load and, each on its own, its three parts: corpus source
  // generation, library fingerprints and entry reads.
  std::vector<double> warm_runs, corpus_runs, fingerprint_runs, read_runs;
  corpus::SnapshotLoadStats load_stats;
  std::shared_ptr<const CorpusSnapshot> warm;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    warm.reset();
    load_stats = {};
    const Stopwatch watch;
    warm = corpus::load_snapshot(store, 1, config.eval, config.database,
                                 &load_stats);
    warm_runs.push_back(watch.elapsed_seconds());
    corpus_runs.push_back(load_stats.corpus_seconds);
    fingerprint_runs.push_back(load_stats.fingerprint_seconds);
    read_runs.push_back(load_stats.entry_read_seconds);
  }
  const double warm_seconds = median(warm_runs);
  const double speedup = cold_seconds / warm_seconds;

  // Payload bytes of every CVE entry, as the store files them.
  double entry_bytes = 0.0;
  for (const CveEntry& entry : cold_database.entries())
    entry_bytes +=
        static_cast<double>(corpus::serialize_cve_entry(entry).size());

  std::printf("=== Prebuilt-corpus store (%zu CVEs, scale %.2f) ===\n",
              cold_database.entries().size(), config.eval.scale);
  TextTable table({"phase", "seconds", "built", "reused"});
  table.add_row({"cold database build", fmt_double(cold_seconds, 3), "-",
                 "-"});
  table.add_row({"reference compiles", fmt_double(compile_seconds, 3),
                 fmt_double(functions, 0), "-"});
  table.add_row({"store populate", fmt_double(populate.build_seconds, 3),
                 std::to_string(populate.built),
                 std::to_string(populate.reused)});
  table.add_row({"store re-populate",
                 fmt_double(repopulate.build_seconds, 3),
                 std::to_string(repopulate.built),
                 std::to_string(repopulate.reused)});
  table.add_row({"warm snapshot load", fmt_double(warm_seconds, 3), "-",
                 std::to_string(load_stats.entries_loaded)});
  table.add_row({"  corpus generation", fmt_double(median(corpus_runs), 3),
                 "-", "-"});
  table.add_row({"  library fingerprints",
                 fmt_double(median(fingerprint_runs), 3), "-", "-"});
  table.add_row({"  entry reads", fmt_double(median(read_runs), 3), "-",
                 std::to_string(load_stats.entries_loaded)});
  std::printf("%s\nwarm speedup: %.1fx; entry payloads %.0f bytes\n",
              table.render().c_str(), speedup, entry_bytes);

  bool ok = bench::write_bench_json(
      "corpus",
      {bench::BenchRow("cold_build", {{"seconds", cold_seconds}}),
       bench::BenchRow("reference_compile",
                       {{"seconds", compile_seconds},
                        {"functions", functions},
                        {"ns_per_function",
                         compile_seconds * 1e9 / functions}}),
       bench::BenchRow("store_populate",
                       {{"seconds", populate.build_seconds},
                        {"built", static_cast<double>(populate.built)}}),
       bench::BenchRow(
           "store_repopulate",
           {{"seconds", repopulate.build_seconds},
            {"recompiles", static_cast<double>(repopulate.built)}}),
       bench::BenchRow("warm_load", {{"seconds", warm_seconds},
                                     {"warm_speedup", speedup}}),
       bench::BenchRow("corpus", {{"seconds", median(corpus_runs)}}),
       bench::BenchRow("fingerprint", {{"seconds", median(fingerprint_runs)}}),
       bench::BenchRow("entry_read", {{"seconds", median(read_runs)}}),
       bench::BenchRow("entry_bytes", {{"bytes", entry_bytes}})},
      {"warm_speedup"});

  if (repopulate.built != 0) {
    std::printf("FAIL: second build recompiled %llu artifacts\n",
                static_cast<unsigned long long>(repopulate.built));
    ok = false;
  }
  if (load_stats.entries_built != 0) {
    std::printf("FAIL: warm load fell back to %llu cold entry builds\n",
                static_cast<unsigned long long>(load_stats.entries_built));
    ok = false;
  }
  if (warm->database.entries().size() != cold_database.entries().size()) {
    std::printf("FAIL: warm snapshot has %zu entries, cold build %zu\n",
                warm->database.entries().size(),
                cold_database.entries().size());
    ok = false;
  } else {
    for (std::size_t i = 0; i < cold_database.entries().size(); ++i) {
      if (corpus::serialize_cve_entry(warm->database.entries()[i]) !=
          corpus::serialize_cve_entry(cold_database.entries()[i])) {
        std::printf("FAIL: warm entry %zu differs from the cold build\n", i);
        ok = false;
        break;
      }
    }
  }
  if (speedup < 5.0) {
    std::printf("FAIL: warm load only %.1fx faster than cold build "
                "(%.3fs vs %.3fs); need >= 5x\n",
                speedup, warm_seconds, cold_seconds);
    ok = false;
  }
  if (ok)
    std::printf("store-backed snapshot bit-identical to cold build; "
                "zero recompiles on re-populate; %.1fx warm speedup.\n",
                speedup);
  return ok ? 0 : 1;
}
