// Section V-E extension: the paper parallelizes environment execution and
// names per-candidate parallelism as future work ("Future works will focus
// on parallelizing the candidate function execution"). This bench implements
// and measures it: dynamic-analysis wall time for the largest evaluation
// library as a function of worker threads. Beside it, the stage-1 (DL)
// wall time of the same detect call, which scores the library in chunks
// across the same workers (the paper's data-parallel inference, §V-B), and
// the model pairs it scored: one per distinct feature vector.
#include <cstdio>

#include "harness.h"
#include "obs/metrics.h"
#include "util/parallel.h"
#include "util/table.h"

using namespace patchecko;

int main() {
  const bench::EvalContext& ctx = bench::shared_eval_context();
  // CVE-2018-9498 lives in the 13,729-function libwebview analog: the
  // heaviest dynamic stage of the whole evaluation.
  const CveEntry& entry = ctx.database->by_id("CVE-2018-9498");
  const AnalyzedLibrary& target = ctx.analyzed_for(entry, false);

  std::printf(
      "=== Future-work extension: parallel candidate execution "
      "(CVE-2018-9498, %zu functions) ===\n",
      target.features.size());
  TextTable table({"threads", "DL seconds", "DL pairs", "DL speedup",
                   "DA seconds", "DA speedup", "executed", "rank"});
  const obs::EnabledScope metrics_on(true);
  const obs::Counter& pairs_scored =
      obs::Registry::global().counter("pipeline.stage1_pairs_scored");

  double dl_baseline = 0.0;
  double baseline = 0.0;
  const unsigned hw = default_worker_threads();
  std::vector<bench::BenchRow> json_rows;
  for (unsigned threads : {1u, 2u, 4u, hw}) {
    PipelineConfig config;
    config.worker_threads = threads;
    const Patchecko pipeline(&ctx.model, config);
    const std::uint64_t pairs_before = pairs_scored.value();
    const DetectionOutcome outcome =
        pipeline.detect(entry, target, /*query_is_patched=*/false);
    const std::uint64_t pairs = pairs_scored.value() - pairs_before;
    if (threads == 1) {
      dl_baseline = outcome.dl_seconds;
      baseline = outcome.da_seconds;
    }
    table.add_row({std::to_string(threads),
                   fmt_double(outcome.dl_seconds, 3), std::to_string(pairs),
                   fmt_double(dl_baseline / outcome.dl_seconds, 2) + "x",
                   fmt_double(outcome.da_seconds, 3),
                   fmt_double(baseline / outcome.da_seconds, 2) + "x",
                   std::to_string(outcome.executed),
                   std::to_string(outcome.rank_of_target)});
    json_rows.emplace_back("threads_" + std::to_string(threads),
                           std::vector<std::pair<std::string, double>>{
                               {"dl_seconds", outcome.dl_seconds},
                               {"dl_pairs", static_cast<double>(pairs)},
                               {"da_seconds", outcome.da_seconds}});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "The candidates and ranking are identical at every thread count "
      "(both stages are deterministic and order-independent); only wall "
      "time changes.\n");
  if (hw <= 1)
    std::printf(
        "NOTE: this host exposes a single hardware thread, so no speedup is "
        "observable here; on a multi-core analysis server the stage scales "
        "with the candidate count.\n");
  return bench::write_bench_json("parallel_dynamic", json_rows) ? 0 : 1;
}
