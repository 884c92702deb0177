// The traced pass: a jobs-1 replay of the engine's job bodies that times
// each call into a layer's public API, plus direct unit-cost timings.
//
// The replay mirrors ScanEngine::run at jobs 1 on the workload's cache state
// (empty disk cache, filled disk cache, warm memory tier, or no cache):
// analyze = digest + ResultCache lookup, else analyze_library (+ store);
// then ensure_retrieval_index when the prefilter is on; detect = lookup,
// else Patchecko::detect (+ store); patch = Patchecko::report_from. Its
// canonical report must equal the engine's and the reference. The sum of
// the timed calls against an untraced jobs-1 ScanEngine::run of the same
// state gives trace.unattributed_frac; the replay's own wall against that
// run gives trace.overhead_frac. Nothing is traced inside src/: VM run and
// instruction counts come from the existing obs registry counters, switched
// on for the replay only.
#include <algorithm>
#include <filesystem>
#include <map>

#include "bench.h"
#include "binary/cfg.h"
#include "obs/metrics.h"
#include "retrieval/quantizer.h"
#include "service/client.h"
#include "service/protocol.h"

namespace perfbench {

namespace {

/// Σ over every replayed scan; divided by `scans` for per-scan figures.
struct ReplayTotals {
  std::size_t scans = 0;
  double wall_s = 0.0;         ///< replay wall, bookkeeping included
  double attributed_s = 0.0;   ///< Σ timed layer calls
  double engine_wall_s = 0.0;  ///< untraced jobs-1 ScanEngine::run
  double analyze_s = 0.0;
  std::size_t analyzed_functions = 0;
  std::vector<const LibraryBinary*> analyzed_libraries;
  double index_build_s = 0.0;
  double detect_s = 0.0;  ///< Patchecko::detect calls that ran
  double dl_s = 0.0;
  double exec_s = 0.0;
  std::size_t pairs = 0;
  std::size_t candidates = 0;
  std::size_t executed = 0;
  std::uint64_t vm_runs = 0;
  std::uint64_t vm_instructions = 0;
  std::size_t shortlisted = 0;
  double top_k_s = 0.0;
  std::size_t top_k_calls = 0;
  std::size_t top_k_recalled = 0;
  double report_s = 0.0;
  std::size_t reports = 0;
  std::size_t pool_members = 0;
  double digest_s = 0.0;  ///< cache keys: library, entry, model, config
  double disk_read_s = 0.0;
  std::size_t disk_reads = 0;
  double disk_write_s = 0.0;
  std::size_t disk_writes = 0;
  /// Inputs for the direct unit-cost timings below.
  std::vector<std::pair<StaticFeatureVector, StaticFeatureVector>> dl_pairs;
  struct TopCandidate {
    const CveEntry* entry = nullptr;
    const LibraryBinary* library = nullptr;
    std::size_t function = 0;
  };
  std::vector<TopCandidate> top_candidates;
};

/// Pairs the model scored: the shortlist when the prefilter applied, every
/// target function otherwise.
std::size_t scored_pairs(const DetectionOutcome& outcome) {
  return outcome.prefilter_mode == retrieval::PrefilterMode::on
             ? outcome.prefilter_shortlist
             : outcome.total;
}

class Replay {
 public:
  Replay(const Context& ctx, const Image& image, ResultCache* cache,
         ReplayTotals& totals)
      : ctx_(ctx), image_(image), cache_(cache), t_(totals),
        config_(ctx.workload.engine.pipeline),
        pipeline_(&ctx.model, with_one_worker(config_)) {}

  ScanReport run() {
    const double start = now_seconds();
    if (cache_ != nullptr)
      timed(t_.digest_s, [&] {
        model_digest_ = digest_model(ctx_.model);
        config_digest_ = digest_pipeline_config(pipeline_.config());
      });
    std::map<std::string, const LibraryBinary*> by_name;
    for (const LibraryBinary& library : image_.firmware.libraries)
      by_name[library.name] = &library;
    ScanReport report;
    for (const CveEntry& entry : ctx_.db().entries()) {
      CveScanResult& result = report.results.emplace_back();
      result.cve_id = entry.spec.cve_id;
      result.library = entry.spec.library;
      const auto it = by_name.find(entry.spec.library);
      if (it == by_name.end()) {
        result.library_missing = true;
        continue;
      }
      Slot& slot = analyze(*it->second);
      detect(entry, slot, result);
    }
    for (std::size_t e = 0; e < report.results.size(); ++e) {
      CveScanResult& result = report.results[e];
      if (result.library_missing) continue;
      const CveEntry& entry = ctx_.db().entries()[e];
      const Slot& slot = slots_.at(entry.spec.library);
      timed(t_.report_s, [&] {
        result.report = pipeline_.report_from(entry, slot.analyzed,
                                              result.from_vulnerable,
                                              result.from_patched);
      });
      ++t_.reports;
      t_.pool_members += result.report.pool.size();
    }
    t_.wall_s += now_seconds() - start;
    ++t_.scans;
    return report;
  }

 private:
  struct Slot {
    AnalyzedLibrary analyzed;
    Digest digest;
  };

  static PipelineConfig with_one_worker(PipelineConfig config) {
    config.worker_threads = 1;
    return config;
  }

  template <typename Fn>
  void timed(double& bucket, Fn&& fn) {
    const double t0 = now_seconds();
    fn();
    const double seconds = now_seconds() - t0;
    bucket += seconds;
    t_.attributed_s += seconds;
  }

  /// A ResultCache call, booked as a disk read when it loaded a file.
  template <typename Fn>
  void cache_lookup(Fn&& fn) {
    const std::uint64_t loads_before = cache_->stats().disk_loads;
    double seconds = 0.0;
    timed(seconds, fn);
    if (cache_->stats().disk_loads != loads_before) {
      t_.disk_read_s += seconds;
      ++t_.disk_reads;
    }
  }

  template <typename Fn>
  void cache_store(Fn&& fn) {
    double seconds = 0.0;
    timed(seconds, fn);
    if (!cache_->directory().empty()) {
      t_.disk_write_s += seconds;
      ++t_.disk_writes;
    }
  }

  Slot& analyze(const LibraryBinary& library) {
    const auto [it, inserted] = slots_.try_emplace(library.name);
    Slot& slot = it->second;
    if (!inserted) return slot;
    std::string key;
    bool hit = false;
    if (cache_ != nullptr) {
      timed(t_.digest_s, [&] {
        slot.digest = digest_library(library);
        key = features_cache_key(slot.digest);
      });
      cache_lookup([&] {
        auto features = cache_->find_features(key);
        if (features && features->size() == library.functions.size()) {
          slot.analyzed.binary = &library;
          slot.analyzed.features = std::move(*features);
          hit = true;
        }
      });
    }
    if (!hit) {
      timed(t_.analyze_s,
            [&] { slot.analyzed = analyze_library(library, 1); });
      t_.analyzed_functions += library.functions.size();
      t_.analyzed_libraries.push_back(&library);
      if (cache_ != nullptr)
        cache_store(
            [&] { cache_->store_features(key, slot.analyzed.features); });
    }
    if (config_.prefilter_mode != retrieval::PrefilterMode::off)
      timed(t_.index_build_s, [&] { ensure_retrieval_index(slot.analyzed); });
    return slot;
  }

  void detect(const CveEntry& entry, const Slot& slot, CveScanResult& result) {
    Digest entry_digest;
    if (cache_ != nullptr)
      timed(t_.digest_s, [&] { entry_digest = digest_entry(entry); });
    const retrieval::QueryCatalog* catalog = ctx_.query_codes();
    const retrieval::QueryCatalog::Entry* codes =
        catalog != nullptr ? catalog->find(entry.spec.cve_id) : nullptr;
    obs::Counter& runs = obs::Registry::global().counter("vm.runs");
    obs::Counter& instructions =
        obs::Registry::global().counter("vm.instructions");
    for (const bool patched : {false, true}) {
      DetectionOutcome& outcome =
          patched ? result.from_patched : result.from_vulnerable;
      const retrieval::QuantizedVector* code =
          codes == nullptr ? nullptr
                           : (patched ? &codes->patched : &codes->vulnerable);
      std::string key;
      bool hit = false;
      if (cache_ != nullptr) {
        key = outcome_cache_key(slot.digest, model_digest_, config_digest_,
                                entry_digest, patched);
        cache_lookup([&] {
          if (auto cached = cache_->find_outcome(key)) {
            outcome = std::move(*cached);
            hit = true;
          }
        });
      }
      if (!hit) {
        const std::uint64_t runs_before = runs.value();
        const std::uint64_t instructions_before = instructions.value();
        timed(t_.detect_s, [&] {
          outcome = pipeline_.detect(entry, slot.analyzed, patched, nullptr,
                                     code);
        });
        t_.vm_runs += runs.value() - runs_before;
        t_.vm_instructions += instructions.value() - instructions_before;
        t_.dl_s += outcome.dl_seconds;
        t_.exec_s += outcome.da_seconds;
        t_.pairs += scored_pairs(outcome);
        t_.candidates += outcome.candidates.size();
        t_.executed += outcome.executed;
        sample_inputs(entry, slot, outcome, patched);
        if (cache_ != nullptr)
          cache_store([&] { cache_->store_outcome(key, outcome); });
      }
      t_.shortlisted += outcome.prefilter_shortlist;
      probe_top_k(entry, slot, code, patched);
    }
  }

  /// Keeps a few scored pairs and the top-ranked candidate for the direct
  /// SimilarityModel::score and Machine::run timings.
  void sample_inputs(const CveEntry& entry, const Slot& slot,
                     const DetectionOutcome& outcome, bool patched) {
    const StaticFeatureVector& query =
        patched ? entry.patched_features : entry.vulnerable_features;
    const std::size_t count =
        std::min<std::size_t>(64, slot.analyzed.features.size());
    for (std::size_t i = 0; i < count; ++i)
      t_.dl_pairs.emplace_back(query, slot.analyzed.features[i]);
    if (!outcome.ranking.empty())
      t_.top_candidates.push_back({&entry, slot.analyzed.binary,
                                   outcome.ranking.front().function_index});
  }

  /// Times FunctionIndex::top_k on the same shortlist the prefilter takes
  /// and checks whether it keeps the ground-truth target.
  void probe_top_k(const CveEntry& entry, const Slot& slot,
                   const retrieval::QuantizedVector* code, bool patched) {
    const AnalyzedLibrary& target = slot.analyzed;
    if (config_.prefilter_mode == retrieval::PrefilterMode::off ||
        target.index == nullptr || config_.prefilter_top_k == 0 ||
        target.features.size() < config_.prefilter_min_total)
      return;
    const retrieval::QuantizedVector query =
        code != nullptr ? *code
                        : retrieval::quantize(patched
                                                  ? entry.patched_features
                                                  : entry.vulnerable_features);
    const double t0 = now_seconds();
    const std::vector<std::uint32_t> shortlist =
        target.index->top_k(query, config_.prefilter_top_k);
    t_.top_k_s += now_seconds() - t0;
    ++t_.top_k_calls;
    for (const std::uint32_t index : shortlist)
      if (target.binary->functions[index].source_uid == entry.target_uid) {
        ++t_.top_k_recalled;
        break;
      }
  }

  const Context& ctx_;
  const Image& image_;
  ResultCache* cache_;
  ReplayTotals& t_;
  PipelineConfig config_;
  Patchecko pipeline_;
  Digest model_digest_;
  Digest config_digest_;
  std::map<std::string, Slot> slots_;
};

double per(double total, std::size_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

/// The engine figures of daemon_warm come from in-process engines shaped
/// like the daemon's (jobs 2, warm memory tier), since the service does not
/// return its ScanReport.
std::vector<EngineSample> daemon_engine_samples(Context& ctx) {
  ScanEngine engine(ctx.workload.engine);
  for (const Image& image : ctx.images) engine.run(ctx.request_for(image));
  std::vector<EngineSample> samples;
  for (int round = 0; round < 2; ++round)
    for (const Image& image : ctx.images) {
      const ScanReport report = engine.run(ctx.request_for(image));
      if (report.canonical_text() != image.reference)
        ctx.fail("daemon-shaped engine report for " + image.device +
                 " differs");
      samples.push_back(engine_sample(report, ctx.workload.engine.jobs));
    }
  return samples;
}

}  // namespace

void traced_pass(Context& ctx, const TimedRun& timed, Metrics& out) {
  const Workload& workload = ctx.workload;
  ReplayTotals t;
  const std::string fresh_dir = ctx.options.work + "/replay_cache";
  for (const Image& image : ctx.images) {
    // Untraced jobs-1 engine runs on the workload's cache state, right
    // before the replay so both see the same process state.
    EngineConfig config = workload.engine;
    config.jobs = 1;
    if (workload.warm_cache_dir) config.cache_dir = ctx.cache_dir;
    std::unique_ptr<ScanEngine> warm;  // daemon_warm: keeps its memory tier
    if (workload.daemon) {
      warm = std::make_unique<ScanEngine>(config);
      warm->run(ctx.request_for(image));
    }
    std::string engine_report;
    const auto engine_run = [&] {
      std::unique_ptr<ScanEngine> fresh;
      if (warm == nullptr) {
        if (workload.fresh_cache_dir) {
          std::filesystem::remove_all(fresh_dir);
          config.cache_dir = fresh_dir;
        }
        fresh = std::make_unique<ScanEngine>(config);
      }
      ScanEngine& engine = warm != nullptr ? *warm : *fresh;
      const double t0 = now_seconds();
      const ScanReport report = engine.run(ctx.request_for(image));
      const double seconds = now_seconds() - t0;
      engine_report = report.canonical_text();
      return seconds;
    };
    // A cold exact scan takes seconds at jobs 1; cheaper states get three
    // runs and their median.
    std::vector<double> walls;
    const int repeats = image.reference_seconds < 2.0 ? 3 : 1;
    for (int r = 0; r < repeats; ++r) walls.push_back(engine_run());
    t.engine_wall_s += median(walls);

    std::unique_ptr<ResultCache> own_cache;
    if (workload.fresh_cache_dir) {
      std::filesystem::remove_all(fresh_dir);
      own_cache = std::make_unique<ResultCache>(fresh_dir);
    } else if (workload.warm_cache_dir) {
      own_cache = std::make_unique<ResultCache>(ctx.cache_dir);
    }
    ResultCache* const cache =
        warm != nullptr ? &warm->cache() : own_cache.get();
    const bool obs_was_on = obs::enabled();
    obs::set_enabled(true);
    const ScanReport replayed = Replay(ctx, image, cache, t).run();
    obs::set_enabled(obs_was_on);
    const std::string text = replayed.canonical_text();
    if (text != engine_report)
      ctx.fail("replayed outcomes differ from the engine's on " +
               image.device);
    if (text != image.reference)
      ctx.fail("replayed report differs from the reference on " +
               image.device);
  }
  if (workload.fresh_cache_dir) std::filesystem::remove_all(fresh_dir);

  // --- direct unit costs ------------------------------------------------------
  double load_s = 0.0;
  std::size_t loaded_functions = 0;
  double image_bytes = 0.0;
  for (const Image& image : ctx.images) {
    const double t0 = now_seconds();
    const auto firmware = load_firmware(image.path);
    load_s += now_seconds() - t0;
    if (!firmware) ctx.fail("cannot reload " + image.path);
    loaded_functions += image.firmware.total_functions();
    image_bytes += static_cast<double>(image.bytes);
  }

  double cfg_s = 0.0;
  std::size_t cfg_functions = 0, blocks = 0;
  for (const LibraryBinary* library : t.analyzed_libraries)
    for (const FunctionBinary& function : library->functions) {
      const double t0 = now_seconds();
      const Cfg cfg = build_cfg(function);
      cfg_s += now_seconds() - t0;
      blocks += cfg.block_count();
      ++cfg_functions;
    }

  double score_s = 0.0;
  float score_sum = 0.0f;
  if (!t.dl_pairs.empty()) {
    const double t0 = now_seconds();
    for (const auto& [query, target] : t.dl_pairs)
      score_sum += ctx.model.score(query, target);
    score_s = now_seconds() - t0;
  }

  double vm_s = 0.0;
  std::uint64_t vm_steps = 0;
  for (const ReplayTotals::TopCandidate& top : t.top_candidates) {
    const Machine machine(*top.library, workload.engine.pipeline.machine);
    for (const CallEnv& env : top.entry->environments) {
      const double t0 = now_seconds();
      const RunResult result = machine.run(top.function, env);
      vm_s += now_seconds() - t0;
      vm_steps += result.steps;
    }
  }

  double ping_s = 0.0;
  if (workload.daemon) {
    auto client = service::ServiceClient::connect_unix(ctx.socket_path);
    std::vector<double> pings;
    for (int i = 0; i < 20 && client.connected(); ++i) {
      const double t0 = now_seconds();
      const auto pong = client.call(service::ping_request_json());
      if (!pong) break;
      pings.push_back(now_seconds() - t0);
    }
    if (pings.size() != 20) ctx.fail("ping failed");
    ping_s = median(pings);
  }

  // --- engine scheduler and cache, per scan -----------------------------------
  const std::vector<EngineSample> engine_samples =
      workload.daemon ? daemon_engine_samples(ctx) : timed.engine;
  std::vector<double> analyze_job, detect_job, patch_job, detect_max, eff;
  std::vector<double> hits, misses, stores, disk_loads;
  for (const EngineSample& sample : engine_samples) {
    analyze_job.push_back(sample.analyze_s);
    detect_job.push_back(sample.detect_s);
    patch_job.push_back(sample.patch_s);
    detect_max.push_back(sample.detect_max_s);
    eff.push_back(sample.parallel_efficiency);
    hits.push_back(static_cast<double>(sample.cache.hits()));
    misses.push_back(static_cast<double>(sample.cache.misses()));
    stores.push_back(static_cast<double>(sample.cache.stores));
    disk_loads.push_back(static_cast<double>(sample.cache.disk_loads));
  }
  const double hit_total = mean(hits), miss_total = mean(misses);

  const std::size_t scans = t.scans;
  out.set("firmware.load_ns_per_function", per(load_s, loaded_functions) * 1e9,
          "ns");
  out.set("firmware.image_bytes", per(image_bytes, ctx.images.size()),
          "bytes");
  out.set("binary.cfg_ns_per_function", per(cfg_s, cfg_functions) * 1e9, "ns");
  out.set("binary.blocks_per_function",
          per(static_cast<double>(blocks), cfg_functions), "count");
  out.set("features.ns_per_function",
          per(t.analyze_s, t.analyzed_functions) * 1e9, "ns");
  out.set("analyze.library_s", per(t.analyze_s, scans), "s");
  out.set("retrieval.index_build_s", per(t.index_build_s, scans), "s");
  out.set("retrieval.top_k_us", per(t.top_k_s, t.top_k_calls) * 1e6, "us");
  out.set("retrieval.shortlisted",
          per(static_cast<double>(t.shortlisted), scans), "count");
  out.set("retrieval.recall",
          per(static_cast<double>(t.top_k_recalled), t.top_k_calls), "frac");
  out.set("dl.stage_s", per(t.dl_s, scans), "s");
  out.set("dl.pairs", per(static_cast<double>(t.pairs), scans), "count");
  out.set("dl.ns_per_pair", per(score_s, t.dl_pairs.size()) * 1e9, "ns");
  out.set("dl.candidates", per(static_cast<double>(t.candidates), scans),
          "count");
  out.set("dl.accept_frac", per(static_cast<double>(t.candidates), t.pairs),
          "frac");
  out.set("detect.dl_exec_frac",
          t.detect_s > 0.0 ? (t.dl_s + t.exec_s) / t.detect_s : 0.0, "frac");
  out.set("exec.stage_s", per(t.exec_s, scans), "s");
  out.set("exec.executed", per(static_cast<double>(t.executed), scans),
          "count");
  out.set("exec.crash_pruned",
          per(static_cast<double>(t.candidates - t.executed), scans), "count");
  out.set("exec.survivor_frac",
          per(static_cast<double>(t.executed), t.candidates), "frac");
  out.set("vm.runs", per(static_cast<double>(t.vm_runs), scans), "count");
  out.set("vm.instructions", per(static_cast<double>(t.vm_instructions), scans),
          "count");
  out.set("vm.ns_per_instruction", per(vm_s, vm_steps) * 1e9, "ns");
  out.set("patch.report_s", per(t.report_s, scans), "s");
  out.set("patch.pool_size",
          per(static_cast<double>(t.pool_members), t.reports), "count");
  out.set("engine.analyze_job_s", median(analyze_job), "s");
  out.set("engine.detect_job_s", median(detect_job), "s");
  out.set("engine.patch_job_s", median(patch_job), "s");
  out.set("engine.detect_job_max_s", median(detect_max), "s");
  out.set("engine.parallel_efficiency", median(eff), "frac");
  out.set("cache.hits", hit_total, "count");
  out.set("cache.misses", miss_total, "count");
  out.set("cache.stores", mean(stores), "count");
  out.set("cache.disk_loads", mean(disk_loads), "count");
  out.set("cache.hit_frac",
          hit_total + miss_total > 0.0 ? hit_total / (hit_total + miss_total)
                                       : 0.0,
          "frac");
  out.set("cache.digest_s", per(t.digest_s, scans), "s");
  out.set("cache.disk_read_us", per(t.disk_read_s, t.disk_reads) * 1e6, "us");
  out.set("cache.disk_write_us", per(t.disk_write_s, t.disk_writes) * 1e6,
          "us");
  out.set("cache.dir_bytes",
          ctx.cache_dir.empty()
              ? 0.0
              : static_cast<double>(directory_bytes(ctx.cache_dir)),
          "bytes");
  out.set("service.ping_s", ping_s, "s");
  out.set("trace.unattributed_frac",
          t.engine_wall_s > 0.0 ? 1.0 - t.attributed_s / t.engine_wall_s : 0.0,
          "frac");
  out.set("trace.overhead_frac",
          t.engine_wall_s > 0.0 ? t.wall_s / t.engine_wall_s - 1.0 : 0.0,
          "frac");
  // Keeps the scoring loop observable.
  if (score_sum < 0.0f) ctx.fail("negative similarity score");
}

}  // namespace perfbench
