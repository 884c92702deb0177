#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "engine/thread_pool.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace patchecko {

namespace {

struct EngineMetrics {
  obs::Counter& jobs_completed =
      obs::Registry::global().counter("engine.jobs_completed");
  obs::Counter& job_cache_hits =
      obs::Registry::global().counter("engine.job_cache_hits");
  obs::Gauge& ready_depth = obs::Registry::global().gauge("engine.ready_depth");
  obs::Histogram& analyze_seconds =
      obs::Registry::global().histogram("engine.job_seconds.analyze");
  obs::Histogram& detect_seconds =
      obs::Registry::global().histogram("engine.job_seconds.detect");
  obs::Histogram& patch_seconds =
      obs::Registry::global().histogram("engine.job_seconds.patch");
  obs::Histogram& analyze_cpu_seconds =
      obs::Registry::global().histogram("engine.job_cpu_seconds.analyze");
  obs::Histogram& detect_cpu_seconds =
      obs::Registry::global().histogram("engine.job_cpu_seconds.detect");
  obs::Histogram& patch_cpu_seconds =
      obs::Registry::global().histogram("engine.job_cpu_seconds.patch");
  obs::Counter& job_allocations =
      obs::Registry::global().counter("engine.job_allocations");
  obs::Gauge& rss_kb = obs::Registry::global().gauge("process.rss_kb");

  obs::Histogram& job_histogram(JobKind kind) {
    switch (kind) {
      case JobKind::analyze: return analyze_seconds;
      case JobKind::detect: return detect_seconds;
      case JobKind::patch: return patch_seconds;
    }
    return analyze_seconds;
  }

  obs::Histogram& cpu_histogram(JobKind kind) {
    switch (kind) {
      case JobKind::analyze: return analyze_cpu_seconds;
      case JobKind::detect: return detect_cpu_seconds;
      case JobKind::patch: return patch_cpu_seconds;
    }
    return analyze_cpu_seconds;
  }

  static EngineMetrics& get() {
    static EngineMetrics metrics;
    return metrics;
  }
};

obs::SpanLabel job_span_name(JobKind kind) {
  switch (kind) {
    case JobKind::analyze: return "job.analyze";
    case JobKind::detect: return "job.detect";
    case JobKind::patch: return "job.patch";
  }
  return "job";
}

/// Exact, locale-independent double rendering: %.17g round-trips every
/// finite double, so canonical_text() equality == bitwise result equality.
std::string fmt_exact(double value) {
  char out[40];
  std::snprintf(out, sizeof(out), "%.17g", value);
  return out;
}

void append_outcome(std::ostringstream& out, const char* query,
                    const DetectionOutcome& outcome) {
  out << "query " << query << ": total=" << outcome.total
      << " tp=" << outcome.true_positives << " tn=" << outcome.true_negatives
      << " fp=" << outcome.false_positives
      << " fn=" << outcome.false_negatives << " executed=" << outcome.executed
      << " rank=" << outcome.rank_of_target << "\n  candidates=[";
  for (std::size_t i = 0; i < outcome.candidates.size(); ++i) {
    if (i != 0) out << ',';
    out << outcome.candidates[i];
  }
  out << "]\n  ranking=[";
  for (std::size_t i = 0; i < outcome.ranking.size(); ++i) {
    const RankedCandidate& ranked = outcome.ranking[i];
    if (i != 0) out << ' ';
    out << ranked.function_index << ':' << fmt_exact(ranked.distance) << ':'
        << fmt_exact(ranked.secondary);
  }
  out << "]\n";
}

CacheStats stats_delta(const CacheStats& after, const CacheStats& before) {
  CacheStats delta;
  delta.feature_hits = after.feature_hits - before.feature_hits;
  delta.feature_misses = after.feature_misses - before.feature_misses;
  delta.outcome_hits = after.outcome_hits - before.outcome_hits;
  delta.outcome_misses = after.outcome_misses - before.outcome_misses;
  delta.disk_loads = after.disk_loads - before.disk_loads;
  delta.stores = after.stores - before.stores;
  return delta;
}

}  // namespace

std::string_view job_kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::analyze: return "analyze";
    case JobKind::detect: return "detect";
    case JobKind::patch: return "patch";
  }
  return "?";
}

std::string ScanReport::canonical_text() const {
  std::ostringstream out;
  for (const CveScanResult& result : results) {
    out << "== " << result.cve_id << " library " << result.library << " ==\n";
    if (result.library_missing) {
      out << "library not in image\n";
      continue;
    }
    append_outcome(out, "vulnerable", result.from_vulnerable);
    append_outcome(out, "patched", result.from_patched);
    if (!result.report.decision) {
      out << "match: none\n";
      continue;
    }
    const PatchDecision& decision = *result.report.decision;
    out << "match: function=" << *result.report.matched_function
        << " verdict="
        << (decision.verdict == PatchVerdict::patched ? "patched"
                                                      : "vulnerable")
        << " votes=" << fmt_exact(decision.votes_vulnerable) << ':'
        << fmt_exact(decision.votes_patched)
        << " dist=" << fmt_exact(decision.dynamic_distance_vulnerable) << ':'
        << fmt_exact(decision.dynamic_distance_patched) << "\n";
    for (const std::string& note : decision.evidence)
      out << "evidence: " << note << "\n";
  }
  return out.str();
}

std::string ScanReport::summary_text() const {
  std::ostringstream out;
  int vulnerable = 0, patched = 0, unresolved = 0;
  for (const CveScanResult& result : results) {
    if (result.library_missing || !result.report.decision) {
      ++unresolved;
      continue;
    }
    (result.report.decision->verdict == PatchVerdict::patched ? patched
                                                              : vulnerable)++;
  }
  int stalled = 0;
  for (const CveScanResult& result : results) stalled += result.stalled ? 1 : 0;
  out << results.size() << " CVEs scanned across " << analyzed_libraries
      << " libraries: " << vulnerable << " vulnerable, " << patched
      << " patched, " << unresolved << " unresolved";
  if (stalled != 0) out << " (" << stalled << " stalled by watchdog)";
  out << "\n";
  if (interrupted)
    out << "INTERRUPTED: run cancelled mid-flight, " << jobs_cancelled
        << " queued jobs dropped; results above are partial\n";
  char line[160];
  std::snprintf(line, sizeof(line),
                "wall time %.2fs over %zu jobs; cache: %llu hits / %llu "
                "misses (%llu from disk, %llu stores)\n",
                total_seconds, timings.size(),
                static_cast<unsigned long long>(cache.hits()),
                static_cast<unsigned long long>(cache.misses()),
                static_cast<unsigned long long>(cache.disk_loads),
                static_cast<unsigned long long>(cache.stores));
  out << line;
  std::vector<const JobTiming*> slowest;
  for (const JobTiming& timing : timings) slowest.push_back(&timing);
  std::sort(slowest.begin(), slowest.end(),
            [](const JobTiming* a, const JobTiming* b) {
              return a->seconds > b->seconds;
            });
  const std::size_t shown = std::min<std::size_t>(slowest.size(), 5);
  for (std::size_t i = 0; i < shown; ++i) {
    std::snprintf(line, sizeof(line), "  %-7s %-20s %8.3fs%s\n",
                  std::string(job_kind_name(slowest[i]->kind)).c_str(),
                  slowest[i]->label.c_str(), slowest[i]->seconds,
                  slowest[i]->cache_hit ? "  (cache)" : "");
    out << line;
  }
  return out.str();
}

obs::DecisionRecord decision_record(const CveScanResult& result) {
  obs::DecisionRecord record;
  record.cve_id = result.cve_id;
  record.library = result.library;
  record.library_missing = result.library_missing;
  record.stalled = result.stalled;
  if (result.library_missing) return record;
  record.from_vulnerable = result.from_vulnerable.provenance;
  record.from_patched = result.from_patched.provenance;
  record.pool = result.report.pool;
  if (result.report.matched_function)
    record.matched_function =
        static_cast<std::uint64_t>(*result.report.matched_function);
  if (result.report.decision) {
    const PatchDecision& decision = *result.report.decision;
    record.has_verdict = true;
    record.verdict_patched = decision.verdict == PatchVerdict::patched;
    record.votes_vulnerable = decision.votes_vulnerable;
    record.votes_patched = decision.votes_patched;
    record.dynamic_distance_vulnerable = decision.dynamic_distance_vulnerable;
    record.dynamic_distance_patched = decision.dynamic_distance_patched;
    record.evidence = decision.evidence;
  }
  return record;
}

std::string ScanReport::provenance_jsonl() const {
  // request_id is appended only when set so one-shot provenance stays
  // byte-identical across warm-cache reruns (the CI comparison).
  std::string out = "{\"type\":\"meta\",\"format\":\"patchecko-provenance\","
                    "\"version\":1,\"results\":" +
                    std::to_string(results.size());
  if (request_id != 0)
    out += ",\"request_id\":" + std::to_string(request_id);
  out += "}\n";
  for (const CveScanResult& result : results)
    out += obs::decision_jsonl_line(decision_record(result)) + "\n";
  return out;
}

ScanEngine::ScanEngine(EngineConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_dir, config_.use_cache) {}

ScanReport ScanEngine::run(const ScanRequest& request,
                           const ProgressFn& progress) {
  if (request.model == nullptr || request.firmware == nullptr ||
      request.database == nullptr)
    throw std::invalid_argument(
        "ScanRequest needs model, firmware, and database");

  const Stopwatch total_watch;
  const CacheStats stats_before = cache_.stats();
  ScanReport report;
  report.request_id = request.request_id;

  // --- select entries and resolve their libraries --------------------------
  const std::set<std::string> only(request.cve_ids.begin(),
                                   request.cve_ids.end());
  std::vector<const CveEntry*> entries;
  for (const CveEntry& entry : request.database->entries())
    if (only.empty() || only.count(entry.spec.cve_id) != 0)
      entries.push_back(&entry);

  // An image keyed as decoded names each library's cache entries; only a
  // hand-assembled image leaves the analyze jobs to digest their libraries.
  const bool keyed = request.firmware->library_keys.size() ==
                     request.firmware->libraries.size();
  std::map<std::string, const LibraryBinary*> by_name;
  for (const LibraryBinary& library : request.firmware->libraries)
    by_name[library.name] = &library;

  struct LibSlot {
    const LibraryBinary* binary = nullptr;
    AnalyzedLibrary analyzed;
  };
  std::vector<LibSlot> libs;
  std::map<std::string, std::size_t> lib_slot_by_name;
  std::vector<std::size_t> entry_lib(entries.size(), 0);

  report.results.resize(entries.size());
  for (std::size_t e = 0; e < entries.size(); ++e) {
    CveScanResult& result = report.results[e];
    result.cve_id = entries[e]->spec.cve_id;
    result.library = entries[e]->spec.library;
    const auto lib_it = by_name.find(result.library);
    if (lib_it == by_name.end()) {
      result.library_missing = true;
      continue;
    }
    const auto [slot_it, inserted] =
        lib_slot_by_name.try_emplace(result.library, libs.size());
    if (inserted) libs.push_back(LibSlot{lib_it->second, {}});
    entry_lib[e] = slot_it->second;
  }
  report.analyzed_libraries = libs.size();

  // --- build the job graph -------------------------------------------------
  // Ids: [0, L) analyze per library slot, then per entry e a detect job
  // L + 2e and a patch job L + 2e + 1.
  struct Job {
    JobKind kind = JobKind::analyze;
    std::size_t target = 0;  // library slot (analyze) or entry index
    std::vector<std::size_t> dependents;
    int unmet = 0;
    bool skipped = false;  // missing library: no work to do
    bool done = false;     // executed (set by the job body; read post-drain)
  };
  const std::size_t lib_jobs = libs.size();
  std::vector<Job> jobs(lib_jobs + 2 * entries.size());
  for (std::size_t l = 0; l < lib_jobs; ++l)
    jobs[l] = Job{JobKind::analyze, l, {}, 0, false, false};
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const std::size_t detect_id = lib_jobs + 2 * e;
    const std::size_t patch_id = detect_id + 1;
    const bool missing = report.results[e].library_missing;
    jobs[detect_id] = Job{JobKind::detect, e, {patch_id}, missing ? 0 : 1,
                          missing, false};
    jobs[patch_id] = Job{JobKind::patch, e, {}, 1, missing, false};
    if (!missing) jobs[entry_lib[e]].dependents.push_back(detect_id);
  }

  // One stage-2 memo per entry: its detect job fills it, its patch job
  // reads it. The scheduler's mutex orders the two, so it needs no lock.
  std::vector<ProfileMemo> memos(entries.size());
  // Per entry, written by its library's analyze job and read by its detect
  // and patch jobs (ordered by the scheduler like the memo): the cache key
  // of its ScanEntry, and whether that entry was found, which leaves the
  // detect and patch jobs nothing to do.
  std::vector<std::string> scan_keys(entries.size());
  std::vector<char> served(entries.size(), 0);

  // --- per-run pipeline + digests ------------------------------------------
  PipelineConfig pipeline_config = config_.pipeline;
  pipeline_config.worker_threads = config_.jobs;
  const Patchecko pipeline(request.model, pipeline_config);
  const bool caching = config_.use_cache;
  const Digest model_digest = caching ? digest_model(*request.model) : Digest{};
  const Digest config_digest =
      caching ? digest_pipeline_config(pipeline_config) : Digest{};

  // --- run-health instrumentation ------------------------------------------
  // The watchdog exists only when a deadline was configured; the heartbeat
  // is caller-owned and merely driven from here. The guard finishes the
  // heartbeat even when a job throws, so the stream always ends with a
  // terminal snapshot.
  std::optional<obs::StallWatchdog> watchdog;
  if (config_.watchdog.soft_deadline_seconds > 0.0 ||
      config_.watchdog.hard_deadline_seconds > 0.0) {
    watchdog.emplace(config_.watchdog);
    watchdog->start();
  }
  const std::atomic<bool>* const interrupt = config_.interrupt;
  const auto interrupted = [interrupt] {
    return interrupt != nullptr && interrupt->load(std::memory_order_relaxed);
  };
  obs::Heartbeat* const heartbeat =
      request.heartbeat != nullptr ? request.heartbeat : config_.heartbeat;
  struct HeartbeatGuard {
    obs::Heartbeat* heartbeat;
    ~HeartbeatGuard() {
      if (heartbeat != nullptr) heartbeat->finish();
    }
  } heartbeat_guard{heartbeat};
  if (heartbeat != nullptr) heartbeat->begin(jobs.size());

  std::mutex event_mutex;
  const auto emit = [&](JobKind kind, std::string label, double seconds,
                        bool cache_hit, const obs::ResourceSample& resources,
                        bool stalled) {
    if (heartbeat != nullptr) heartbeat->job_done();
    if (obs::events_enabled())
      obs::EventLog::global().emit(
          obs::Severity::info, "engine.job",
          {obs::Field::text("kind", std::string(job_kind_name(kind))),
           obs::Field::text("label", label),
           obs::Field::f64("seconds", seconds),
           obs::Field::u64("cache_hit", cache_hit ? 1 : 0),
           obs::Field::f64("cpu_s", resources.cpu_seconds),
           obs::Field::u64("allocs", resources.allocations),
           obs::Field::u64("stalled", stalled ? 1 : 0)});
    std::lock_guard<std::mutex> lock(event_mutex);
    report.timings.push_back(JobTiming{kind, label, seconds, cache_hit,
                                       resources.cpu_seconds,
                                       resources.allocations, stalled});
    if (progress)
      progress(JobEvent{kind, std::move(label), seconds, cache_hit,
                        report.timings.size() - 1, jobs.size(),
                        resources.cpu_seconds, resources.allocations,
                        stalled});
  };

  const auto execute = [&](std::size_t id) {
    Job& job = jobs[id];
    job.done = true;  // own-job write; read only after the graph drains
    // A waiter helping the pool may run this job while its own job's spans
    // are still open; the task scope makes this job's span a root wherever
    // it executes (trace trees and folded profiles stay identical across
    // --jobs) and tags its spans/events with the owning service request.
    const obs::TaskScope task(request.request_id);
    const obs::ScopedSpan span(job_span_name(job.kind));

    // Label first: the watchdog needs it while the job is still running.
    std::string label;
    if (job.kind == JobKind::analyze)
      label = libs[job.target].binary->name;
    else
      label = report.results[job.target].cve_id;

    // While a stall is injected the watchdog watches the stalled job alone,
    // so its deadlines can never fire on a slow but healthy job.
    const bool stall_injected = config_.stall_inject_seconds > 0.0;
    const bool stall_here = stall_injected && job.kind == JobKind::detect &&
                            !job.skipped &&
                            label == config_.stall_inject_label;
    obs::StallWatchdog::Job watchdog_job;
    if (watchdog.has_value() && (!stall_injected || stall_here))
      watchdog_job = watchdog->job_started(job_kind_name(job.kind), label);
    // The per-job cooperative cancel token: the watchdog's when one exists,
    // otherwise the run-wide interrupt flag doubles as the token so a
    // SIGINT/SIGTERM (or service shutdown) aborts in-flight stages too.
    const std::atomic<bool>* cancel =
        watchdog_job.cancel ? watchdog_job.cancel.get() : interrupt;

    if (stall_here) {
      const Stopwatch stall;
      while (stall.elapsed_seconds() < config_.stall_inject_seconds &&
             !(cancel != nullptr && cancel->load(std::memory_order_relaxed)))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const Stopwatch watch;
    // Resource sampling honors the no-op contract: with obs off, no extra
    // clock reads and no /proc access per job.
    const bool obs_on = obs::enabled();
    const obs::ResourceSample resources_start =
        obs_on ? obs::resource_sample() : obs::ResourceSample{};
    bool cache_hit = false;
    bool stalled = false;
    if (job.kind == JobKind::analyze) {
      LibSlot& slot = libs[job.target];
      // Without a cache every CVE needs the features; with one, only a CVE
      // whose ScanEntry misses does. A hit restores the CVE's whole result.
      bool needed = !caching;
      std::string key;
      if (caching) {
        Digest digest;
        if (keyed) {
          digest = request.firmware->library_keys[static_cast<std::size_t>(
              slot.binary - request.firmware->libraries.data())];
        } else {
          const obs::ScopedSpan digest_span("cache.digest");
          digest = digest_library(*slot.binary);
        }
        for (const std::size_t detect_id : job.dependents) {
          const std::size_t e = jobs[detect_id].target;
          scan_keys[e] = scan_cache_key(digest, model_digest,
                                        config_digest,
                                        digest_entry(*entries[e]));
          if (auto cached = cache_.find_scan(scan_keys[e])) {
            CveScanResult& result = report.results[e];
            result.from_vulnerable = std::move(cached->from_vulnerable);
            result.from_patched = std::move(cached->from_patched);
            result.report = std::move(cached->report);
            served[e] = 1;
          } else {
            needed = true;
          }
        }
        key = features_cache_key(digest);
      }
      cache_hit = true;  // extracted no features
      if (needed) {
        auto features = caching ? cache_.find_features(key) : std::nullopt;
        if (features && features->size() == slot.binary->functions.size()) {
          slot.analyzed.binary = slot.binary;
          slot.analyzed.features = std::move(*features);
        } else {
          cache_hit = false;
          slot.analyzed =
              analyze_library(*slot.binary, pipeline_config.worker_threads);
          if (caching) cache_.store_features(key, slot.analyzed.features);
        }
      }
      // The retrieval index derives from the features alone: the memory
      // tier keeps it under the features key, so only a library without a
      // retained index builds one (and retains it for the next request).
      if (needed &&
          pipeline_config.prefilter_mode != retrieval::PrefilterMode::off) {
        if (caching) {
          auto index = cache_.find_index(key);
          if (index && index->size() == slot.analyzed.features.size())
            slot.analyzed.index = std::move(index);
        }
        if (!slot.analyzed.index) {
          ensure_retrieval_index(slot.analyzed);
          if (caching) cache_.store_index(key, slot.analyzed.index);
        }
      }
    } else if (!job.skipped && served[job.target]) {
      cache_hit = true;  // restored by the analyze job
    } else if (job.kind == JobKind::detect && !job.skipped) {
      const CveEntry& entry = *entries[job.target];
      const LibSlot& slot = libs[entry_lib[job.target]];
      CveScanResult& result = report.results[job.target];
      const retrieval::QueryCatalog::Entry* query_codes =
          request.query_codes != nullptr
              ? request.query_codes->find(entry.spec.cve_id)
              : nullptr;
      for (const bool query_is_patched : {false, true})
        (query_is_patched ? result.from_patched : result.from_vulnerable) =
            pipeline.detect(
                entry, slot.analyzed, query_is_patched, cancel,
                query_codes == nullptr
                    ? nullptr
                    : (query_is_patched ? &query_codes->patched
                                        : &query_codes->vulnerable),
                &memos[job.target]);
      // The patch job needs only the differential pool's profiles.
      memos[job.target].retain(patch_pool(result.from_vulnerable,
                                          result.from_patched,
                                          pipeline_config.patch_candidates));
      if (result.from_vulnerable.cancelled || result.from_patched.cancelled) {
        // An interrupt and a watchdog hard deadline share the cooperative
        // cancel mechanism; attribute the outcome to whichever fired.
        if (interrupted())
          result.cancelled = true;
        else
          result.stalled = true;
        stalled = result.stalled;
      }
    } else if (job.kind == JobKind::patch && !job.skipped) {
      const CveEntry& entry = *entries[job.target];
      const LibSlot& slot = libs[entry_lib[job.target]];
      CveScanResult& result = report.results[job.target];
      result.report = pipeline.report_from(
          entry, slot.analyzed, result.from_vulnerable, result.from_patched,
          cancel, &memos[job.target]);
      memos[job.target] = ProfileMemo{};
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        if (interrupted())
          result.cancelled = true;
        else
          result.stalled = true;
        stalled = result.stalled;
      }
      // A cancelled detect or patch is partial; caching it would poison
      // every later warm run with the truncated result.
      if (caching && !result.stalled && !result.cancelled)
        cache_.store_scan(scan_keys[job.target],
                          ScanEntry{result.from_vulnerable,
                                    result.from_patched, result.report});
    }
    const double seconds = watch.elapsed_seconds();
    const obs::ResourceSample resources =
        obs_on ? obs::resource_delta(resources_start, obs::resource_sample())
               : obs::ResourceSample{};
    if (watchdog_job.cancel) watchdog->job_finished(watchdog_job);
    EngineMetrics::get().job_histogram(job.kind).record(seconds);
    if (obs_on) {
      EngineMetrics::get().cpu_histogram(job.kind).record(
          resources.cpu_seconds);
      EngineMetrics::get().job_allocations.add(resources.allocations);
      EngineMetrics::get().rss_kb.set(obs::process_rss_kb());
    }
    EngineMetrics::get().jobs_completed.add();
    if (cache_hit) EngineMetrics::get().job_cache_hits.add();
    emit(job.kind, std::move(label), seconds, cache_hit, resources, stalled);
  };

  // --- scheduler -----------------------------------------------------------
  // The ready-depth gauge mirrors every push/pop exactly (add ±1), so its
  // value is 0 once the graph drains and its max is the true high-water
  // mark of runnable-but-not-running jobs.
  obs::Gauge& ready_depth = EngineMetrics::get().ready_depth;
  std::mutex sched_mutex;
  std::deque<std::size_t> ready;
  for (std::size_t id = 0; id < jobs.size(); ++id)
    if (jobs[id].unmet == 0) {
      ready.push_back(id);
      ready_depth.add(1);
    }

  // Event-driven: every job is one *finite* pool task that, when done,
  // releases its dependents and submits newly ready jobs (at most
  // `max_running` in flight; jobs = 0 runs one at a time like jobs = 1).
  // Finite tasks are essential — a pool waiter helping via try_run_one may
  // execute another job task nested on its own stack, which is harmless
  // exactly because job tasks always run to completion instead of looping
  // until the whole graph is done.
  const unsigned max_running = std::max(1u, config_.jobs);
  std::size_t running = 0;
  bool aborted = false;
  std::exception_ptr first_error;
  TaskGroup group(ThreadPool::shared());
  std::function<void(std::size_t)> run_job;
  const auto pump = [&] {
    // Caller holds sched_mutex (this also serializes group.run calls).
    // Once interrupted, queued jobs are dropped, not run: the interrupt is
    // the run-wide cancel signal and the partial report must return
    // promptly.
    if (interrupted()) {
      ready_depth.add(-static_cast<std::int64_t>(ready.size()));
      ready.clear();
      return;
    }
    while (running < max_running && !ready.empty()) {
      const std::size_t id = ready.front();
      ready.pop_front();
      ready_depth.add(-1);
      ++running;
      group.run([&run_job, id] { run_job(id); });
    }
  };
  run_job = [&](std::size_t id) {
    try {
      execute(id);
    } catch (...) {
      std::lock_guard<std::mutex> lock(sched_mutex);
      if (!first_error) first_error = std::current_exception();
      aborted = true;
      --running;
      return;
    }
    std::lock_guard<std::mutex> lock(sched_mutex);
    --running;
    for (const std::size_t dependent : jobs[id].dependents)
      if (--jobs[dependent].unmet == 0) {
        ready.push_back(dependent);
        ready_depth.add(1);
      }
    if (!aborted) pump();
  };
  {
    std::lock_guard<std::mutex> lock(sched_mutex);
    pump();
  }
  group.wait();
  if (first_error) std::rethrow_exception(first_error);

  if (interrupted()) {
    report.interrupted = true;
    for (const Job& job : jobs) {
      if (job.done) continue;
      ++report.jobs_cancelled;
      if (job.kind != JobKind::analyze)
        report.results[job.target].cancelled = true;
    }
  }

  report.cache = stats_delta(cache_.stats(), stats_before);
  report.total_seconds = total_watch.elapsed_seconds();
  return report;
}

}  // namespace patchecko
