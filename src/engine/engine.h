// Batch scan engine: one request, many (CVE x library) analyses.
//
// The paper evaluates one (CVE, firmware) pair at a time and leaves
// large-scale parallel deployment as future work (Section V-E). This façade
// turns a scan request — M CVEs against the N libraries of a firmware
// image — into a dependency-aware job graph
//
//     analyze(library)  -->  detect(cve)  -->  patch(cve)
//
// executed on the shared work-stealing pool (thread_pool.h), with every
// analyze/detect result served from the content-addressed cache (cache.h)
// when the inputs are unchanged. Scan results are deterministic: the same
// request produces the same ScanReport::canonical_text() at any job count
// and any cache temperature.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cve_database.h"
#include "core/pipeline.h"
#include "engine/cache.h"
#include "obs/health.h"

namespace patchecko {

struct EngineConfig {
  /// Maximum concurrently executing jobs (0 counts as 1); also the worker
  /// count of the data-parallel loops inside each job. Every value runs on
  /// the one pool scheduler: 1 runs one job at a time, in graph order, with
  /// its loops inline.
  unsigned jobs = 1;
  bool use_cache = true;
  /// Directory for persisted cache entries; empty = in-memory only.
  std::string cache_dir;
  PipelineConfig pipeline;

  /// Stall watchdog deadlines; both 0 (the default) = no watchdog at all.
  /// Past the soft deadline a job is flagged once (warning event + stderr);
  /// past the hard deadline its cooperative cancel flag is set and the scan
  /// records a `stalled` outcome for that CVE.
  obs::WatchdogConfig watchdog;

  /// Optional heartbeat publisher, owned by the caller. The engine drives
  /// it: begin(total) once the job graph is built, job_done() per finished
  /// job, finish() when run() returns (also on exception unwind).
  obs::Heartbeat* heartbeat = nullptr;

  /// Test hook (--stall-inject): the detect job with this CVE label holds
  /// at its start for this long, or until its cancel token fires, so
  /// watchdog deadlines fire deterministically in CI without a genuinely
  /// pathological input. While a stall is injected the watchdog watches
  /// that job alone: no other job can meet a deadline, however loaded the
  /// machine.
  std::string stall_inject_label;
  double stall_inject_seconds = 0.0;

  /// Cooperative run-wide interrupt (SIGINT/SIGTERM handler or service
  /// shutdown), owned by the caller. Once it reads true the scheduler stops
  /// launching queued jobs and — when no watchdog owns the per-job cancel
  /// token — the flag itself is threaded into the pipeline stages as that
  /// token, so in-flight jobs abandon remaining work at their next
  /// cooperative check. The run then returns a partial report with
  /// `interrupted` set instead of dropping output on the floor.
  const std::atomic<bool>* interrupt = nullptr;
};

enum class JobKind : std::uint8_t { analyze, detect, patch };
std::string_view job_kind_name(JobKind kind);

/// Completion notification, delivered from worker threads (the callback
/// must be thread-safe; invocations are serialized by the engine).
struct JobEvent {
  JobKind kind = JobKind::analyze;
  std::string label;       ///< library name (analyze) or CVE id
  double seconds = 0.0;
  bool cache_hit = false;  ///< job fully served from cache
  std::size_t sequence = 0;     ///< completion order, 0-based
  std::size_t total_jobs = 0;   ///< graph size, for progress display
  double cpu_seconds = 0.0;     ///< thread CPU of the job body; 0 if unsupported
  std::uint64_t allocations = 0;  ///< heap allocations in the job body
  bool stalled = false;         ///< cancelled by the watchdog hard deadline
};

using ProgressFn = std::function<void(const JobEvent&)>;

struct ScanRequest {
  const SimilarityModel* model = nullptr;
  const FirmwareImage* firmware = nullptr;
  const CveDatabase* database = nullptr;
  /// CVE ids to scan; empty = every database entry.
  std::vector<std::string> cve_ids;
  /// Per-run heartbeat override. A long-lived service runs many requests
  /// through one engine concurrently, so the publisher must travel with the
  /// request, not the engine config; when set it takes precedence over
  /// EngineConfig::heartbeat.
  obs::Heartbeat* heartbeat = nullptr;
  /// Precomputed quantized query codes for the retrieval prefilter,
  /// typically the corpus snapshot's catalog. Optional: detect() quantizes
  /// per call when absent (or when an entry is missing from the catalog).
  const retrieval::QueryCatalog* query_codes = nullptr;
  /// Service request id (0 = one-shot run). Each job body runs inside an
  /// obs::TaskScope with this id: the job's span is a trace root on
  /// whichever thread runs it, and spans, events, and the provenance meta
  /// line of a multiplexed daemon are attributable to the request.
  std::uint64_t request_id = 0;
};

struct CveScanResult {
  std::string cve_id;
  std::string library;
  bool library_missing = false;
  /// The watchdog hard deadline cancelled the detect or patch job; the
  /// outcomes below cover only the work finished before cancellation.
  bool stalled = false;
  /// A run-wide interrupt cancelled or skipped this entry's jobs; like
  /// `stalled`, the outcomes cover only the work finished before that.
  bool cancelled = false;
  DetectionOutcome from_vulnerable;
  DetectionOutcome from_patched;
  PatchReport report;
};

struct JobTiming {
  JobKind kind = JobKind::analyze;
  std::string label;
  double seconds = 0.0;
  bool cache_hit = false;
  double cpu_seconds = 0.0;       ///< thread CPU of the job body
  std::uint64_t allocations = 0;  ///< heap allocations in the job body
  bool stalled = false;
};

struct ScanReport {
  std::vector<CveScanResult> results;  ///< database order, not finish order
  std::vector<JobTiming> timings;      ///< completion order
  CacheStats cache;                    ///< this run only (delta, not lifetime)
  std::size_t analyzed_libraries = 0;
  double total_seconds = 0.0;
  /// The configured interrupt flag fired mid-run: queued jobs were dropped
  /// (`jobs_cancelled` of them) and the results above are partial.
  bool interrupted = false;
  std::size_t jobs_cancelled = 0;
  /// Copied from ScanRequest::request_id; rendered into the provenance
  /// meta line when nonzero (never into canonical_text(), which must stay
  /// byte-identical to one-shot runs).
  std::uint64_t request_id = 0;

  /// Deterministic rendering of every analysis result: excludes wall-clock
  /// times and cache statistics, so byte-equality across runs == result
  /// equality. This is the artifact the determinism and warm-cache
  /// acceptance checks compare.
  std::string canonical_text() const;

  /// Human-readable summary: verdict table plus timing and cache counters.
  std::string summary_text() const;

  /// Decision-provenance JSONL: one meta line, then one "decision" line per
  /// result in `results` order. Like canonical_text(), every line is
  /// deterministic (no wall-clock, no thread ids) — byte-identical across
  /// job counts and cache temperatures. The `--events` sink appends the
  /// wall-clock "event" lines after these.
  std::string provenance_jsonl() const;
};

/// Assembles the full decision chain of one scan result from the provenance
/// the pipeline recorded (detect-stage StageRecords survive the result
/// cache; the patch pool is recomputed each run).
obs::DecisionRecord decision_record(const CveScanResult& result);

class ScanEngine {
 public:
  explicit ScanEngine(EngineConfig config = {});

  /// Executes the request's job graph. Throws std::invalid_argument when a
  /// required request pointer is missing.
  ScanReport run(const ScanRequest& request, const ProgressFn& progress = {});

  ResultCache& cache() { return cache_; }
  const ResultCache& cache() const { return cache_; }
  const EngineConfig& config() const { return config_; }

 private:
  EngineConfig config_;
  ResultCache cache_;
};

}  // namespace patchecko
