// Observability: in-process sampling span profiler.
//
// The tracer (obs/trace.h) records *every* span with timestamps — exact but
// heavyweight, and its JSON export is per-run forensic data. The profiler
// answers a different question: across a long scan or a live daemon, where
// does the time and memory actually go, by pipeline stage? It works by
// sampling. Each frame on a thread's span stack (obs/trace.h) records the
// node it entered in that thread's trie of span paths (a "scope path" is
// the stack of span names above the current task, e.g.
// job.detect;pipeline.detect.prefilter), and a sampler sweeps the
// registered threads at a fixed cadence, crediting one sample to the node
// of each thread's top frame. Sample counts are *self* time (the sample
// lands on the innermost span); inclusive time is the subtree sum, derived
// at render time.
//
// Allocation attribution rides on PK_ALLOC_HOOK (obs/resource.h): at every
// span or task boundary the delta of the thread's allocation counters
// since the previous boundary is flushed into the node that was active over
// that interval, so every node also carries exact allocation counts/bytes
// for the code that ran directly inside it. Granularity is boundaries:
// allocations after a thread's last boundary are unattributed until its
// next one, and threads that cross no boundary during a capture are
// invisible. Under sanitizers (PK_ALLOC_HOOK == 0) the counters stay zero
// and reports say so (alloc_available == false).
//
// Determinism contract (mirrors Heartbeat/StallWatchdog): with hz > 0 the
// profiler runs a real sampler thread; with hz == 0 no thread is spawned
// and tests drive sample_once() by hand, timing capture duration through
// the obs::Clock indirection (ManualClock in tests). Scope *entry* and
// allocation counts are scheduling-independent — the same workload yields
// a byte-identical entries-folded export at any --jobs value — while sample
// counts are deterministic exactly when sample_once() calls are (manual
// sweeps against parked threads in tests).
//
// No-op contract: when no capture is running, the only cost added to a
// ScopedSpan is one relaxed atomic load (profiling_enabled()). Starting a
// capture resets every per-thread trie and begins a new capture
// generation; a frame's node counts only within the capture it was entered
// in, so spans already open when a capture starts are invisible to it and
// spans opened under them start at the root. That is what makes on-demand
// daemon captures safe mid-request.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/health.h"

namespace patchecko::obs {

/// True while a capture is running. One relaxed load; the gate every span
/// and task boundary checks before touching profiler state.
bool profiling_enabled();

/// One merged trie node. Children are sorted by name; `samples` is self
/// samples (the sweep landed inside this exact scope), inclusive counts are
/// the subtree sum.
struct ProfileNode {
  std::string name;
  std::uint64_t samples = 0;      ///< self samples
  std::uint64_t entries = 0;      ///< scope entries (deterministic)
  std::uint64_t alloc_count = 0;  ///< allocations attributed to this scope
  std::uint64_t alloc_bytes = 0;
  std::vector<ProfileNode> children;
};

/// A merged, render-ready snapshot of one capture.
struct ProfileReport {
  ProfileNode root;  ///< name "(root)"; holds unattributed allocations
  std::uint64_t sweeps = 0;   ///< sampler passes over the thread registry
  std::uint64_t samples = 0;  ///< samples credited (threads inside a scope)
  double duration_seconds = 0.0;  ///< from the configured Clock
  double hz = 0.0;                ///< 0 = manually driven
  std::uint64_t truncated = 0;  ///< pushes dropped past depth/node caps
  bool alloc_available = false;
};

/// Compact digest of the last finished capture, surfaced through the
/// daemon `stats` response and the `patchecko top` hot-leaf row.
struct CaptureSummary {
  std::uint64_t sweeps = 0;
  std::uint64_t samples = 0;
  double duration_seconds = 0.0;
  double hz = 0.0;
  std::string hot_path;  ///< hottest scope path "a;b;c" (see hot-rank order)
  std::uint64_t hot_samples = 0;
  std::uint64_t hot_alloc_bytes = 0;
};

/// Which per-node value a folded export emits.
enum class FoldMetric { samples, entries, alloc_bytes };

class Profiler {
 public:
  struct Config {
    double hz = 97.0;  ///< sweep cadence; 0 = no sampler thread (tests)
    const Clock* clock = nullptr;  ///< null = Clock::real()
  };

  /// Per-thread caps; spans entered beyond them count into
  /// ProfileReport::truncated and are credited to their deepest recorded
  /// ancestor, as is every span opened inside them.
  static constexpr std::size_t max_depth = 64;
  static constexpr std::size_t max_nodes = 1u << 16;

  /// The process-wide profiler (intentionally leaked, like Registry).
  static Profiler& global();

  /// Begins a capture: resets every thread trie, flips profiling_enabled(),
  /// and (hz > 0) spawns the sampler thread. Returns false — without
  /// touching the running capture — if one is already active; the daemon
  /// maps that to a 409.
  bool start(const Config& config);

  /// Ends the capture (joins the sampler) and returns the merged report.
  /// Idempotent: returns the last report when no capture is running.
  ProfileReport stop();

  bool running() const;

  /// One sweep over the registered threads; a no-op unless running. Tests
  /// (and the hz == 0 mode) call this by hand.
  void sample_once();

  /// Merged view of the current (or, after stop, the last) capture.
  ProfileReport report() const;

  /// Digest of the last *finished* capture; nullopt before the first stop.
  std::optional<CaptureSummary> last_capture() const;
  /// Finished captures since process start.
  std::uint64_t captures() const;
};

/// flamegraph.pl / speedscope folded stacks: one "a;b;c N" line per node
/// with a non-zero metric, preorder over name-sorted children — a stable,
/// byte-comparable rendering.
std::string folded_stacks(const ProfileReport& report,
                          FoldMetric metric = FoldMetric::samples);

/// Fixed-width self-time/alloc table, deterministically ordered (self
/// samples desc, alloc bytes desc, entries desc, path asc). Contains no
/// wall-clock values beyond the capture duration.
std::string profile_top_table(const ProfileReport& report,
                              std::size_t limit = 12);

/// Hot-leaf digest of a report (the rank order profile_top_table uses).
CaptureSummary summarize_profile(const ProfileReport& report);

}  // namespace patchecko::obs
