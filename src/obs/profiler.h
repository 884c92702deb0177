// Observability: in-process span profiler.
//
// The tracer (obs/trace.h) records *every* span with timestamps — exact but
// heavyweight, and its JSON export is per-run forensic data. The profiler
// answers a different question: across a long scan or a live daemon, where
// does the time and memory actually go, by pipeline stage? Each frame on a
// thread's span stack (obs/trace.h) records the node it entered in that
// thread's trie of span paths (a "scope path" is the stack of span names
// above the current task, e.g. job.detect;pipeline.detect.prefilter).
//
// Everything is charged at span and task boundaries. At each boundary the
// interval since the thread's previous boundary is charged to the node the
// thread was inside over it: its wall time (read from the capture's Clock)
// as self seconds, and the delta of its allocation counters (PK_ALLOC_HOOK,
// obs/resource.h) as allocation count and bytes. Inclusive time is the
// subtree sum, derived at render time. report() and stop() also charge each
// live thread's open interval, up to the moment they read, to its top
// node. Time outside the capture's spans is not charged; allocations there
// land on the root. Under sanitizers (PK_ALLOC_HOOK == 0) the allocation
// counters stay zero and reports say so (alloc_available == false).
//
// Determinism: scope entries and allocation counts are
// scheduling-independent — the same workload yields a byte-identical
// entries-folded export at any --jobs value. Self seconds are exact
// functions of the clock values read at boundaries, so with a ManualClock
// (tests) they are exact too.
//
// No-op contract: when no capture is running, the only cost added to a
// ScopedSpan is one relaxed atomic load (profiling_enabled()); no clock is
// read. Starting a capture resets every per-thread trie and begins a new
// capture generation; a frame's node counts only within the capture it was
// entered in, so spans already open when a capture starts are invisible to
// it (and charge nothing) and spans opened under them start at the root.
// That is what makes on-demand daemon captures safe mid-request.
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

/// One merged trie node. Children are sorted by name; `self_seconds` is the
/// wall time threads spent with this exact scope on top of their stack,
/// summed over threads; inclusive time is the subtree sum.
struct ProfileNode {
  std::string name;
  double self_seconds = 0.0;
  std::uint64_t entries = 0;      ///< scope entries (deterministic)
  std::uint64_t alloc_count = 0;  ///< allocations attributed to this scope
  std::uint64_t alloc_bytes = 0;
  std::vector<ProfileNode> children;
};

/// A merged, render-ready snapshot of one capture.
struct ProfileReport {
  ProfileNode root;  ///< name "(root)"; holds unattributed allocations
  double duration_seconds = 0.0;  ///< from the configured Clock
  std::uint64_t truncated = 0;  ///< pushes dropped past depth/node caps
  bool alloc_available = false;
};

/// Compact digest of a capture, surfaced through the daemon `profile` and
/// `stats` responses and the `patchecko top` hot-leaf row.
struct CaptureSummary {
  double duration_seconds = 0.0;
  double self_seconds = 0.0;  ///< time charged to any scope, all threads
  std::string hot_path;  ///< hottest scope path "a;b;c" (see hot-rank order)
  double hot_self_seconds = 0.0;
  std::uint64_t hot_alloc_bytes = 0;
};

/// Which per-node value a folded export emits.
enum class FoldMetric { self_micros, entries, alloc_bytes };

class Profiler {
 public:
  struct Config {
    const Clock* clock = nullptr;  ///< null = Clock::real()
  };

  /// Per-thread caps; spans entered beyond them count into
  /// ProfileReport::truncated and are credited to their deepest recorded
  /// ancestor, as is every span opened inside them.
  static constexpr std::size_t max_depth = 64;
  static constexpr std::size_t max_nodes = 1u << 16;

  /// The process-wide profiler (intentionally leaked, like Registry).
  static Profiler& global();

  /// Begins a capture: resets every thread trie and flips
  /// profiling_enabled(). Returns false — without touching the running
  /// capture — if one is already active; the daemon maps that to a 409.
  /// The clock must outlive the capture.
  bool start(const Config& config);

  /// Ends the capture and returns the merged report. Idempotent: returns
  /// the last report when no capture is running.
  ProfileReport stop();

  bool running() const;

  /// Merged view of the current (or, after stop, the last) capture.
  ProfileReport report() const;

  /// Digest of the last *finished* capture; nullopt before the first stop.
  std::optional<CaptureSummary> last_capture() const;
  /// Finished captures since process start.
  std::uint64_t captures() const;
};

/// flamegraph.pl / speedscope folded stacks: one "a;b;c N" line per node
/// with a non-zero metric (self time in whole microseconds by default),
/// preorder over name-sorted children — a stable, byte-comparable
/// rendering.
std::string folded_stacks(const ProfileReport& report,
                          FoldMetric metric = FoldMetric::self_micros);

/// Fixed-width self-time/alloc table, ordered by self seconds desc, alloc
/// bytes desc, entries desc, path asc.
std::string profile_top_table(const ProfileReport& report,
                              std::size_t limit = 12);

/// Hot-leaf digest of a report (the rank order profile_top_table uses).
CaptureSummary summarize_profile(const ProfileReport& report);

}  // namespace patchecko::obs
