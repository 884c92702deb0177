// Observability: hierarchical stage tracing.
//
// A ScopedSpan marks one pipeline/engine stage execution: construction
// stamps the start, destruction stamps the end and records the finished
// span. Each thread keeps one stack of open-span frames; the tracer takes
// a span's parent from it and the profiler charges time and allocations to
// the same frames (both live in obs/profiler.cpp), so trace trees and
// profile paths cannot disagree. A TaskScope marks a job boundary: spans
// opened inside it are roots whatever the thread already has open, and
// carry the scope's request id.
//
// Spans obey the same no-op contract as the metrics registry: with
// obs::enabled() false, a ScopedSpan is one relaxed load — no clock read,
// lock, allocation or record. Timestamps are wall-clock values relative to
// the tracer epoch and therefore appear only in the JSON export, never in
// canonical report comparisons; span ids are assigned in start order, so
// the id-sorted span list is a stable rendering.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace patchecko::obs {

/// A span name. Only char arrays convert to it — in practice string
/// literals — because the label table caches interned ids by the text's
/// address, which must therefore name the same characters for the life of
/// the process.
class SpanLabel {
 public:
  template <std::size_t N>
  constexpr SpanLabel(const char (&literal)[N])
      : text_(literal, N - 1) {}
  constexpr std::string_view text() const { return text_; }

 private:
  std::string_view text_;
};

struct Span {
  std::uint64_t id = 0;      ///< 1-based, assigned at span start
  std::uint64_t parent = 0;  ///< 0 = root (no enclosing span in its task)
  std::uint64_t request = 0;  ///< obs::current_request_id() at start; 0 = none
  std::string name;
  std::uint32_t thread = 0;  ///< small per-thread ordinal, not an OS tid
  double start_seconds = 0.0;  ///< since the tracer epoch
  double end_seconds = 0.0;
};

/// Thread-safe collector of finished spans.
class Tracer {
 public:
  /// A retained span: fixed-size, the name kept as its interned label, so
  /// max_spans * sizeof(Record) bounds the tracer's memory.
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::uint32_t label = 0;
    std::uint32_t thread = 0;
    double start_seconds = 0.0;
    double end_seconds = 0.0;
  };

  /// The process-wide tracer (intentionally leaked, like Registry).
  static Tracer& global();

  /// Finished spans sorted by id (start order), names resolved.
  std::vector<Span> spans() const;
  /// Spans discarded after the in-memory cap was reached.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Drops every span, resets ids and the epoch.
  void clear();

  /// Cap on retained spans; recording beyond it increments dropped().
  static constexpr std::size_t max_spans = 1u << 20;

 private:
  friend class ScopedSpan;
  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  double since_epoch() const;
  void record(const Record& record);

  mutable std::mutex mutex_;
  std::vector<Record> records_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> dropped_{0};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// RAII span. Disabled, it costs the obs::enabled() load and nothing else.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanLabel label, Tracer& tracer = Tracer::global()) {
    if (enabled()) begin(label, tracer);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) end();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(SpanLabel label, Tracer& tracer);
  void end();

  Tracer* tracer_ = nullptr;  ///< null = tracing was off at construction
  // Set by begin() and read only when tracer_ is; left uninitialized so a
  // disabled span stores nothing but tracer_.
  std::uint64_t id_;
  double start_seconds_;
};

/// RAII job boundary: spans opened on this thread while it is alive are
/// roots, and spans and events recorded meanwhile carry `request_id`
/// (0 = no request, e.g. one-shot CLI runs). Nests: the enclosing task's
/// spans and request come back on exit.
class TaskScope {
 public:
  explicit TaskScope(std::uint64_t request_id);
  ~TaskScope();

  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  std::size_t previous_base_ = 0;
  std::uint64_t previous_request_ = 0;
};

/// The request id of the innermost open TaskScope on this thread; 0 when
/// none is open.
std::uint64_t current_request_id();

namespace detail {
/// Every interned label, indexed by id.
std::vector<std::string> label_names();
}  // namespace detail

}  // namespace patchecko::obs
