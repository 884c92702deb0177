// Observability: structured event log.
//
// Spans (trace.h) answer "how long did each stage take"; events answer
// "what did the system decide and why" — a candidate pruned after a crash,
// a detect job served from cache, a patch verdict reached. Each event is a
// named record with a severity, typed key/value fields, a wall-clock stamp,
// and two sequence numbers: a global one (emission order across the
// process) and a per-thread one (gap-free per emitting thread, so lost
// events are provable, not suspected).
//
// Storage is a fixed-capacity ring: below the cap nothing is ever lost;
// beyond it the *oldest* events are overwritten and overflowed() counts
// exactly how many. The log obeys the same no-op contract as the metrics
// registry and tracer, but behind its own flag (events_enabled()): with
// events off, emit() returns after one relaxed load — no clock read, no
// lock, no allocation. Call sites that build field vectors must gate on
// events_enabled() themselves so the vector is never constructed in no-op
// mode:
//
//   if (obs::events_enabled())
//     obs::EventLog::global().emit(obs::Severity::info, "engine.job",
//                                  {obs::Field::text("label", label),
//                                   obs::Field::f64("seconds", seconds)});
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace patchecko::obs {

/// Global event-log switch, independent of the metrics flag (a scan may
/// want decisions without latency histograms, or vice versa).
bool events_enabled();
void set_events_enabled(bool on);

/// RAII flip of the event flag (tests; the CLI sets it once instead).
class EventsEnabledScope {
 public:
  explicit EventsEnabledScope(bool on) : previous_(events_enabled()) {
    set_events_enabled(on);
  }
  ~EventsEnabledScope() { set_events_enabled(previous_); }
  EventsEnabledScope(const EventsEnabledScope&) = delete;
  EventsEnabledScope& operator=(const EventsEnabledScope&) = delete;

 private:
  bool previous_;
};

/// Small dense per-thread ordinal (not an OS tid), shared with the tracer
/// so span.thread and event.thread index the same threads.
std::uint32_t thread_ordinal();

enum class Severity : std::uint8_t { debug = 0, info, warn, error };
std::string_view severity_name(Severity severity);

/// One typed key/value pair. Factories keep call sites terse and make the
/// kind explicit; the value lives in whichever member matches `kind`.
struct Field {
  enum class Kind : std::uint8_t { u64, i64, f64, text };

  std::string key;
  Kind kind = Kind::u64;
  std::uint64_t u = 0;
  std::int64_t i = 0;
  double f = 0.0;
  std::string s;

  static Field u64(std::string key, std::uint64_t value) {
    Field field;
    field.key = std::move(key);
    field.kind = Kind::u64;
    field.u = value;
    return field;
  }
  static Field i64(std::string key, std::int64_t value) {
    Field field;
    field.key = std::move(key);
    field.kind = Kind::i64;
    field.i = value;
    return field;
  }
  static Field f64(std::string key, double value) {
    Field field;
    field.key = std::move(key);
    field.kind = Kind::f64;
    field.f = value;
    return field;
  }
  static Field text(std::string key, std::string value) {
    Field field;
    field.key = std::move(key);
    field.kind = Kind::text;
    field.s = std::move(value);
    return field;
  }
};

struct Event {
  std::uint64_t seq = 0;         ///< 1-based global emission order
  std::uint32_t thread = 0;      ///< thread_ordinal() of the emitter
  std::uint64_t thread_seq = 0;  ///< 1-based, gap-free per thread
  std::uint64_t request = 0;     ///< current_request_id() at emit; 0 = none
  double t_seconds = 0.0;        ///< since the log epoch
  Severity severity = Severity::info;
  std::string name;
  std::vector<Field> fields;
};

/// Thread-safe fixed-capacity ring of structured events.
class EventLog {
 public:
  static constexpr std::size_t default_capacity = 1u << 16;

  explicit EventLog(std::size_t capacity = default_capacity);

  /// The process-wide log (intentionally leaked, like Registry/Tracer).
  static EventLog& global();

  /// Records one event; no-op (single relaxed load) when events are off.
  void emit(Severity severity, std::string_view name,
            std::vector<Field> fields = {});

  /// Retained events, oldest first (seq order). At most capacity() entries;
  /// once the ring wraps these are the *newest* emitted events.
  std::vector<Event> events() const;

  std::size_t capacity() const { return capacity_; }
  /// Total emit() calls that recorded (emitted while enabled).
  std::uint64_t emitted() const;
  /// Events overwritten after the ring filled: emitted() - retained.
  std::uint64_t overflowed() const;

  /// Drops every event, resets sequences and the epoch.
  void clear();

 private:
  double since_epoch() const;

  mutable std::mutex mutex_;
  std::vector<Event> ring_;  ///< size <= capacity_
  std::size_t head_ = 0;     ///< oldest slot once the ring is full
  std::size_t capacity_;
  std::uint64_t emitted_ = 0;
  std::uint64_t overflowed_ = 0;
  std::unordered_map<std::uint32_t, std::uint64_t> thread_seq_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// One JSONL line (no trailing newline): {"type":"event","name":...,
/// "sev":...,"req":N,"seq":N,"thread":T,"thread_seq":N,"t_s":...,
/// "fields":{...}}. `req` is the TaskScope request id (0 outside a service
/// request). Non-finite doubles render as null.
std::string event_jsonl_line(const Event& event);

}  // namespace patchecko::obs
