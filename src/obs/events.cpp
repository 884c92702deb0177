#include "obs/events.h"

#include "obs/json.h"
#include "obs/trace.h"

namespace patchecko::obs {

namespace {

std::atomic<bool> g_events_enabled{false};

}  // namespace

bool events_enabled() {
  return g_events_enabled.load(std::memory_order_relaxed);
}

void set_events_enabled(bool on) {
  g_events_enabled.store(on, std::memory_order_relaxed);
}

std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

std::string_view severity_name(Severity severity) {
  switch (severity) {
    case Severity::debug: return "debug";
    case Severity::info: return "info";
    case Severity::warn: return "warn";
    case Severity::error: return "error";
  }
  return "?";
}

EventLog::EventLog(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

EventLog& EventLog::global() {
  // Leaked on purpose, like Registry/Tracer: worker threads may emit while
  // other statics destruct at process exit.
  static EventLog* log = new EventLog();
  return *log;
}

double EventLog::since_epoch() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void EventLog::emit(Severity severity, std::string_view name,
                    std::vector<Field> fields) {
  if (!events_enabled()) return;
  Event event;
  event.thread = thread_ordinal();
  event.request = current_request_id();
  event.t_seconds = since_epoch();
  event.severity = severity;
  event.name.assign(name.data(), name.size());
  event.fields = std::move(fields);

  std::lock_guard<std::mutex> lock(mutex_);
  event.seq = ++emitted_;
  event.thread_seq = ++thread_seq_[event.thread];
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    // Overwrite the oldest slot: the ring keeps the newest window and the
    // overflow count makes the truncation explicit.
    ring_[head_] = std::move(event);
    head_ = (head_ + 1) % capacity_;
    ++overflowed_;
  }
}

std::vector<Event> EventLog::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  return out;
}

std::uint64_t EventLog::emitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return emitted_;
}

std::uint64_t EventLog::overflowed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return overflowed_;
}

void EventLog::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  head_ = 0;
  emitted_ = 0;
  overflowed_ = 0;
  thread_seq_.clear();
  epoch_ = std::chrono::steady_clock::now();
}

std::string event_jsonl_line(const Event& event) {
  using json::append_all;
  using json::append_double;
  using json::append_string;
  std::string out = "{\"type\":\"event\",\"name\":";
  append_string(out, event.name);
  out += ",\"sev\":";
  append_string(out, severity_name(event.severity));
  append_all(out, ",\"req\":", event.request, ",\"seq\":", event.seq,
             ",\"thread\":", event.thread, ",\"thread_seq\":", event.thread_seq,
             ",\"t_s\":");
  append_double(out, event.t_seconds);
  out += ",\"fields\":{";
  for (std::size_t i = 0; i < event.fields.size(); ++i) {
    const Field& field = event.fields[i];
    if (i != 0) out += ',';
    append_string(out, field.key);
    out += ':';
    switch (field.kind) {
      case Field::Kind::u64: append_all(out, field.u); break;
      case Field::Kind::i64: append_all(out, field.i); break;
      case Field::Kind::f64: append_double(out, field.f); break;
      case Field::Kind::text: append_string(out, field.s); break;
    }
  }
  out += "}}";
  return out;
}

}  // namespace patchecko::obs
