#include "obs/trace.h"

#include <algorithm>

namespace patchecko::obs {

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

double Tracer::since_epoch() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Tracer::record(const Record& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (records_.size() >= max_spans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  records_.push_back(record);
}

std::vector<Span> Tracer::spans() const {
  std::vector<Record> records;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    records = records_;
  }
  // Spans finish (and are appended) in arbitrary order across threads;
  // id order == start order is the stable rendering.
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.id < b.id; });
  const std::vector<std::string> names = detail::label_names();
  std::vector<Span> out;
  out.reserve(records.size());
  for (const Record& r : records)
    out.push_back(Span{r.id, r.parent, r.request, names[r.label], r.thread,
                       r.start_seconds, r.end_seconds});
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.clear();
  next_id_.store(1, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
}

}  // namespace patchecko::obs
