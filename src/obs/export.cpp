#include "obs/export.h"

#include <cstdio>
#include <map>

#include "obs/json.h"

namespace patchecko::obs {

namespace {

using json::append_all;
using json::append_string;

template <typename Fn>
void join(std::string& out, std::size_t n, const Fn& fn) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) out += ',';
    fn(i);
  }
}

}  // namespace

std::string export_json(const Registry& registry, const Tracer& tracer,
                        const EventLog* events) {
  // schema_version is the explicit metrics-document version (v2 added the
  // field itself plus per-span request ids); "version" stays for readers
  // that predate it — json::schema_version() prefers the new key.
  std::string out = "{\"schema_version\":2,\"version\":1,\"counters\":{";
  const auto counters = registry.counter_snapshots();
  join(out, counters.size(), [&](std::size_t i) {
    append_string(out, counters[i].name);
    append_all(out, ':', counters[i].value);
  });
  out += "},\"gauges\":{";
  const auto gauges = registry.gauge_snapshots();
  join(out, gauges.size(), [&](std::size_t i) {
    append_string(out, gauges[i].name);
    append_all(out, ":{\"value\":", gauges[i].value, ",\"max\":",
               gauges[i].max, '}');
  });
  out += "},\"histograms\":{";
  const auto histograms = registry.histogram_snapshots();
  join(out, histograms.size(), [&](std::size_t i) {
    const HistogramSnapshot& h = histograms[i];
    append_string(out, h.name);
    append_all(out, ":{\"count\":", h.count, ",\"sum_seconds\":", h.sum,
               ",\"le\":[");
    join(out, h.bounds.size(),
         [&](std::size_t b) { append_all(out, h.bounds[b]); });
    // buckets has one trailing overflow entry beyond the "le" bounds.
    out += "],\"buckets\":[";
    join(out, h.buckets.size(),
         [&](std::size_t b) { append_all(out, h.buckets[b]); });
    out += "]}";
  });
  append_all(out, "},\"spans\":{\"dropped\":", tracer.dropped(),
             ",\"events\":[");
  const auto spans = tracer.spans();
  join(out, spans.size(), [&](std::size_t i) {
    const Span& span = spans[i];
    append_all(out, "{\"id\":", span.id, ",\"parent\":", span.parent,
               ",\"req\":", span.request, ",\"name\":");
    append_string(out, span.name);
    append_all(out, ",\"thread\":", span.thread, ",\"start_s\":",
               span.start_seconds, ",\"end_s\":", span.end_seconds, '}');
  });
  out += "]}";
  if (events != nullptr) {
    const std::uint64_t emitted = events->emitted();
    const std::uint64_t overflow = events->overflowed();
    append_all(out, ",\"events\":{\"emitted\":", emitted, ",\"overflow\":",
               overflow, ",\"retained\":", emitted - overflow, '}');
  }
  out += '}';
  return out;
}

std::string summary_line(const Registry& registry, const Tracer* tracer,
                         const EventLog* events) {
  std::map<std::string, std::uint64_t> counters;
  for (const CounterSnapshot& snapshot : registry.counter_snapshots())
    counters[snapshot.name] = snapshot.value;
  std::map<std::string, double> sums;
  for (const HistogramSnapshot& snapshot : registry.histogram_snapshots())
    sums[snapshot.name] = snapshot.sum;

  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  const auto sum = [&](const char* name) -> double {
    const auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
  };

  const std::uint64_t hits =
      counter("cache.feature_hits") + counter("cache.outcome_hits");
  const std::uint64_t lookups = hits + counter("cache.feature_misses") +
                                counter("cache.outcome_misses");
  const std::uint64_t stage1 = counter("pipeline.candidates_stage1");
  const std::uint64_t pruned = counter("pipeline.candidates_pruned");

  char line[512];
  std::snprintf(
      line, sizeof(line),
      "metrics: analyze %.2fs, dl %.2fs (%llu pairs), exec %.2fs, patch "
      "%.2fs | cache %llu/%llu hits (%.1f%%) | candidates %llu -> %llu "
      "(%llu pruned) | steals %llu/%llu tasks | vm %llu runs, %llu reused, "
      "%llu traps",
      sum("pipeline.analyze_seconds"), sum("pipeline.dl_seconds"),
      static_cast<unsigned long long>(counter("pipeline.stage1_pairs_scored")),
      sum("pipeline.da_seconds"), sum("pipeline.patch_seconds"),
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(lookups),
      lookups == 0 ? 0.0
                   : 100.0 * static_cast<double>(hits) /
                         static_cast<double>(lookups),
      static_cast<unsigned long long>(stage1),
      static_cast<unsigned long long>(stage1 - pruned),
      static_cast<unsigned long long>(pruned),
      static_cast<unsigned long long>(counter("pool.steals")),
      static_cast<unsigned long long>(counter("pool.completed")),
      static_cast<unsigned long long>(counter("vm.runs")),
      static_cast<unsigned long long>(counter("vm.profile_reuses")),
      static_cast<unsigned long long>(counter("vm.traps")));
  std::string out = line;
  const std::uint64_t spans_dropped = tracer != nullptr ? tracer->dropped() : 0;
  const std::uint64_t events_lost = events != nullptr ? events->overflowed() : 0;
  if (spans_dropped != 0 || events_lost != 0) {
    std::snprintf(line, sizeof(line),
                  " | lost: %llu spans dropped, %llu events overwritten",
                  static_cast<unsigned long long>(spans_dropped),
                  static_cast<unsigned long long>(events_lost));
    out += line;
  }
  return out;
}

int write_metrics_artifacts(const Registry& registry, const Tracer& tracer,
                            const EventLog* events, const std::string& file,
                            std::FILE* json_stream,
                            std::FILE* summary_stream) {
  std::fprintf(summary_stream, "%s\n",
               summary_line(registry, &tracer, events).c_str());
  const std::string json = export_json(registry, tracer, events);
  if (file.empty()) {
    std::fprintf(json_stream, "%s\n", json.c_str());
    return 0;
  }
  std::FILE* out = std::fopen(file.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(summary_stream, "error: cannot write metrics to %s\n",
                 file.c_str());
    return 1;
  }
  const bool ok = std::fputs(json.c_str(), out) >= 0 &&
                  std::fputc('\n', out) != EOF;
  const bool closed = std::fclose(out) == 0;
  if (!ok || !closed) {
    std::fprintf(summary_stream, "error: cannot write metrics to %s\n",
                 file.c_str());
    return 1;
  }
  std::fprintf(summary_stream, "metrics written to %s\n", file.c_str());
  return 0;
}

std::string chrome_trace_json(const Tracer& tracer, const EventLog* events) {
  // Spans and structured events live on separate steady-clock epochs (each
  // resets at its own clear()); for the global instances both start at first
  // use, so the shared timeline lines up to well under a millisecond —
  // plenty for visual triage in Perfetto.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : tracer.spans()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    json::append_string(out, span.name);
    append_all(out, ",\"ph\":\"X\",\"pid\":1,\"tid\":", span.thread,
               ",\"ts\":");
    json::append_double(out, span.start_seconds * 1e6);
    out += ",\"dur\":";
    json::append_double(out, (span.end_seconds - span.start_seconds) * 1e6);
    append_all(out, ",\"args\":{\"id\":", span.id, ",\"parent\":", span.parent,
               ",\"req\":", span.request, "}}");
  }
  if (events != nullptr) {
    for (const Event& event : events->events()) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":";
      json::append_string(out, event.name);
      append_all(out, ",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":",
                 event.thread, ",\"ts\":");
      json::append_double(out, event.t_seconds * 1e6);
      append_all(out, ",\"args\":{\"req\":", event.request);
      for (std::size_t i = 0; i < event.fields.size(); ++i) {
        const Field& field = event.fields[i];
        out += ',';
        json::append_string(out, field.key);
        out += ':';
        switch (field.kind) {
          case Field::Kind::u64: append_all(out, field.u); break;
          case Field::Kind::i64: append_all(out, field.i); break;
          case Field::Kind::f64: json::append_double(out, field.f); break;
          case Field::Kind::text: json::append_string(out, field.s); break;
        }
      }
      out += "}}";
    }
  }
  out += "]}";
  return out;
}

}  // namespace patchecko::obs
