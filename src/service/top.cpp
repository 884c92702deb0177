#include "service/top.h"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/rollup.h"

namespace patchecko::service {

namespace {

using obs::json::Value;

std::uint64_t as_u64(const Value& value) {
  if (value.kind() != Value::Kind::number) return 0;
  const double number = value.as_number();
  return number > 0.0 ? static_cast<std::uint64_t>(number) : 0;
}

std::string fmt_seconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  return buf;
}

/// Left-pads `text` to `width` columns (right-aligns numeric columns).
void column(std::string& out, const std::string& text, int width) {
  const int pad = width - static_cast<int>(text.size());
  for (int i = 0; i < pad; ++i) out += ' ';
  out += text;
}

/// Smallest bucket bound whose cumulative count reaches `quantile` of the
/// total; the overflow bucket reports the window max instead of +inf.
std::string bucket_quantile(const std::vector<std::uint64_t>& buckets,
                            const std::vector<double>& bounds,
                            std::uint64_t total, double quantile,
                            double max_seconds) {
  if (total == 0) return "-";
  const auto need = static_cast<std::uint64_t>(
      static_cast<double>(total) * quantile + 0.5);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= need && cumulative > 0) {
      if (i < bounds.size()) return "<=" + fmt_seconds(bounds[i]);
      return fmt_seconds(max_seconds);
    }
  }
  return fmt_seconds(max_seconds);
}

}  // namespace

bool validate_stats(const obs::json::Value& stats, std::string* error) {
  const auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (stats.kind() != Value::Kind::object)
    return fail("stats response is not a JSON object");
  if (stats.get("type").as_string() != "stats")
    return fail("response \"type\" is not \"stats\"");
  const Value& schema = stats.get("schema_version");
  if (schema.kind() != Value::Kind::number || schema.as_number() < 1.0)
    return fail("stats response is missing \"schema_version\"");
  if (stats.get("uptime_s").kind() != Value::Kind::number)
    return fail("stats response is missing \"uptime_s\"");
  if (stats.get("corpus").kind() != Value::Kind::object)
    return fail("stats response is missing the \"corpus\" block");
  if (stats.get("queue").kind() != Value::Kind::object)
    return fail("stats response is missing the \"queue\" block");
  const Value& rollup = stats.get("rollup");
  if (rollup.kind() != Value::Kind::object)
    return fail("stats response is missing the \"rollup\" block");
  if (rollup.get("le").kind() != Value::Kind::array)
    return fail("rollup block is missing the \"le\" bucket bounds");
  if (rollup.get("endpoints").kind() != Value::Kind::object)
    return fail("rollup block is missing the \"endpoints\" table");
  if (rollup.get("window_s").kind() != Value::Kind::number)
    return fail("rollup block is missing \"window_s\"");
  return true;
}

std::string render_top(const obs::json::Value& stats) {
  const Value& corpus = stats.get("corpus");
  const Value& queue = stats.get("queue");
  const Value& rollup = stats.get("rollup");
  const Value& rollup_queue = rollup.get("queue");

  std::vector<double> bounds;
  for (const Value& bound : rollup.get("le").as_array())
    bounds.push_back(bound.as_number());

  std::string out = "patchecko daemon";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  uptime %.1fs  corpus v%" PRIu64 " (%" PRIu64 " cves)",
                stats.get("uptime_s").as_number(),
                as_u64(corpus.get("version")), as_u64(corpus.get("cves")));
  out += buf;
  const Value& rss = rollup.get("rss_kb");
  if (rss.kind() == Value::Kind::number && rss.as_number() >= 0.0) {
    std::snprintf(buf, sizeof(buf), "  rss %" PRIu64 " kB", as_u64(rss));
    out += buf;
  }
  out += '\n';

  std::snprintf(buf, sizeof(buf),
                "queue  depth %" PRIu64 "/%" PRIu64 "  active %" PRIu64
                "  admitted %" PRIu64 "  rejected %" PRIu64
                "  completed %" PRIu64 "  depth_hwm %" PRIu64 "  wait_hwm %s\n",
                as_u64(queue.get("depth")), as_u64(queue.get("capacity")),
                as_u64(queue.get("active")), as_u64(queue.get("admitted")),
                as_u64(queue.get("rejected")), as_u64(queue.get("completed")),
                as_u64(rollup_queue.get("depth_hwm")),
                fmt_seconds(rollup_queue.get("wait_hwm_s").as_number()).c_str());
  out += buf;

  std::snprintf(buf, sizeof(buf), "window %.0fs\n",
                rollup.get("window_s").as_number());
  out += buf;

  out += "endpoint      count  errors        p50        p90        max"
         "   wait_max     life  life_err\n";
  const Value& endpoints = rollup.get("endpoints");
  for (std::size_t e = 0; e < obs::kEndpointCount; ++e) {
    const std::string name(
        obs::endpoint_name(static_cast<obs::Endpoint>(e)));
    const Value& endpoint = endpoints.get(name);
    const std::uint64_t count = as_u64(endpoint.get("count"));
    const double max_seconds = endpoint.get("max_s").as_number();
    std::vector<std::uint64_t> buckets;
    for (const Value& bucket : endpoint.get("buckets").as_array())
      buckets.push_back(as_u64(bucket));

    out += name;
    for (std::size_t i = name.size(); i < 10; ++i) out += ' ';
    column(out, std::to_string(count), 9);
    column(out, std::to_string(as_u64(endpoint.get("errors"))), 8);
    column(out, bucket_quantile(buckets, bounds, count, 0.50, max_seconds), 11);
    column(out, bucket_quantile(buckets, bounds, count, 0.90, max_seconds), 11);
    column(out, count > 0 ? fmt_seconds(max_seconds) : "-", 11);
    column(out,
           count > 0 ? fmt_seconds(endpoint.get("wait_max_s").as_number())
                     : "-",
           11);
    const Value& total = endpoint.get("total");
    column(out, std::to_string(as_u64(total.get("count"))), 9);
    column(out, std::to_string(as_u64(total.get("errors"))), 10);
    out += '\n';
  }

  // Hot-leaf row from the daemon's last `profile` capture; absent on
  // daemons that predate the profiler block.
  const Value& profile = stats.get("profile");
  if (profile.kind() == Value::Kind::object) {
    std::snprintf(buf, sizeof(buf), "profiler  captures %" PRIu64 "  %s",
                  as_u64(profile.get("captures")),
                  profile.get("running").as_bool(false) ? "capturing"
                                                        : "idle");
    out += buf;
    const Value& last = profile.get("last");
    if (last.kind() == Value::Kind::object) {
      const std::string hot_path = last.get("hot_path").as_string();
      std::snprintf(buf, sizeof(buf),
                    "  hot %s  self %.3fs/%.3fs  alloc %" PRIu64 " kB",
                    hot_path.empty() ? "-" : hot_path.c_str(),
                    last.get("hot_self_s").as_number(),
                    last.get("self_s").as_number(),
                    as_u64(last.get("hot_alloc_bytes")) / 1024);
      out += buf;
    } else {
      out += "  hot -";
    }
    out += '\n';
  }

  // Image-tier row; absent on daemons that predate the tier.
  const Value& images = stats.get("images");
  if (images.kind() == Value::Kind::object) {
    const std::uint64_t lookups =
        as_u64(images.get("hits")) + as_u64(images.get("misses"));
    std::snprintf(buf, sizeof(buf),
                  "images  entries %" PRIu64 "/%" PRIu64 "  %" PRIu64
                  " kB  hits %" PRIu64 "/%" PRIu64 "  evictions %" PRIu64
                  "\n",
                  as_u64(images.get("entries")),
                  as_u64(images.get("capacity")),
                  as_u64(images.get("bytes")) / 1024,
                  as_u64(images.get("hits")), lookups,
                  as_u64(images.get("evictions")));
    out += buf;
  }

  // Prebuilt-store row; present only on store-backed daemons
  // (serve --corpus-dir), so its absence is not an error.
  const Value& store = stats.get("corpus_store");
  if (store.kind() == Value::Kind::object) {
    const std::uint64_t lookups =
        as_u64(store.get("hits")) + as_u64(store.get("misses"));
    std::snprintf(buf, sizeof(buf),
                  "store  entries %" PRIu64 "  %" PRIu64 " kB  gen %" PRIu64
                  "  hits %" PRIu64 "/%" PRIu64 "  stores %" PRIu64 "\n",
                  as_u64(store.get("entries")),
                  as_u64(store.get("bytes")) / 1024,
                  as_u64(store.get("generation")),
                  as_u64(store.get("hits")), lookups,
                  as_u64(store.get("stores")));
    out += buf;
  }
  return out;
}

}  // namespace patchecko::service
