#include "service/protocol.h"

#include <algorithm>
#include <cstring>

#include "obs/json.h"

namespace patchecko::service {

namespace obs_json = patchecko::obs::json;

std::string encode_frame(std::string_view payload) {
  const auto size = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.reserve(kLengthPrefixBytes + payload.size());
  frame.push_back(static_cast<char>((size >> 24) & 0xFF));
  frame.push_back(static_cast<char>((size >> 16) & 0xFF));
  frame.push_back(static_cast<char>((size >> 8) & 0xFF));
  frame.push_back(static_cast<char>(size & 0xFF));
  frame.append(payload);
  return frame;
}

FrameReader::FrameReader(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {}

void FrameReader::push(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

void FrameReader::compact() {
  // Amortized cleanup: drop the consumed prefix once it dominates the
  // buffer, so long-lived sessions don't grow without bound.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
}

FrameStatus FrameReader::next(std::string& payload,
                              std::uint64_t* dropped_bytes) {
  // Finish discarding an oversized payload before looking for a header.
  if (skip_remaining_ > 0) {
    const std::uint64_t available = buffer_.size() - consumed_;
    const std::uint64_t discard = std::min(skip_remaining_, available);
    consumed_ += static_cast<std::size_t>(discard);
    skip_remaining_ -= discard;
    compact();
  }
  if (skip_pending_report_) {
    // Surface the oversized frame exactly once, as soon as its header was
    // read — the session can answer 413 while the payload still trickles in.
    skip_pending_report_ = false;
    if (dropped_bytes != nullptr) *dropped_bytes = skip_total_;
    return FrameStatus::oversized;
  }
  if (skip_remaining_ > 0) return FrameStatus::need_more;

  if (buffer_.size() - consumed_ < kLengthPrefixBytes)
    return FrameStatus::need_more;
  const auto* head =
      reinterpret_cast<const unsigned char*>(buffer_.data() + consumed_);
  const std::uint64_t length = (static_cast<std::uint64_t>(head[0]) << 24) |
                               (static_cast<std::uint64_t>(head[1]) << 16) |
                               (static_cast<std::uint64_t>(head[2]) << 8) |
                               static_cast<std::uint64_t>(head[3]);
  if (length > max_frame_bytes_) {
    consumed_ += kLengthPrefixBytes;
    skip_total_ = length;
    skip_pending_report_ = true;
    skip_remaining_ = length;
    // Re-enter to consume whatever skip bytes are already buffered and
    // report the oversized frame.
    return next(payload, dropped_bytes);
  }
  if (buffer_.size() - consumed_ < kLengthPrefixBytes + length)
    return FrameStatus::need_more;
  payload.assign(buffer_, consumed_ + kLengthPrefixBytes,
                 static_cast<std::size_t>(length));
  consumed_ += kLengthPrefixBytes + static_cast<std::size_t>(length);
  compact();
  return FrameStatus::ok;
}

// --- requests --------------------------------------------------------------

namespace {

bool is_u64(double value) {
  return value >= 0.0 && value == static_cast<double>(
                             static_cast<std::uint64_t>(value));
}

}  // namespace

std::optional<Request> parse_request(std::string_view payload,
                                     std::string* error) {
  const auto doc = obs_json::parse(payload);
  if (!doc) {
    if (error != nullptr) *error = "malformed JSON payload";
    return std::nullopt;
  }
  if (doc->kind() != obs_json::Value::Kind::object) {
    if (error != nullptr) *error = "request must be a JSON object";
    return std::nullopt;
  }
  Request request;
  const obs_json::Value& type = doc->get("type");
  if (type.as_string().empty()) {
    if (error != nullptr) *error = "request is missing a \"type\" string";
    return std::nullopt;
  }
  request.raw_type = type.as_string();
  if (request.raw_type == "scan")
    request.type = RequestType::scan;
  else if (request.raw_type == "status")
    request.type = RequestType::status;
  else if (request.raw_type == "health")
    request.type = RequestType::health;
  else if (request.raw_type == "reload")
    request.type = RequestType::reload;
  else if (request.raw_type == "drain")
    request.type = RequestType::drain;
  else if (request.raw_type == "ping")
    request.type = RequestType::ping;
  else if (request.raw_type == "stats")
    request.type = RequestType::stats;
  else if (request.raw_type == "profile")
    request.type = RequestType::profile;
  else
    request.type = RequestType::unknown;

  if (request.type == RequestType::scan) {
    request.firmware = doc->get("firmware").as_string();
    if (request.firmware.empty()) {
      if (error != nullptr)
        *error = "scan request needs a \"firmware\" path string";
      return std::nullopt;
    }
    const obs_json::Value& cves = doc->get("cves");
    if (!cves.is_null()) {
      if (cves.kind() != obs_json::Value::Kind::array) {
        if (error != nullptr)
          *error = "\"cves\" must be an array of non-empty strings";
        return std::nullopt;
      }
      for (const obs_json::Value& id : cves.as_array()) {
        if (id.kind() != obs_json::Value::Kind::string ||
            id.as_string().empty()) {
          if (error != nullptr)
            *error = "\"cves\" must be an array of non-empty strings";
          return std::nullopt;
        }
        request.cve_ids.push_back(id.as_string());
      }
    }
    request.want_provenance = doc->get("provenance").as_bool(false);
    const obs_json::Value& id = doc->get("request_id");
    if (!id.is_null()) {
      if (id.kind() != obs_json::Value::Kind::number || !is_u64(id.as_number()) ||
          id.as_number() < 1.0) {
        if (error != nullptr)
          *error = "scan \"request_id\" must be a positive integer";
        return std::nullopt;
      }
      request.request_id = static_cast<std::uint64_t>(id.as_number());
      request.has_request_id = true;
    }
  } else if (request.type == RequestType::status) {
    const obs_json::Value& id = doc->get("request_id");
    if (id.kind() != obs_json::Value::Kind::number ||
        !is_u64(id.as_number())) {
      if (error != nullptr)
        *error = "status request needs a non-negative \"request_id\"";
      return std::nullopt;
    }
    request.request_id = static_cast<std::uint64_t>(id.as_number());
    request.has_request_id = true;
  } else if (request.type == RequestType::reload) {
    const obs_json::Value& scale = doc->get("scale");
    if (!scale.is_null()) {
      if (scale.kind() != obs_json::Value::Kind::number ||
          scale.as_number() <= 0.0) {
        if (error != nullptr) *error = "\"scale\" must be a number > 0";
        return std::nullopt;
      }
      request.scale = scale.as_number();
    }
    const obs_json::Value& seed = doc->get("seed");
    if (!seed.is_null()) {
      if (seed.kind() != obs_json::Value::Kind::number ||
          !is_u64(seed.as_number())) {
        if (error != nullptr)
          *error = "\"seed\" must be a non-negative integer";
        return std::nullopt;
      }
      request.seed = static_cast<std::uint64_t>(seed.as_number());
    }
  } else if (request.type == RequestType::profile) {
    const obs_json::Value& seconds = doc->get("seconds");
    if (!seconds.is_null()) {
      if (seconds.kind() != obs_json::Value::Kind::number ||
          seconds.as_number() <= 0.0 || seconds.as_number() > 300.0) {
        if (error != nullptr)
          *error = "profile \"seconds\" must be a number in (0, 300]";
        return std::nullopt;
      }
      request.profile_seconds = seconds.as_number();
    }
  }
  return request;
}

std::string scan_request_json(const std::string& firmware,
                              const std::vector<std::string>& cve_ids,
                              bool want_provenance,
                              std::uint64_t request_id) {
  std::string out = "{\"type\":\"scan\",\"firmware\":";
  obs_json::append_string(out, firmware);
  if (!cve_ids.empty()) {
    out += ",\"cves\":[";
    for (std::size_t i = 0; i < cve_ids.size(); ++i) {
      if (i != 0) out += ',';
      obs_json::append_string(out, cve_ids[i]);
    }
    out += ']';
  }
  if (want_provenance) out += ",\"provenance\":true";
  if (request_id != 0)
    out += ",\"request_id\":" + std::to_string(request_id);
  out += '}';
  return out;
}

std::string status_request_json(std::uint64_t request_id) {
  return "{\"type\":\"status\",\"request_id\":" + std::to_string(request_id) +
         "}";
}

std::string health_request_json() { return "{\"type\":\"health\"}"; }

std::string reload_request_json(std::optional<double> scale,
                                std::optional<std::uint64_t> seed) {
  std::string out = "{\"type\":\"reload\"";
  if (scale.has_value()) {
    out += ",\"scale\":";
    obs_json::append_double(out, *scale);
  }
  if (seed.has_value()) out += ",\"seed\":" + std::to_string(*seed);
  out += '}';
  return out;
}

std::string drain_request_json() { return "{\"type\":\"drain\"}"; }

std::string ping_request_json() { return "{\"type\":\"ping\"}"; }

std::string stats_request_json() { return "{\"type\":\"stats\"}"; }

std::string profile_request_json(double seconds) {
  std::string out = "{\"type\":\"profile\",\"seconds\":";
  obs_json::append_double(out, seconds);
  out += '}';
  return out;
}

// --- responses -------------------------------------------------------------

std::string error_response(int code, std::string_view message,
                           std::uint64_t request_id) {
  std::string out = "{\"type\":\"error\",\"code\":" + std::to_string(code) +
                    ",\"message\":";
  obs_json::append_string(out, message);
  if (request_id != 0)
    out += ",\"request_id\":" + std::to_string(request_id);
  out += '}';
  return out;
}

std::string accepted_response(std::uint64_t request_id,
                              std::size_t queue_depth) {
  return "{\"type\":\"accepted\",\"request_id\":" +
         std::to_string(request_id) +
         ",\"queue_depth\":" + std::to_string(queue_depth) + "}";
}

std::string result_response(const ResultInfo& info) {
  // A result frame is mostly its three strings, escaped at their own size
  // or larger: one allocation up front, not one per doubling.
  std::string out;
  out.reserve(info.report.size() + info.summary.size() +
              info.provenance.size() + 256);
  obs_json::append_all(out, "{\"type\":\"result\",\"request_id\":",
                       info.request_id,
                       ",\"status\":\"ok\",\"corpus_version\":",
                       info.corpus_version, ",\"interrupted\":",
                       info.interrupted ? "true" : "false", ",\"seconds\":");
  obs_json::append_double(out, info.seconds);
  obs_json::append_all(out, ",\"cache\":{\"hits\":", info.cache_hits,
                       ",\"misses\":", info.cache_misses, "},\"report\":");
  obs_json::append_string(out, info.report);
  out += ",\"summary\":";
  obs_json::append_string(out, info.summary);
  if (!info.provenance.empty()) {
    out += ",\"provenance\":";
    obs_json::append_string(out, info.provenance);
  }
  out += '}';
  return out;
}

std::string capture_summary_json(const obs::CaptureSummary& summary) {
  std::string out = "{\"duration_s\":";
  obs_json::append_double(out, summary.duration_seconds);
  out += ",\"self_s\":";
  obs_json::append_double(out, summary.self_seconds);
  out += ",\"hot_path\":";
  obs_json::append_string(out, summary.hot_path);
  out += ",\"hot_self_s\":";
  obs_json::append_double(out, summary.hot_self_seconds);
  out += ",\"hot_alloc_bytes\":" + std::to_string(summary.hot_alloc_bytes) +
         "}";
  return out;
}

std::string profile_response(double seconds,
                             const obs::ProfileReport& report) {
  std::string out = "{\"type\":\"profile\",\"seconds\":";
  obs_json::append_double(out, seconds);
  out += ",\"truncated\":" + std::to_string(report.truncated) +
         ",\"alloc_available\":" +
         (report.alloc_available ? "true" : "false") + ",\"summary\":" +
         capture_summary_json(obs::summarize_profile(report)) +
         ",\"folded\":";
  obs_json::append_string(out, obs::folded_stacks(report));
  out += ",\"top\":";
  obs_json::append_string(out, obs::profile_top_table(report));
  out += '}';
  return out;
}

std::string status_response(std::uint64_t request_id, std::string_view state) {
  std::string out =
      "{\"type\":\"status\",\"request_id\":" + std::to_string(request_id) +
      ",\"state\":";
  obs_json::append_string(out, state);
  out += '}';
  return out;
}

std::string reloaded_response(std::uint64_t corpus_version, std::size_t cves,
                              double build_seconds) {
  std::string out = "{\"type\":\"reloaded\",\"corpus_version\":" +
                    std::to_string(corpus_version) +
                    ",\"cves\":" + std::to_string(cves) + ",\"build_s\":";
  obs_json::append_double(out, build_seconds);
  out += '}';
  return out;
}

std::string drained_response(std::uint64_t completed) {
  return "{\"type\":\"drained\",\"completed\":" + std::to_string(completed) +
         "}";
}

std::string pong_response() { return "{\"type\":\"pong\"}"; }

}  // namespace patchecko::service
