// The timed closed loops: fresh one-shot engines, or two clients of the
// in-process daemon. Every scan's canonical report is byte-compared with the
// reference; a mismatch, an error or a refusal is a failed scan.
#include <algorithm>
#include <exception>
#include <filesystem>
#include <mutex>
#include <thread>

#include "bench.h"
#include "obs/json.h"
#include "service/client.h"
#include "service/protocol.h"

namespace perfbench {

namespace {

constexpr std::size_t kDaemonClients = 2;

TimedRun run_oneshot(Context& ctx) {
  TimedRun run;
  const Workload& workload = ctx.workload;
  const double start = now_seconds();
  const double cpu_start = process_cpu_seconds();
  const double deadline = start + ctx.options.seconds;
  for (std::size_t i = 0; run.attempted == 0 || now_seconds() < deadline;
       ++i) {
    const Image& image = ctx.images[i % ctx.images.size()];
    EngineConfig config = workload.engine;
    if (workload.fresh_cache_dir) std::filesystem::remove_all(ctx.cache_dir);
    if (workload.fresh_cache_dir || workload.warm_cache_dir)
      config.cache_dir = ctx.cache_dir;
    ++run.attempted;
    try {
      ScanEngine engine(config);
      const ScanRequest request = ctx.request_for(image);
      const double t0 = now_seconds();
      const ScanReport report = engine.run(request);
      const double seconds = now_seconds() - t0;
      if (report.interrupted || report.canonical_text() != image.reference) {
        ++run.failed;
        continue;
      }
      run.latencies.push_back(seconds);
      run.engine.push_back(engine_sample(report, config.jobs));
    } catch (const std::exception&) {
      ++run.failed;
    }
  }
  run.elapsed_s = now_seconds() - start;
  run.cpu_s = process_cpu_seconds() - cpu_start;
  return run;
}

/// One closed-loop client: send, wait for "accepted", wait for "result",
/// repeat, alternating images from `first`.
void daemon_client(const Context& ctx, std::size_t first, double deadline,
                   std::mutex& mutex, TimedRun& run) {
  auto client = service::ServiceClient::connect_unix(ctx.socket_path);
  for (std::size_t k = 0; k == 0 || now_seconds() < deadline; ++k) {
    const Image& image = ctx.images[(first + k) % ctx.images.size()];
    ServiceSample sample;
    bool ok = false;
    const double t0 = now_seconds();
    if (client.connected() &&
        client.send(service::scan_request_json(image.path, {}, false))) {
      const auto accepted = client.receive();
      sample.accept_s = now_seconds() - t0;
      const auto accepted_doc =
          accepted ? obs::json::parse(*accepted) : std::nullopt;
      if (accepted_doc &&
          accepted_doc->get("type").as_string() == "accepted") {
        sample.request_id = static_cast<std::uint64_t>(
            accepted_doc->get("request_id").as_number());
        const auto result = client.receive();
        sample.latency_s = now_seconds() - t0;
        if (result) {
          const ResultFrame frame = parse_result_frame(*result);
          sample.engine_s = frame.seconds;
          sample.result_bytes = static_cast<double>(result->size());
          ok = frame.ok && frame.report == image.reference;
        }
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    ++run.attempted;
    if (!ok) {
      ++run.failed;
      if (!client.connected()) return;
      continue;
    }
    run.latencies.push_back(sample.latency_s);
    run.service.push_back(sample);
  }
}

TimedRun run_daemon(Context& ctx) {
  TimedRun run;
  std::mutex mutex;
  const double start = now_seconds();
  const double cpu_start = process_cpu_seconds();
  const double deadline = start + ctx.options.seconds;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kDaemonClients; ++c)
    clients.emplace_back([&, c] {
      try {
        daemon_client(ctx, c, deadline, mutex, run);
      } catch (const std::exception&) {
        std::lock_guard<std::mutex> lock(mutex);
        ++run.attempted;
        ++run.failed;
      }
    });
  for (std::thread& client : clients) client.join();
  run.elapsed_s = now_seconds() - start;
  run.cpu_s = process_cpu_seconds() - cpu_start;
  return run;
}

}  // namespace

EngineSample engine_sample(const ScanReport& report, unsigned jobs) {
  EngineSample sample;
  double busy = 0.0;
  for (const JobTiming& timing : report.timings) {
    busy += timing.seconds;
    switch (timing.kind) {
      case JobKind::analyze: sample.analyze_s += timing.seconds; break;
      case JobKind::detect:
        sample.detect_s += timing.seconds;
        sample.detect_max_s = std::max(sample.detect_max_s, timing.seconds);
        break;
      case JobKind::patch: sample.patch_s += timing.seconds; break;
    }
  }
  if (report.total_seconds > 0.0)
    sample.parallel_efficiency = busy / (jobs * report.total_seconds);
  sample.cache = report.cache;
  return sample;
}

ResultFrame parse_result_frame(const std::string& payload) {
  ResultFrame frame;
  const auto doc = obs::json::parse(payload);
  if (!doc || doc->get("type").as_string() != "result" ||
      doc->get("status").as_string() != "ok" ||
      doc->get("interrupted").as_bool(true))
    return frame;
  frame.ok = true;
  frame.report = doc->get("report").as_string();
  frame.seconds = doc->get("seconds").as_number();
  return frame;
}

TimedRun run_timed(Context& ctx) {
  return ctx.workload.daemon ? run_daemon(ctx) : run_oneshot(ctx);
}

}  // namespace perfbench
