// Tests for the run-health telemetry layer: heartbeat snapshot schema and
// determinism, the stall watchdog's deadline latching and cooperative
// cancellation, per-job resource accounting plumbing, bench-diff
// classification, and the no-tear guarantee of Registry::snapshot().
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dl/trainer.h"
#include "engine/engine.h"
#include "obs/benchdiff.h"
#include "obs/decision.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace patchecko {
namespace {

std::string scratch_path(const std::string& name) {
  const auto path =
      std::filesystem::temp_directory_path() / ("pk_health_test_" + name);
  std::filesystem::remove_all(path);
  return path.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Same shared universe shape as the engine tests: a lightly trained model
// and a scaled-down corpus, deterministic by construction.
struct HealthUniverse {
  SimilarityModel model;
  std::unique_ptr<EvalCorpus> corpus;
  std::unique_ptr<CveDatabase> database;
  FirmwareImage firmware;
  std::vector<std::string> some_cves;

  HealthUniverse() {
    TrainerConfig trainer;
    trainer.dataset.library_count = 16;
    trainer.dataset.functions_per_library = 12;
    trainer.epochs = 6;
    model = train_similarity_model(trainer).model;

    EvalConfig eval;
    eval.scale = 0.03;
    corpus = std::make_unique<EvalCorpus>(eval);
    database = std::make_unique<CveDatabase>(*corpus, DatabaseConfig{});
    firmware = corpus->build_firmware(android_things_device());
    for (const CveEntry& entry : database->entries()) {
      if (some_cves.size() == 4) break;
      some_cves.push_back(entry.spec.cve_id);
    }
  }

  ScanRequest request() const {
    ScanRequest request;
    request.model = &model;
    request.firmware = &firmware;
    request.database = database.get();
    request.cve_ids = some_cves;
    return request;
  }
};

const HealthUniverse& universe() {
  static HealthUniverse instance;
  return instance;
}

TEST(Health, SnapshotJsonlSchemaIsFixed) {
  obs::HealthSnapshot snapshot;
  snapshot.seq = 3;
  snapshot.t_seconds = 1.5;
  snapshot.jobs_done = 7;
  snapshot.jobs_total = 10;
  snapshot.analyze_done = 2;
  snapshot.detect_done = 3;
  snapshot.patch_done = 2;
  snapshot.rate_per_second = 2.0;
  snapshot.eta_seconds = 1.5;
  snapshot.cache_hits = 4;
  snapshot.cache_misses = 12;
  snapshot.cache_hit_ratio = 0.25;
  snapshot.ready_depth = 5;
  snapshot.pool_queue_depth = 2;
  snapshot.events_emitted = 40;
  snapshot.events_overflowed = 1;
  snapshot.stalled_jobs = 1;
  const std::string line =
      obs::health_snapshot_jsonl(snapshot, /*include_process=*/false);
  EXPECT_EQ(line,
            "{\"type\":\"heartbeat\",\"seq\":3,\"t_s\":1.5,"
            "\"jobs\":{\"done\":7,\"total\":10,\"analyze\":2,\"detect\":3,"
            "\"patch\":2},\"rate_per_s\":2,\"eta_s\":1.5,"
            "\"cache\":{\"hits\":4,\"misses\":12,\"hit_ratio\":0.25},"
            "\"queues\":{\"ready\":5,\"pool\":2},"
            "\"events\":{\"emitted\":40,\"overflow\":1},\"stalled_jobs\":1}");

  // Unknown ETA renders as null, and the machine-dependent process section
  // only appears when asked for.
  snapshot.eta_seconds = std::nan("");
  snapshot.rss_kb = 1024;
  snapshot.peak_rss_kb = 2048;
  const std::string with_process =
      obs::health_snapshot_jsonl(snapshot, /*include_process=*/true);
  EXPECT_NE(with_process.find("\"eta_s\":null"), std::string::npos);
  EXPECT_NE(with_process.find(
                "\"process\":{\"rss_kb\":1024,\"peak_rss_kb\":2048}"),
            std::string::npos);
  const auto parsed = obs::json::parse(with_process);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->get("eta_s").is_null());
}

TEST(Health, HeartbeatManualClockLifecycle) {
  obs::ManualClock clock;
  obs::Registry registry;  // empty: all registry-derived fields stay zero
  const std::string hb_file = scratch_path("manual_hb") + ".jsonl";
  obs::HeartbeatConfig config;
  config.file = hb_file;
  config.interval_seconds = 0.0;  // no ticker thread; tests drive poll()
  config.clock = &clock;
  config.registry = &registry;
  config.include_process = false;

  {
    obs::Heartbeat heartbeat(std::move(config));
    heartbeat.begin(4);
    EXPECT_EQ(heartbeat.snapshots_written(), 1u);

    clock.advance(2.0);
    heartbeat.job_done();
    heartbeat.job_done();
    heartbeat.poll();

    clock.advance(2.0);
    heartbeat.job_done();
    heartbeat.job_done();
    heartbeat.finish();
    EXPECT_EQ(heartbeat.snapshots_written(), 3u);
    heartbeat.finish();  // idempotent
    EXPECT_EQ(heartbeat.snapshots_written(), 3u);
  }

  const auto lines = lines_of(slurp(hb_file));
  ASSERT_EQ(lines.size(), 3u);

  const auto snapshot = [&](std::size_t i) {
    const auto parsed = obs::json::parse(lines[i]);
    EXPECT_TRUE(parsed.has_value()) << lines[i];
    return *parsed;
  };

  const auto first = snapshot(0);
  EXPECT_EQ(first.get("seq").as_number(), 0.0);
  EXPECT_EQ(first.get("t_s").as_number(), 0.0);
  EXPECT_EQ(first.get("jobs").get("done").as_number(), 0.0);
  EXPECT_EQ(first.get("jobs").get("total").as_number(), 4.0);
  EXPECT_EQ(first.get("rate_per_s").as_number(), 0.0);
  EXPECT_TRUE(first.get("eta_s").is_null());  // no progress signal yet
  EXPECT_TRUE(first.get("process").is_null());

  const auto mid = snapshot(1);
  EXPECT_EQ(mid.get("seq").as_number(), 1.0);
  EXPECT_EQ(mid.get("t_s").as_number(), 2.0);
  EXPECT_EQ(mid.get("jobs").get("done").as_number(), 2.0);
  // Window [(0,0),(2,2)]: 2 jobs over 2 seconds, 2 remaining -> ETA 2s.
  EXPECT_DOUBLE_EQ(mid.get("rate_per_s").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(mid.get("eta_s").as_number(), 2.0);

  const auto last = snapshot(2);
  EXPECT_EQ(last.get("seq").as_number(), 2.0);
  EXPECT_EQ(last.get("jobs").get("done").as_number(), 4.0);
  EXPECT_EQ(last.get("jobs").get("total").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(last.get("eta_s").as_number(), 0.0);  // nothing remaining
}

TEST(Health, SilentHeartbeatSamplesWithoutWritingLines) {
  // write_lines=false is the scan-service mode: snapshots are still taken
  // (the health endpoint reads the last one) but no JSONL goes anywhere.
  obs::ManualClock clock;
  obs::Registry registry;
  obs::HeartbeatConfig config;
  config.interval_seconds = 0.0;
  config.clock = &clock;
  config.registry = &registry;
  config.write_lines = false;

  obs::Heartbeat heartbeat(std::move(config));
  EXPECT_FALSE(heartbeat.last_snapshot().has_value());  // before begin()
  heartbeat.begin(3);
  heartbeat.job_done();
  heartbeat.job_done();
  clock.advance(1.5);
  heartbeat.poll();
  auto snapshot = heartbeat.last_snapshot();
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->jobs_done, 2u);
  EXPECT_EQ(snapshot->jobs_total, 3u);
  EXPECT_DOUBLE_EQ(snapshot->t_seconds, 1.5);
  heartbeat.job_done();
  heartbeat.finish();
  snapshot = heartbeat.last_snapshot();
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->jobs_done, 3u);
  // Silent mode writes no lines, but snapshots_written still counts samples.
  EXPECT_EQ(heartbeat.snapshots_written(), 3u);
}

TEST(Health, HeartbeatSnapshotsAreIdenticalAcrossJobCounts) {
  // The CI-facing determinism claim: with a fake clock and the process
  // section off, a --jobs=1 scan and a --jobs=8 scan of the same request
  // produce byte-identical heartbeat files. Snapshot values may only
  // depend on scheduling-independent state.
  const HealthUniverse& u = universe();
  const obs::EnabledScope obs_on(true);

  const auto run_with_jobs = [&](unsigned jobs, const std::string& tag) {
    const std::string hb_file = scratch_path("det_" + tag) + ".jsonl";
    obs::ManualClock clock;
    obs::HeartbeatConfig config;
    config.file = hb_file;
    config.interval_seconds = 0.0;
    config.clock = &clock;
    config.include_process = false;
    obs::Heartbeat heartbeat(std::move(config));

    EngineConfig engine_config;
    engine_config.jobs = jobs;
    engine_config.heartbeat = &heartbeat;
    ScanEngine engine(engine_config);
    engine.run(u.request());
    heartbeat.finish();  // flush + close before reading the file back
    return slurp(hb_file);
  };

  const std::string sequential = run_with_jobs(1, "seq");
  const std::string parallel = run_with_jobs(8, "par");
  EXPECT_FALSE(sequential.empty());
  EXPECT_EQ(sequential, parallel);

  const auto lines = lines_of(sequential);
  ASSERT_GE(lines.size(), 2u);
  const auto final_snapshot = obs::json::parse(lines.back());
  ASSERT_TRUE(final_snapshot.has_value());
  const double total = final_snapshot->get("jobs").get("total").as_number();
  EXPECT_GT(total, 0.0);
  EXPECT_EQ(final_snapshot->get("jobs").get("done").as_number(), total);
}

TEST(Health, WatchdogSoftDeadlineFlagsExactlyOnce) {
  const obs::EnabledScope obs_on(true);
  const obs::EventsEnabledScope events_on(true);
  const std::uint64_t emitted0 = obs::EventLog::global().emitted();

  obs::ManualClock clock;
  obs::WatchdogConfig config;
  config.soft_deadline_seconds = 0.5;
  config.poll_interval_seconds = 0.0;  // no thread; poll() by hand
  config.clock = &clock;
  config.warn_stderr = false;
  obs::StallWatchdog watchdog(config);

  const obs::StallWatchdog::Job job =
      watchdog.job_started("detect", "CVE-0000-0001");
  watchdog.poll();
  EXPECT_EQ(watchdog.soft_flagged(), 0u);

  clock.advance(1.0);
  watchdog.poll();
  watchdog.poll();  // the flag latches: repeated sweeps must not re-warn
  watchdog.poll();
  EXPECT_EQ(watchdog.soft_flagged(), 1u);
  EXPECT_EQ(obs::EventLog::global().emitted() - emitted0, 1u);

  // No hard deadline configured: the cancel flag must never flip.
  EXPECT_EQ(watchdog.cancelled(), 0u);
  ASSERT_TRUE(job.cancel != nullptr);
  EXPECT_FALSE(job.cancel->load());
  watchdog.job_finished(job);
}

TEST(Health, WatchdogHardDeadlineSetsCooperativeCancel) {
  const obs::EnabledScope obs_on(true);
  obs::ManualClock clock;
  obs::WatchdogConfig config;
  config.soft_deadline_seconds = 0.1;
  config.hard_deadline_seconds = 0.2;
  config.poll_interval_seconds = 0.0;
  config.clock = &clock;
  config.warn_stderr = false;
  obs::StallWatchdog watchdog(config);

  const std::uint64_t soft0 =
      obs::Registry::global().counter("watchdog.soft_flags").value();
  const std::uint64_t cancel0 =
      obs::Registry::global().counter("watchdog.cancelled").value();

  const obs::StallWatchdog::Job slow =
      watchdog.job_started("detect", "CVE-0000-0002");
  const obs::StallWatchdog::Job fast =
      watchdog.job_started("analyze", "libfast");

  clock.advance(0.15);
  watchdog.job_finished(fast);  // finished before any deadline
  watchdog.poll();
  EXPECT_EQ(watchdog.soft_flagged(), 1u);
  EXPECT_EQ(watchdog.cancelled(), 0u);
  EXPECT_FALSE(slow.cancel->load());
  EXPECT_FALSE(fast.cancel->load());

  clock.advance(0.1);
  watchdog.poll();
  watchdog.poll();
  EXPECT_EQ(watchdog.cancelled(), 1u);
  EXPECT_TRUE(slow.cancel->load());
  EXPECT_FALSE(fast.cancel->load());
  watchdog.job_finished(slow);
  watchdog.poll();  // nothing in flight; counters must not move
  EXPECT_EQ(watchdog.soft_flagged(), 1u);
  EXPECT_EQ(watchdog.cancelled(), 1u);

  // The sweep also publishes registry counters for the heartbeat/export.
  EXPECT_EQ(obs::Registry::global().counter("watchdog.soft_flags").value() -
                soft0,
            1u);
  EXPECT_EQ(obs::Registry::global().counter("watchdog.cancelled").value() -
                cancel0,
            1u);
}

TEST(Health, EngineStallInjectionRecordsStalledOutcome) {
  // End-to-end: an injected stall in one detect job trips the real
  // watchdog poller, the pipeline abandons the job cooperatively, and the
  // scan records a deterministic `stalled` decision instead of hanging.
  // The injected job holds until the watchdog cancels it, and it is the
  // only job the watchdog watches, so the tight deadlines below cannot fire
  // on a healthy job of a loaded machine.
  const HealthUniverse& u = universe();
  const obs::EnabledScope obs_on(true);
  const std::string stalled_cve = u.some_cves.front();
  const std::string cache_dir = scratch_path("stall_cache");

  EngineConfig config;
  config.jobs = 2;
  config.cache_dir = cache_dir;
  config.stall_inject_label = stalled_cve;
  config.stall_inject_seconds = 60.0;  // upper bound: the cancel ends it
  config.watchdog.soft_deadline_seconds = 0.05;
  config.watchdog.hard_deadline_seconds = 0.1;
  config.watchdog.poll_interval_seconds = 0.01;
  config.watchdog.warn_stderr = false;

  const ScanReport report = ScanEngine(config).run(u.request());
  const CveScanResult* stalled_result = nullptr;
  for (const CveScanResult& result : report.results) {
    if (result.cve_id == stalled_cve) {
      stalled_result = &result;
      EXPECT_TRUE(result.stalled) << result.cve_id;
    } else {
      EXPECT_FALSE(result.stalled) << result.cve_id;
    }
  }
  ASSERT_NE(stalled_result, nullptr);
  EXPECT_NE(report.summary_text().find("stalled by watchdog"),
            std::string::npos);

  // The stalled flag survives the decision-record round trip.
  const obs::DecisionRecord record = decision_record(*stalled_result);
  EXPECT_TRUE(record.stalled);
  const std::string line = obs::decision_jsonl_line(record);
  EXPECT_NE(line.find("\"stalled\":true"), std::string::npos);
  const auto parsed = obs::parse_decision_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->stalled);
  EXPECT_NE(obs::explain_text(*parsed).find("STALLED"), std::string::npos);

  // A cancelled outcome is partial and must never be cached: a fresh engine
  // over the same cache directory, without the injected stall, has to
  // recompute and produce a clean (non-stalled) result for that CVE.
  EngineConfig clean = EngineConfig{};
  clean.jobs = 2;
  clean.cache_dir = cache_dir;
  const ScanReport second = ScanEngine(clean).run(u.request());
  for (const CveScanResult& result : second.results)
    EXPECT_FALSE(result.stalled) << result.cve_id;
}

TEST(Health, EngineRecordsPerJobResourceAccounting) {
  // CPU-time and allocation accounting flows job body -> JobEvent ->
  // JobTiming -> registry. Skip value assertions where the platform cannot
  // measure (cpu clock unsupported, allocation hook compiled out under
  // sanitizers).
  const HealthUniverse& u = universe();
  const obs::EnabledScope obs_on(true);
  obs::Registry& registry = obs::Registry::global();
  const std::uint64_t cpu0 =
      registry.histogram("engine.job_cpu_seconds.detect").count();
  const std::uint64_t allocations0 =
      registry.counter("engine.job_allocations").value();

  EngineConfig config;
  config.jobs = 2;
  std::vector<JobEvent> events;
  std::mutex events_mutex;
  const ScanReport report =
      ScanEngine(config).run(u.request(), [&](const JobEvent& event) {
        const std::lock_guard<std::mutex> lock(events_mutex);
        events.push_back(event);
      });

  ASSERT_FALSE(events.empty());
  ASSERT_EQ(events.size(), report.timings.size());
  const bool cpu_supported = obs::thread_cpu_seconds() >= 0.0;
  std::uint64_t total_allocations = 0;
  for (const JobTiming& timing : report.timings) {
    if (cpu_supported) EXPECT_GE(timing.cpu_seconds, 0.0);
    EXPECT_FALSE(timing.stalled);
    total_allocations += timing.allocations;
  }
  if (cpu_supported)
    EXPECT_EQ(registry.histogram("engine.job_cpu_seconds.detect").count() -
                  cpu0,
              u.some_cves.size());
  if (obs::allocation_counting_available()) {
    EXPECT_GT(total_allocations, 0u);
    EXPECT_EQ(registry.counter("engine.job_allocations").value() -
                  allocations0,
              total_allocations);
  }
  if (obs::process_rss_kb() > 0)
    EXPECT_GT(registry.gauge("process.rss_kb").value(), 0);
}

TEST(Health, HeartbeatRealTickerPublishesDuringThreadedRun) {
  // Real ticker thread + real watchdog poller + 8 workers: primarily a
  // TSan target (the CI race-check filter includes Health.*), but also
  // asserts the publisher makes progress on its own.
  const HealthUniverse& u = universe();
  const obs::EnabledScope obs_on(true);

  const std::string hb_file = scratch_path("ticker_hb") + ".jsonl";
  obs::HeartbeatConfig hb_config;
  hb_config.file = hb_file;
  hb_config.interval_seconds = 0.002;
  obs::Heartbeat heartbeat(std::move(hb_config));

  EngineConfig config;
  config.jobs = 8;
  config.heartbeat = &heartbeat;
  config.watchdog.soft_deadline_seconds = 60.0;  // never fires; thread runs
  config.watchdog.poll_interval_seconds = 0.002;
  ScanEngine(config).run(u.request());

  EXPECT_GE(heartbeat.snapshots_written(), 2u);
  heartbeat.finish();
  const auto lines = lines_of(slurp(hb_file));
  ASSERT_GE(lines.size(), 2u);
  for (const std::string& line : lines)
    EXPECT_TRUE(obs::json::parse(line).has_value()) << line;
}

TEST(Obs, RegistrySnapshotNeverTearsGaugePairs) {
  // Hammer one gauge from four writers while a reader snapshots: a
  // consistent snapshot must never report max < value (the reader clamps
  // because Gauge::add publishes the value before raising the high-water
  // mark).
  const obs::EnabledScope obs_on(true);
  obs::Registry registry;
  obs::Gauge& gauge = registry.gauge("tear.gauge");
  registry.counter("tear.counter");
  registry.histogram("tear.histogram");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w)
    writers.emplace_back([&gauge, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        gauge.add(+3);
        gauge.add(-3);
      }
    });

  for (int i = 0; i < 2000; ++i) {
    const obs::RegistrySnapshot snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.gauges.size(), 1u);
    ASSERT_EQ(snapshot.counters.size(), 1u);
    ASSERT_EQ(snapshot.histograms.size(), 1u);
    EXPECT_GE(snapshot.gauges[0].max, snapshot.gauges[0].value);
  }
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
}

TEST(Obs, WriteMetricsArtifactsRoutesSummaryAwayFromJsonStream) {
  // Regression test for --metrics stdout pollution: the human summary and
  // the JSON document must go to the two distinct streams they were given.
  obs::Registry registry;
  {
    const obs::EnabledScope obs_on(true);
    registry.counter("route.counter").add(7);
  }
  obs::Tracer tracer;

  std::FILE* json_stream = std::tmpfile();
  std::FILE* summary_stream = std::tmpfile();
  ASSERT_NE(json_stream, nullptr);
  ASSERT_NE(summary_stream, nullptr);
  const int status = obs::write_metrics_artifacts(
      registry, tracer, nullptr, /*file=*/"", json_stream, summary_stream);
  EXPECT_EQ(status, 0);

  const auto read_all = [](std::FILE* stream) {
    std::rewind(stream);
    std::string text;
    char buffer[4096];
    for (std::size_t n; (n = std::fread(buffer, 1, sizeof buffer, stream));)
      text.append(buffer, n);
    return text;
  };
  const std::string json_text = read_all(json_stream);
  const std::string summary_text = read_all(summary_stream);
  std::fclose(json_stream);
  std::fclose(summary_stream);

  ASSERT_FALSE(json_text.empty());
  EXPECT_EQ(json_text.front(), '{');
  EXPECT_TRUE(obs::json::parse(json_text).has_value());
  EXPECT_NE(json_text.find("route.counter"), std::string::npos);
  EXPECT_FALSE(summary_text.empty());
  EXPECT_EQ(summary_text.find('{'), std::string::npos);
  EXPECT_EQ(summary_text.rfind("metrics:", 0), 0u);
}

TEST(BenchDiff, ParsesBothSchemaGenerations) {
  std::string error;
  const auto v2 = obs::parse_bench_json(
      R"({"bench":"demo","rows":[{"name":"cold","metrics":{"seconds":1.5,)"
      R"("misses":10}}],"higher_is_better":["hit_ratio"]})",
      &error);
  ASSERT_TRUE(v2.has_value()) << error;
  EXPECT_EQ(v2->bench, "demo");
  ASSERT_EQ(v2->rows.size(), 1u);
  ASSERT_NE(v2->rows[0].find("seconds"), nullptr);
  EXPECT_DOUBLE_EQ(*v2->rows[0].find("seconds"), 1.5);
  EXPECT_EQ(v2->higher_is_better.count("hit_ratio"), 1u);

  // v1: numeric row members become metrics.
  const auto v1 = obs::parse_bench_json(
      R"({"bench":"obs","rows":[{"name":"counter.add","enabled_ns":2.1,)"
      R"("disabled_ns":0.4}]})",
      &error);
  ASSERT_TRUE(v1.has_value()) << error;
  ASSERT_EQ(v1->rows.size(), 1u);
  ASSERT_NE(v1->rows[0].find("enabled_ns"), nullptr);
  EXPECT_DOUBLE_EQ(*v1->rows[0].find("enabled_ns"), 2.1);
  ASSERT_NE(v1->rows[0].find("disabled_ns"), nullptr);

  EXPECT_FALSE(obs::parse_bench_json("not json", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(obs::load_bench_file("/nonexistent/BENCH_x.json", &error)
                   .has_value());
}

TEST(BenchDiff, ClassifiesDeltasAgainstToleranceBands) {
  std::string error;
  const auto old_file = obs::parse_bench_json(
      R"({"bench":"b","rows":[{"name":"r","metrics":{"seconds":1.0,)"
      R"("accuracy":0.9,"gone":5.0,"steady":2.0}}]})",
      &error);
  const auto new_file = obs::parse_bench_json(
      R"({"bench":"b","rows":[{"name":"r","metrics":{"seconds":1.5,)"
      R"("accuracy":0.5,"fresh":1.0,"steady":2.1}}]})",
      &error);
  ASSERT_TRUE(old_file.has_value());
  ASSERT_TRUE(new_file.has_value());

  obs::BenchFile newer = *new_file;
  newer.higher_is_better.insert("accuracy");
  const obs::BenchDiff diff =
      obs::diff_bench(*old_file, newer, obs::Tolerance{0.25, 0.0});

  const auto status_of = [&](const std::string& metric) {
    for (const obs::MetricDelta& delta : diff.deltas)
      if (delta.metric == metric) return delta.status;
    return obs::DeltaStatus::ok;
  };
  // seconds 1.0 -> 1.5 is +50% on a lower-is-better metric: regression.
  EXPECT_EQ(status_of("seconds"), obs::DeltaStatus::regressed);
  // accuracy 0.9 -> 0.5 drops on a higher-is-better metric: regression.
  EXPECT_EQ(status_of("accuracy"), obs::DeltaStatus::regressed);
  // steady 2.0 -> 2.1 is +5%: inside the 25% band.
  EXPECT_EQ(status_of("steady"), obs::DeltaStatus::ok);
  EXPECT_EQ(status_of("gone"), obs::DeltaStatus::removed);
  EXPECT_EQ(status_of("fresh"), obs::DeltaStatus::added);
  EXPECT_EQ(diff.regressions, 2u);

  const std::string table = obs::render_diff_table(diff);
  EXPECT_NE(table.find("REGRESSED"), std::string::npos);
  EXPECT_NE(table.find("result: 2 regression(s)"), std::string::npos);

  // Identical inputs: zero regressions, every delta ok.
  const obs::BenchDiff same =
      obs::diff_bench(*old_file, *old_file, obs::Tolerance{});
  EXPECT_EQ(same.regressions, 0u);
  for (const obs::MetricDelta& delta : same.deltas)
    EXPECT_EQ(delta.status, obs::DeltaStatus::ok);
  EXPECT_NE(obs::render_diff_table(same).find("result: ok"),
            std::string::npos);

  // An improvement beyond the band exits clean but is labeled.
  obs::BenchFile faster = *old_file;
  for (auto& [key, value] : faster.rows[0].metrics)
    if (key == "seconds") value = 0.1;
  const obs::BenchDiff improved =
      obs::diff_bench(*old_file, faster, obs::Tolerance{0.25, 0.0});
  EXPECT_EQ(improved.regressions, 0u);
  EXPECT_EQ(improved.improvements, 1u);

  // A wide absolute band absorbs what the relative band flags.
  const obs::BenchDiff absorbed =
      obs::diff_bench(*old_file, newer, obs::Tolerance{0.0, 10.0});
  EXPECT_EQ(absorbed.regressions, 0u);
}

TEST(BenchDiff, ResourceSamplingHelpersAreMonotonic) {
  const obs::ResourceSample before = obs::resource_sample();
  std::vector<std::unique_ptr<int>> junk;
  for (int i = 0; i < 64; ++i) junk.push_back(std::make_unique<int>(i));
  const obs::ResourceSample after = obs::resource_sample();
  const obs::ResourceSample delta = obs::resource_delta(before, after);
  EXPECT_GE(delta.cpu_seconds, 0.0);
  if (obs::allocation_counting_available() && obs::enabled())
    EXPECT_GT(delta.allocations, 0u);
  // Either unsupported (-1) or a sane positive value; peak >= current.
  const std::int64_t rss = obs::process_rss_kb();
  const std::int64_t peak = obs::process_peak_rss_kb();
  if (rss > 0 && peak > 0) EXPECT_GE(peak, rss);
}

}  // namespace
}  // namespace patchecko
