// Tests for the persistent scan service: wire framing (including the
// oversized-skip and fuzz robustness contracts), request parsing, admission
// backpressure, corpus hot reload, and the end-to-end daemon — concurrent
// clients over a real Unix-domain socket receiving byte-identical reports
// to the one-shot engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "blob/blob_store.h"
#include "dl/trainer.h"
#include "engine/corpus_store.h"
#include "engine/engine.h"
#include "firmware/firmware.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "service/admission.h"
#include "service/client.h"
#include "service/image_tier.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/signals.h"
#include "service/top.h"

namespace patchecko {
namespace {

namespace svc = patchecko::service;
namespace json = patchecko::obs::json;

// --- framing ---------------------------------------------------------------

TEST(Service, FrameRoundTripAcrossArbitrarySplits) {
  const std::vector<std::string> payloads = {"", "{}", "{\"type\":\"ping\"}",
                                             std::string(1000, 'x')};
  std::string stream;
  for (const std::string& payload : payloads)
    stream += svc::encode_frame(payload);
  // Feed the byte stream in every chunk size; framing must not care.
  for (std::size_t chunk = 1; chunk <= 7; ++chunk) {
    svc::FrameReader reader;
    std::vector<std::string> decoded;
    for (std::size_t i = 0; i < stream.size(); i += chunk) {
      reader.push(stream.data() + i, std::min(chunk, stream.size() - i));
      std::string payload;
      while (reader.next(payload) == svc::FrameStatus::ok)
        decoded.push_back(payload);
    }
    EXPECT_EQ(decoded, payloads) << "chunk size " << chunk;
  }
}

TEST(Service, OversizedFrameIsSkippedNotFatal) {
  svc::FrameReader reader(/*max_frame_bytes=*/16);
  const std::string big(100, 'A');
  reader.push(svc::encode_frame(big));
  reader.push(svc::encode_frame("{\"ok\":true}"));

  std::string payload;
  std::uint64_t dropped = 0;
  // The oversized frame surfaces exactly once, with its declared size...
  EXPECT_EQ(reader.next(payload, &dropped), svc::FrameStatus::oversized);
  EXPECT_EQ(dropped, 100u);
  // ...and the connection stays framed: the next frame decodes normally.
  EXPECT_EQ(reader.next(payload, &dropped), svc::FrameStatus::ok);
  EXPECT_EQ(payload, "{\"ok\":true}");
  EXPECT_EQ(reader.next(payload, &dropped), svc::FrameStatus::need_more);
}

TEST(Service, OversizedFrameReportsBeforePayloadArrives) {
  // Only the header of a 1 MiB frame has arrived: the reader must already
  // report it (so the session can answer 413) and then silently discard the
  // payload as it trickles in.
  svc::FrameReader reader(/*max_frame_bytes=*/64);
  const std::string frame = svc::encode_frame(std::string(1 << 20, 'z'));
  reader.push(frame.data(), svc::kLengthPrefixBytes);
  std::string payload;
  std::uint64_t dropped = 0;
  EXPECT_EQ(reader.next(payload, &dropped), svc::FrameStatus::oversized);
  EXPECT_EQ(dropped, static_cast<std::uint64_t>(1 << 20));
  std::size_t offset = svc::kLengthPrefixBytes;
  while (offset < frame.size()) {
    const std::size_t chunk = std::min<std::size_t>(4096, frame.size() - offset);
    reader.push(frame.data() + offset, chunk);
    offset += chunk;
    EXPECT_EQ(reader.next(payload), svc::FrameStatus::need_more);
  }
  reader.push(svc::encode_frame("after"));
  EXPECT_EQ(reader.next(payload), svc::FrameStatus::ok);
  EXPECT_EQ(payload, "after");
}

TEST(Service, FrameFuzzNeverYieldsOversizedPayload) {
  // Deterministic fuzz: random bytes (occasionally valid frames) pushed in
  // random chunk sizes. The reader must never throw, never loop forever,
  // and never hand back a payload above the configured maximum.
  std::mt19937 rng(0xF2A77);
  constexpr std::size_t kMax = 512;
  for (int round = 0; round < 50; ++round) {
    svc::FrameReader reader(kMax);
    std::string stream;
    for (int piece = 0; piece < 20; ++piece) {
      if (rng() % 3 == 0) {
        stream += svc::encode_frame(std::string(rng() % (2 * kMax), 'p'));
      } else {
        std::string garbage(rng() % 64, '\0');
        for (char& byte : garbage) byte = static_cast<char>(rng() & 0xFF);
        stream += garbage;
      }
    }
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng() % 97, stream.size() - offset);
      reader.push(stream.data() + offset, chunk);
      offset += chunk;
      std::string payload;
      for (int guard = 0; guard < 10000; ++guard) {
        const svc::FrameStatus status = reader.next(payload);
        if (status == svc::FrameStatus::need_more) break;
        if (status == svc::FrameStatus::ok) EXPECT_LE(payload.size(), kMax);
      }
    }
  }
}

// --- request parsing -------------------------------------------------------

TEST(Service, ParseRequestRejectsStructurallyInvalidPayloads) {
  std::string error;
  EXPECT_FALSE(svc::parse_request("not json", &error));
  EXPECT_EQ(error, "malformed JSON payload");
  EXPECT_FALSE(svc::parse_request("[1,2]", &error));
  EXPECT_FALSE(svc::parse_request("{\"no_type\":1}", &error));
  EXPECT_FALSE(svc::parse_request("{\"type\":\"scan\"}", &error));
  EXPECT_NE(error.find("firmware"), std::string::npos);
  EXPECT_FALSE(svc::parse_request(
      "{\"type\":\"scan\",\"firmware\":\"fw\",\"cves\":\"CVE-1\"}", &error));
  EXPECT_FALSE(svc::parse_request("{\"type\":\"status\"}", &error));
  EXPECT_FALSE(
      svc::parse_request("{\"type\":\"status\",\"request_id\":-3}", &error));
  EXPECT_FALSE(
      svc::parse_request("{\"type\":\"reload\",\"scale\":0}", &error));
}

TEST(Service, ParseRequestRejectsAnEmptyCveId) {
  // An empty id selects no CVE: a bad request, not "scan nothing".
  std::string error;
  EXPECT_FALSE(svc::parse_request(
      svc::scan_request_json("fw.img", {"CVE-A", ""}, false), &error));
  EXPECT_NE(error.find("cves"), std::string::npos);
  EXPECT_TRUE(svc::parse_request(
      svc::scan_request_json("fw.img", {}, false), &error));
}

TEST(Service, ParseRequestKeepsUnknownTypesForStructuredErrors) {
  std::string error;
  const auto request = svc::parse_request("{\"type\":\"frobnicate\"}", &error);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->type, svc::RequestType::unknown);
  EXPECT_EQ(request->raw_type, "frobnicate");
}

TEST(Service, ParseRequestRoundTripsBuilders) {
  std::string error;
  const auto scan = svc::parse_request(
      svc::scan_request_json("fw.img", {"CVE-A", "CVE-B"}, true), &error);
  ASSERT_TRUE(scan.has_value()) << error;
  EXPECT_EQ(scan->type, svc::RequestType::scan);
  EXPECT_EQ(scan->firmware, "fw.img");
  EXPECT_EQ(scan->cve_ids, (std::vector<std::string>{"CVE-A", "CVE-B"}));
  EXPECT_TRUE(scan->want_provenance);

  const auto status = svc::parse_request(svc::status_request_json(42), &error);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->type, svc::RequestType::status);
  EXPECT_EQ(status->request_id, 42u);

  const auto reload =
      svc::parse_request(svc::reload_request_json(0.5, 7), &error);
  ASSERT_TRUE(reload.has_value());
  ASSERT_TRUE(reload->scale.has_value());
  EXPECT_DOUBLE_EQ(*reload->scale, 0.5);
  ASSERT_TRUE(reload->seed.has_value());
  EXPECT_EQ(*reload->seed, 7u);

  const auto stats = svc::parse_request(svc::stats_request_json(), &error);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->type, svc::RequestType::stats);

  const auto profile =
      svc::parse_request(svc::profile_request_json(2.5), &error);
  ASSERT_TRUE(profile.has_value()) << error;
  EXPECT_EQ(profile->type, svc::RequestType::profile);
  EXPECT_DOUBLE_EQ(profile->profile_seconds, 2.5);

  // Bare profile request: defaults apply.
  const auto bare = svc::parse_request("{\"type\":\"profile\"}", &error);
  ASSERT_TRUE(bare.has_value());
  EXPECT_DOUBLE_EQ(bare->profile_seconds, 1.0);
}

// The literal was captured from the per-byte string escaper that the
// run-appending one replaced. The report holds every escape class: quotes,
// a backslash, control characters with and without a short form, UTF-8
// (copied through) and DEL (not a control character in JSON).
TEST(Service, ResultResponseGolden) {
  svc::ResultInfo info;
  info.request_id = 9;
  info.corpus_version = 3;
  info.seconds = 0.1;
  info.cache_hits = 25;
  info.report =
      "== \"q\" \\ path\x01\x1f\r\b\f\n\tcaf\xc3\xa9 \xe2\x86\x92 "
      "\xf0\x9f\x94\x92\x7f";
  info.summary = "1 CVE\n";
  info.provenance = "{\"a\":\"b\\\\c\"}\n";
  const std::string frame = svc::result_response(info);
  EXPECT_EQ(frame,
            "{\"type\":\"result\",\"request_id\":9,\"status\":\"ok\","
            "\"corpus_version\":3,\"interrupted\":false,"
            "\"seconds\":0.10000000000000001,"
            "\"cache\":{\"hits\":25,\"misses\":0},"
            "\"report\":\"== \\\"q\\\" \\\\ path\\u0001\\u001f\\u000d\\u0008"
            "\\u000c\\n\\tcaf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x94\x92\x7f\","
            "\"summary\":\"1 CVE\\n\","
            "\"provenance\":\"{\\\"a\\\":\\\"b\\\\\\\\c\\\"}\\n\"}");
  const auto parsed = json::parse(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get("report").as_string(), info.report);
  EXPECT_EQ(parsed->get("provenance").as_string(), info.provenance);
}

TEST(Service, ParseRequestBoundsProfileCaptures) {
  // Duration is clamped at parse time: a typo must never park a daemon
  // session thread for an hour.
  std::string error;
  EXPECT_FALSE(
      svc::parse_request("{\"type\":\"profile\",\"seconds\":0}", &error));
  EXPECT_NE(error.find("seconds"), std::string::npos);
  EXPECT_FALSE(
      svc::parse_request("{\"type\":\"profile\",\"seconds\":301}", &error));
  EXPECT_FALSE(
      svc::parse_request("{\"type\":\"profile\",\"seconds\":-1}", &error));
  // An older client's sampler rate is ignored like any unknown key.
  const auto old_client = svc::parse_request(
      "{\"type\":\"profile\",\"seconds\":2,\"hz\":0}", &error);
  ASSERT_TRUE(old_client.has_value()) << error;
  EXPECT_DOUBLE_EQ(old_client->profile_seconds, 2.0);
}

TEST(Service, ParseRequestHandlesClientSuppliedScanIds) {
  std::string error;
  // Omitted id: the server assigns one.
  const auto anonymous = svc::parse_request(
      svc::scan_request_json("fw.img", {}, false), &error);
  ASSERT_TRUE(anonymous.has_value()) << error;
  EXPECT_FALSE(anonymous->has_request_id);

  // Client-named scan round-trips through the builder.
  const auto named = svc::parse_request(
      svc::scan_request_json("fw.img", {}, false, /*request_id=*/77), &error);
  ASSERT_TRUE(named.has_value()) << error;
  EXPECT_TRUE(named->has_request_id);
  EXPECT_EQ(named->request_id, 77u);

  // Zero and negative ids are structurally invalid (0 means "assign one"
  // and is only expressible by omission).
  EXPECT_FALSE(svc::parse_request(
      "{\"type\":\"scan\",\"firmware\":\"fw\",\"request_id\":0}", &error));
  EXPECT_FALSE(svc::parse_request(
      "{\"type\":\"scan\",\"firmware\":\"fw\",\"request_id\":-4}", &error));
  EXPECT_FALSE(svc::parse_request(
      "{\"type\":\"scan\",\"firmware\":\"fw\",\"request_id\":\"nine\"}",
      &error));
}

// --- admission -------------------------------------------------------------

TEST(Service, AdmissionQueueBoundsAndDrains) {
  svc::AdmissionQueue queue(2);
  auto pending = [](std::uint64_t id) {
    svc::PendingScan scan;
    scan.id = id;
    scan.respond = [](const std::string&) {};
    return scan;
  };
  EXPECT_TRUE(queue.try_admit(pending(1)));
  EXPECT_TRUE(queue.try_admit(pending(2)));
  EXPECT_FALSE(queue.try_admit(pending(3)));  // full => backpressure
  svc::AdmissionStats stats = queue.stats();
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);

  const auto first = queue.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 1u);  // FIFO
  EXPECT_TRUE(queue.try_admit(pending(4)));  // slot freed by next()
  queue.job_done();
  const auto second = queue.next();
  const auto third = queue.next();
  ASSERT_TRUE(second && third);
  queue.job_done();
  queue.job_done();
  queue.wait_idle();  // returns immediately: nothing queued or active

  queue.close();
  EXPECT_FALSE(queue.try_admit(pending(5)));
  EXPECT_FALSE(queue.next().has_value());  // closed and empty
  stats = queue.stats();
  EXPECT_EQ(stats.completed, 3u);
}

TEST(Service, AdmissionQueueWakesBlockedDispatcher) {
  svc::AdmissionQueue queue(4);
  std::optional<std::uint64_t> seen;
  std::thread dispatcher([&] {
    const auto scan = queue.next();  // blocks until admit or close
    if (scan) {
      seen = scan->id;
      queue.job_done();
    }
  });
  svc::PendingScan scan;
  scan.id = 9;
  scan.respond = [](const std::string&) {};
  EXPECT_TRUE(queue.try_admit(std::move(scan)));
  dispatcher.join();
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(*seen, 9u);
}

// --- corpus store ----------------------------------------------------------

TEST(Service, CorpusStoreReloadSwapsWithoutInvalidatingReaders) {
  EvalConfig eval;
  eval.scale = 0.02;
  CorpusStore store(eval);
  const auto first = store.current();
  EXPECT_EQ(first->version, 1u);

  EvalConfig next = eval;
  next.seed = eval.seed + 1;
  const auto second = store.reload(next);
  EXPECT_EQ(second->version, 2u);
  EXPECT_EQ(store.current().get(), second.get());
  // The old generation stays fully usable for captured readers.
  EXPECT_EQ(first->version, 1u);
  EXPECT_FALSE(first->database.entries().empty());
  EXPECT_EQ(first->eval.seed, eval.seed);
}

// --- signals ---------------------------------------------------------------

TEST(Service, SignalHandlersFlipFlagsWithoutKillingTheProcess) {
  svc::install_signal_handlers(/*with_sighup=*/true);
  svc::reset_signal_flags();
  EXPECT_FALSE(svc::consume_reload_request());
  std::raise(SIGHUP);
  EXPECT_TRUE(svc::consume_reload_request());
  EXPECT_FALSE(svc::consume_reload_request());  // one delivery, one consume
  EXPECT_FALSE(svc::interrupt_flag().load());
  std::raise(SIGTERM);
  EXPECT_TRUE(svc::interrupt_flag().load());
  EXPECT_EQ(svc::interrupt_signal(), SIGTERM);
  svc::reset_signal_flags();
}

// --- end-to-end daemon -----------------------------------------------------

/// Shared universe for the socket-level tests: a lightly trained model, a
/// scaled-down corpus/firmware saved to disk, and the one-shot engine's
/// canonical report to byte-compare service results against.
struct ServiceUniverse {
  SimilarityModel model;
  EvalConfig eval;
  std::unique_ptr<EvalCorpus> corpus;
  std::unique_ptr<CveDatabase> database;
  std::filesystem::path image_dir;
  std::string firmware_path;
  std::vector<std::string> some_cves;
  std::string expected_report;  ///< one-shot canonical_text for some_cves

  ServiceUniverse() {
    TrainerConfig trainer;
    trainer.dataset.library_count = 16;
    trainer.dataset.functions_per_library = 12;
    trainer.epochs = 6;
    model = train_similarity_model(trainer).model;

    eval.scale = 0.03;
    corpus = std::make_unique<EvalCorpus>(eval);
    database = std::make_unique<CveDatabase>(*corpus, DatabaseConfig{});
    const FirmwareImage firmware =
        corpus->build_firmware(android_things_device());
    for (const CveEntry& entry : database->entries()) {
      if (some_cves.size() == 4) break;
      some_cves.push_back(entry.spec.cve_id);
    }

    // One directory per process: ctest -j runs each test in its own process
    // and they would otherwise rewrite one shared image under each other.
    image_dir = std::filesystem::temp_directory_path() /
                ("pk_service_universe_" + std::to_string(::getpid()));
    std::filesystem::remove_all(image_dir);
    std::filesystem::create_directories(image_dir);
    firmware_path = (image_dir / "fw.img").string();
    if (!save_firmware(firmware, firmware_path))
      throw std::runtime_error("cannot save test firmware");
    expected_report = one_shot_report(firmware);
  }

  /// The one-shot engine's canonical report of `firmware` for some_cves.
  std::string one_shot_report(const FirmwareImage& firmware) const {
    ScanEngine engine(EngineConfig{});
    ScanRequest request;
    request.model = &model;
    request.firmware = &firmware;
    request.database = database.get();
    request.cve_ids = some_cves;
    return engine.run(request).canonical_text();
  }

  ~ServiceUniverse() {
    std::error_code ignored;
    std::filesystem::remove_all(image_dir, ignored);
  }

  svc::ServiceConfig service_config(const std::string& name) const {
    svc::ServiceConfig config;
    const auto dir =
        std::filesystem::temp_directory_path() / ("pk_service_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    config.socket_path = (dir / "svc.sock").string();
    config.model = &model;
    config.eval = eval;
    config.engine.jobs = 2;
    return config;
  }
};

const ServiceUniverse& universe() {
  static ServiceUniverse instance;
  return instance;
}

json::Value parsed(const std::string& payload) {
  const auto doc = json::parse(payload);
  EXPECT_TRUE(doc.has_value()) << payload;
  return doc.value_or(json::Value());
}

/// Submits one scan of `firmware` and returns the result payload (expects
/// accepted first).
std::optional<std::string> submit_image(svc::ServiceClient& client,
                                        const std::string& firmware,
                                        const std::vector<std::string>& cves,
                                        bool want_provenance = false) {
  if (!client.send(svc::scan_request_json(firmware, cves, want_provenance)))
    return std::nullopt;
  const auto first = client.receive();
  if (!first) return std::nullopt;
  if (parsed(*first).get("type").as_string() != "accepted") return first;
  return client.receive();
}

/// submit_image of the universe's firmware.
std::optional<std::string> submit_scan(svc::ServiceClient& client,
                                       const std::vector<std::string>& cves,
                                       bool want_provenance = false) {
  return submit_image(client, universe().firmware_path, cves,
                      want_provenance);
}

/// The `images` block of a `health` response.
json::Value image_tier_health(svc::ServiceClient& client) {
  const auto health = client.call(svc::health_request_json());
  EXPECT_TRUE(health.has_value());
  return parsed(health.value_or("{}")).get("images");
}

TEST(Service, ScanOverUnixSocketMatchesOneShotReportByteForByte) {
  const ServiceUniverse& env = universe();
  svc::ScanService service(env.service_config("identity"));
  service.start();
  auto client = svc::ServiceClient::connect_unix(
      service.config().socket_path);
  ASSERT_TRUE(client.connected());

  const auto result = submit_scan(client, env.some_cves,
                                  /*want_provenance=*/true);
  ASSERT_TRUE(result.has_value());
  const json::Value doc = parsed(*result);
  EXPECT_EQ(doc.get("type").as_string(), "result");
  EXPECT_EQ(doc.get("report").as_string(), env.expected_report);
  EXPECT_EQ(doc.get("corpus_version").as_number(), 1.0);
  EXPECT_FALSE(doc.get("interrupted").as_bool(true));
  EXPECT_FALSE(doc.get("provenance").as_string().empty());

  // A repeat submission is served from the resident result cache.
  const auto repeat = submit_scan(client, env.some_cves);
  ASSERT_TRUE(repeat.has_value());
  const json::Value repeat_doc = parsed(*repeat);
  EXPECT_EQ(repeat_doc.get("report").as_string(), env.expected_report);
  EXPECT_GT(repeat_doc.get("cache").get("hits").as_number(), 0.0);
  service.stop();
}

TEST(Service, WarmRequestsReuseRetainedRetrievalIndexes) {
  // Every request loads the image afresh, but the engine's memory tier
  // keeps each library's retrieval index beside its features. A request
  // whose CVE entries all hit needs no index; one whose CVE misses its
  // entry takes the retained index: after the first request, the health
  // block's retrieval.index_builds stays flat and every report is
  // byte-identical to a one-shot scan's. (perfbench's traced replay builds
  // on a fresh AnalyzedLibrary, so this counter, not its
  // retrieval.index_build_s, is what shows the reuse.)
  const ServiceUniverse& env = universe();
  const obs::EnabledScope obs_on(true);
  svc::ServiceConfig config = env.service_config("index_reuse");
  config.engine.pipeline.prefilter_mode = retrieval::PrefilterMode::on;
  config.engine.pipeline.prefilter_min_total = 0;
  svc::ScanService service(config);
  service.start();
  auto client =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(client.connected());
  const auto index_builds = [&client] {
    const auto health = client.call(svc::health_request_json());
    EXPECT_TRUE(health.has_value());
    return parsed(health.value_or("{}"))
        .get("retrieval")
        .get("index_builds")
        .as_number(-1.0);
  };
  const std::optional<FirmwareImage> firmware =
      load_firmware(env.firmware_path);
  ASSERT_TRUE(firmware.has_value());
  const auto one_shot = [&](const std::vector<std::string>& cves) {
    ScanRequest request;
    request.model = &env.model;
    request.firmware = &*firmware;
    request.database = env.database.get();
    request.cve_ids = cves;
    return ScanEngine(config.engine).run(request).canonical_text();
  };

  // The first request leaves out one CVE whose library it still analyzes.
  ASSERT_GE(env.some_cves.size(), 2u);
  const std::string held_out = env.some_cves[1];
  ASSERT_EQ(env.database->by_id(held_out).spec.library,
            env.database->by_id(env.some_cves[0]).spec.library);
  std::vector<std::string> first = env.some_cves;
  first.erase(first.begin() + 1);
  // One-shot scans build indexes too, and the counter is process-wide:
  // take every expected report before the first request.
  const std::string first_report = one_shot(first);
  const std::string held_out_report = one_shot({held_out});
  const std::string expected = one_shot(env.some_cves);
  const auto cold = submit_scan(client, first);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(parsed(*cold).get("report").as_string(), first_report);
  const double warmed_builds = index_builds();
  EXPECT_GT(warmed_builds, 0.0);

  const auto missed = submit_scan(client, {held_out});
  ASSERT_TRUE(missed.has_value());
  EXPECT_EQ(parsed(*missed).get("cache").get("misses").as_number(), 1.0);
  EXPECT_EQ(parsed(*missed).get("report").as_string(), held_out_report);
  EXPECT_EQ(index_builds(), warmed_builds) << "entry-miss request";

  for (int i = 0; i < 3; ++i) {
    const auto warm = submit_scan(client, env.some_cves);
    ASSERT_TRUE(warm.has_value());
    EXPECT_EQ(parsed(*warm).get("report").as_string(), expected);
    EXPECT_EQ(index_builds(), warmed_builds) << "warm request " << i;
  }
  service.stop();
}

TEST(Service, FourConcurrentClientsGetIdenticalReports) {
  const ServiceUniverse& env = universe();
  svc::ServiceConfig config = env.service_config("concurrent");
  config.dispatchers = 2;
  config.queue_limit = 16;
  svc::ScanService service(config);
  service.start();

  constexpr int kClients = 4;
  std::vector<std::string> reports(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      auto client =
          svc::ServiceClient::connect_unix(service.config().socket_path);
      if (!client.connected()) return;
      const auto result = submit_scan(client, env.some_cves);
      if (result) reports[i] = parsed(*result).get("report").as_string();
    });
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kClients; ++i)
    EXPECT_EQ(reports[i], env.expected_report) << "client " << i;
  // Both dispatchers race to file the one image: whichever decoded it, one
  // copy is resident and every request counts once.
  auto client =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  const json::Value images = image_tier_health(client);
  EXPECT_EQ(images.get("entries").as_number(), 1.0);
  EXPECT_EQ(images.get("hits").as_number() + images.get("misses").as_number(),
            static_cast<double>(kClients));
  service.stop();
}

TEST(Service, SaturatedQueueRejectsWithBackpressureError) {
  const ServiceUniverse& env = universe();
  svc::ServiceConfig config = env.service_config("backpressure");
  config.queue_limit = 1;
  config.dispatchers = 1;
  config.scan_delay_seconds = 0.25;  // hold the dispatcher so the queue fills
  svc::ScanService service(config);
  service.start();

  auto first = svc::ServiceClient::connect_unix(service.config().socket_path);
  auto second = svc::ServiceClient::connect_unix(service.config().socket_path);
  auto third = svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(first.connected() && second.connected() && third.connected());

  ASSERT_TRUE(first.send(
      svc::scan_request_json(env.firmware_path, env.some_cves, false)));
  ASSERT_EQ(parsed(first.receive().value_or("")).get("type").as_string(),
            "accepted");
  // Wait until the dispatcher owns request 1, so the single queue slot is
  // provably free for request 2 and provably full for request 3.
  for (int i = 0; i < 200 && service.health().queue.active == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(service.health().queue.active, 1u);

  ASSERT_TRUE(second.send(
      svc::scan_request_json(env.firmware_path, env.some_cves, false)));
  ASSERT_EQ(parsed(second.receive().value_or("")).get("type").as_string(),
            "accepted");

  ASSERT_TRUE(third.send(
      svc::scan_request_json(env.firmware_path, env.some_cves, false)));
  const json::Value reject = parsed(third.receive().value_or(""));
  EXPECT_EQ(reject.get("type").as_string(), "error");
  EXPECT_EQ(reject.get("code").as_number(), 429.0);

  // The admitted scans still complete with correct bytes.
  const auto result1 = first.receive();
  const auto result2 = second.receive();
  ASSERT_TRUE(result1 && result2);
  EXPECT_EQ(parsed(*result1).get("report").as_string(), env.expected_report);
  EXPECT_EQ(parsed(*result2).get("report").as_string(), env.expected_report);
  EXPECT_GE(service.health().queue.rejected, 1u);
  service.stop();
}

TEST(Service, CorpusReloadMidScanDropsNoInFlightJobs) {
  const ServiceUniverse& env = universe();
  svc::ServiceConfig config = env.service_config("reload");
  config.dispatchers = 2;
  config.queue_limit = 8;
  config.scan_delay_seconds = 0.1;  // guarantee scans are in flight
  svc::ScanService service(config);
  service.start();

  constexpr int kScans = 4;
  std::vector<svc::ServiceClient> clients;
  for (int i = 0; i < kScans; ++i) {
    clients.push_back(
        svc::ServiceClient::connect_unix(service.config().socket_path));
    ASSERT_TRUE(clients.back().connected());
    ASSERT_TRUE(clients.back().send(
        svc::scan_request_json(env.firmware_path, env.some_cves, false)));
    ASSERT_EQ(
        parsed(clients.back().receive().value_or("")).get("type").as_string(),
        "accepted");
  }

  // Hot-swap the corpus while the scans above are dispatched/queued.
  auto control =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(control.connected());
  const auto reloaded =
      control.call(svc::reload_request_json(std::nullopt, std::nullopt));
  ASSERT_TRUE(reloaded.has_value());
  const json::Value reload_doc = parsed(*reloaded);
  EXPECT_EQ(reload_doc.get("type").as_string(), "reloaded");
  EXPECT_EQ(reload_doc.get("corpus_version").as_number(), 2.0);

  // Zero dropped jobs: every scan yields a full result (under either
  // generation — both are built from the same EvalConfig, so the report
  // bytes are identical too).
  for (int i = 0; i < kScans; ++i) {
    const auto result = clients[i].receive();
    ASSERT_TRUE(result.has_value()) << "scan " << i << " was dropped";
    const json::Value doc = parsed(*result);
    EXPECT_EQ(doc.get("type").as_string(), "result") << *result;
    EXPECT_EQ(doc.get("report").as_string(), env.expected_report);
    const double version = doc.get("corpus_version").as_number();
    EXPECT_TRUE(version == 1.0 || version == 2.0);
  }
  EXPECT_EQ(service.health().corpus_version, 2u);
  service.stop();
}

TEST(Service, PrefilteredReloadMidScanDropsNoJobsAndReportsIndexHealth) {
  // Same hot-reload contract as above, but with the retrieval prefilter
  // live: the new snapshot swaps in a freshly built query catalog while
  // shortlist-scanning jobs are in flight, and every admitted scan still
  // returns the byte-identical exact-scan report (the shortlist keeps every
  // exact candidate on this corpus — asserted at the engine layer).
  const ServiceUniverse& env = universe();
  svc::ServiceConfig config = env.service_config("prefilter_reload");
  config.dispatchers = 2;
  config.queue_limit = 8;
  config.scan_delay_seconds = 0.1;  // guarantee scans are in flight
  config.engine.pipeline.prefilter_mode = retrieval::PrefilterMode::on;
  config.engine.pipeline.prefilter_min_total = 0;
  svc::ScanService service(config);
  service.start();

  // Health reports the resident catalog before any scan runs.
  const svc::ServiceHealth boot = service.health();
  EXPECT_GT(boot.retrieval_query_codes, 0u);
  const std::string health = service.health_json();
  EXPECT_NE(health.find("\"retrieval\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"query_codes\""), std::string::npos);

  constexpr int kScans = 4;
  std::vector<svc::ServiceClient> clients;
  for (int i = 0; i < kScans; ++i) {
    clients.push_back(
        svc::ServiceClient::connect_unix(service.config().socket_path));
    ASSERT_TRUE(clients.back().connected());
    ASSERT_TRUE(clients.back().send(
        svc::scan_request_json(env.firmware_path, env.some_cves, false)));
    ASSERT_EQ(
        parsed(clients.back().receive().value_or("")).get("type").as_string(),
        "accepted");
  }

  auto control =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(control.connected());
  const auto reloaded =
      control.call(svc::reload_request_json(std::nullopt, std::nullopt));
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(parsed(*reloaded).get("type").as_string(), "reloaded");

  for (int i = 0; i < kScans; ++i) {
    const auto result = clients[i].receive();
    ASSERT_TRUE(result.has_value()) << "scan " << i << " was dropped";
    const json::Value doc = parsed(*result);
    EXPECT_EQ(doc.get("type").as_string(), "result") << *result;
    EXPECT_EQ(doc.get("report").as_string(), env.expected_report);
  }
  EXPECT_EQ(service.health().corpus_version, 2u);
  // The reload rebuilt the catalog for the new generation.
  EXPECT_GT(service.health().retrieval_query_codes, 0u);
  service.stop();
}

// --- image tier ------------------------------------------------------------

/// A per-test directory for image files the test rewrites.
std::filesystem::path image_test_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pk_service_images_" + name + "_" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The decision lines of a provenance capture (the meta line names the
/// request, so it differs per request by design).
std::string decision_lines(const std::string& provenance) {
  return provenance.substr(provenance.find('\n') + 1);
}

TEST(Service, ImageTierServesARepeatedImageWithoutDecoding) {
  // The digest pass runs on every request and the decode only on the miss;
  // the decode keys every library, so nothing runs digest_library.
  const ServiceUniverse& env = universe();
  const obs::EnabledScope obs_on(true);
  obs::Registry& registry = obs::Registry::global();
  const std::uint64_t hits0 = registry.counter("service.image_hits").value();
  const std::uint64_t misses0 =
      registry.counter("service.image_misses").value();
  obs::Tracer::global().clear();
  svc::ScanService service(env.service_config("image_hit"));
  service.start();
  auto client =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(client.connected());
  const double image_bytes =
      static_cast<double>(std::filesystem::file_size(env.firmware_path));

  const auto miss = submit_scan(client, env.some_cves, true);
  ASSERT_TRUE(miss.has_value());
  json::Value images = image_tier_health(client);
  EXPECT_EQ(images.get("misses").as_number(), 1.0);
  EXPECT_EQ(images.get("hits").as_number(), 0.0);
  EXPECT_EQ(images.get("entries").as_number(), 1.0);
  EXPECT_EQ(images.get("capacity").as_number(),
            static_cast<double>(svc::ImageTier::kCapacity));
  EXPECT_EQ(images.get("bytes").as_number(), image_bytes);

  const auto hit = submit_scan(client, env.some_cves, true);
  ASSERT_TRUE(hit.has_value());
  images = image_tier_health(client);
  EXPECT_EQ(images.get("hits").as_number(), 1.0);
  EXPECT_EQ(images.get("misses").as_number(), 1.0);
  EXPECT_EQ(images.get("entries").as_number(), 1.0);
  service.stop();
  EXPECT_EQ(registry.counter("service.image_hits").value() - hits0, 1u);
  EXPECT_EQ(registry.counter("service.image_misses").value() - misses0, 1u);
  EXPECT_EQ(static_cast<double>(registry.gauge("service.image_bytes").value()),
            image_bytes);

  // Both served reports are the one-shot engine's, byte for byte, and the
  // hit's decision provenance is the miss's.
  const json::Value miss_doc = parsed(*miss);
  const json::Value hit_doc = parsed(*hit);
  EXPECT_EQ(miss_doc.get("report").as_string(), env.expected_report);
  EXPECT_EQ(hit_doc.get("report").as_string(), env.expected_report);
  EXPECT_EQ(decision_lines(hit_doc.get("provenance").as_string()),
            decision_lines(miss_doc.get("provenance").as_string()));
  // The decoded image's library keys name the same result-cache entries.
  EXPECT_EQ(hit_doc.get("cache").get("misses").as_number(), 0.0);

  const auto id = [](const json::Value& doc) {
    return static_cast<std::uint64_t>(doc.get("request_id").as_number());
  };
  std::map<std::string, std::multiset<std::uint64_t>> requests_of;
  for (const obs::Span& span : obs::Tracer::global().spans())
    requests_of[span.name].insert(span.request);
  const std::multiset<std::uint64_t> both = {id(miss_doc), id(hit_doc)};
  const std::multiset<std::uint64_t> miss_only = {id(miss_doc)};
  EXPECT_EQ(requests_of["service.image_digest"], both);
  EXPECT_EQ(requests_of["service.render"], both);
  EXPECT_EQ(requests_of["setup.firmware"], miss_only);
  EXPECT_TRUE(requests_of["cache.digest"].empty());
}

TEST(Service, ImageTierMissesOnARewrittenImageWithOneChangedByte) {
  const ServiceUniverse& env = universe();
  const std::string path =
      (image_test_dir("rewrite") / "fw.img").string();
  std::filesystem::copy_file(env.firmware_path, path);
  svc::ScanService service(env.service_config("image_rewrite"));
  service.start();
  auto client =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(submit_image(client, path, env.some_cves).has_value());
  ASSERT_TRUE(submit_image(client, path, env.some_cves).has_value());
  EXPECT_EQ(image_tier_health(client).get("hits").as_number(), 1.0);

  // Flip one byte of a string-table entry: same path, same size, still a
  // valid image.
  FirmwareImage image = load_firmware(path).value();
  bool flipped = false;
  for (LibraryBinary& library : image.libraries)
    for (std::string& text : library.strings)
      if (!flipped && !text.empty()) {
        text[0] = static_cast<char>(text[0] ^ 0x01);
        flipped = true;
      }
  ASSERT_TRUE(flipped);
  const blob::Bytes before = blob::read_file(path).value();
  ASSERT_TRUE(save_firmware(image, path));
  const blob::Bytes after = blob::read_file(path).value();
  ASSERT_EQ(before.size(), after.size());
  std::size_t changed = 0;
  for (std::size_t i = 0; i < before.size(); ++i)
    changed += before[i] != after[i] ? 1 : 0;
  ASSERT_EQ(changed, 1u);

  const auto result = submit_image(client, path, env.some_cves);
  ASSERT_TRUE(result.has_value());
  const json::Value images = image_tier_health(client);
  EXPECT_EQ(images.get("hits").as_number(), 1.0);
  EXPECT_EQ(images.get("misses").as_number(), 2.0);
  EXPECT_EQ(images.get("entries").as_number(), 2.0);
  EXPECT_EQ(parsed(*result).get("report").as_string(),
            env.one_shot_report(load_firmware(path).value()));
  service.stop();
}

TEST(Service, ImageTierRejectsUnloadableImagesWithoutFilingThem) {
  const ServiceUniverse& env = universe();
  const auto dir = image_test_dir("unloadable");
  const blob::Bytes valid = blob::read_file(env.firmware_path).value();
  const std::string truncated = (dir / "truncated.img").string();
  ASSERT_TRUE(blob::write_file(
      truncated, blob::Bytes(valid.begin(), valid.begin() + valid.size() / 2)));
  const std::string text = (dir / "text.img").string();
  const std::string words = "this is not a firmware image\n";
  ASSERT_TRUE(blob::write_file(text, blob::Bytes(words.begin(), words.end())));

  svc::ScanService service(env.service_config("image_unloadable"));
  service.start();
  auto client =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(client.connected());
  for (const std::string& path : {truncated, text}) {
    const auto result = submit_image(client, path, env.some_cves);
    ASSERT_TRUE(result.has_value()) << path;
    const json::Value doc = parsed(*result);
    EXPECT_EQ(doc.get("type").as_string(), "error") << path;
    EXPECT_EQ(doc.get("code").as_number(), 400.0) << path;
    EXPECT_NE(doc.get("message").as_string().find(
                  "cannot load firmware image"),
              std::string::npos)
        << path;
  }
  const json::Value images = image_tier_health(client);
  EXPECT_EQ(images.get("entries").as_number(), 0.0);
  EXPECT_EQ(images.get("bytes").as_number(), 0.0);
  EXPECT_EQ(images.get("hits").as_number(), 0.0);
  EXPECT_EQ(images.get("misses").as_number(), 0.0);
  service.stop();
}

TEST(Service, ImageTierEvictsTheLeastRecentlyUsedImage) {
  const ServiceUniverse& env = universe();
  constexpr std::size_t kImages = svc::ImageTier::kCapacity + 1;
  const auto dir = image_test_dir("evict");
  // Distinct images: the same libraries under another device name.
  FirmwareImage image = load_firmware(env.firmware_path).value();
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < kImages; ++i) {
    image.device = "device-" + std::to_string(i);
    paths.push_back((dir / ("fw" + std::to_string(i) + ".img")).string());
    ASSERT_TRUE(save_firmware(image, paths.back()));
  }

  svc::ScanService service(env.service_config("image_evict"));
  service.start();
  auto client =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(client.connected());
  const auto scan = [&](std::size_t i, bool expect_hit) {
    const double hits = image_tier_health(client).get("hits").as_number();
    const auto result = submit_image(client, paths[i], env.some_cves);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(parsed(*result).get("report").as_string(), env.expected_report)
        << "image " << i;
    EXPECT_EQ(image_tier_health(client).get("hits").as_number(),
              hits + (expect_hit ? 1.0 : 0.0))
        << "image " << i;
  };
  for (std::size_t i = 0; i + 1 < kImages; ++i) scan(i, false);
  scan(0, true);            // image 1 is now the least recently used
  scan(kImages - 1, false); // ...and is the one evicted
  json::Value images = image_tier_health(client);
  EXPECT_EQ(images.get("entries").as_number(),
            static_cast<double>(svc::ImageTier::kCapacity));
  EXPECT_EQ(images.get("evictions").as_number(), 1.0);
  scan(0, true);
  scan(2, true);
  scan(1, false);  // evicted above; evicts image 3 in turn
  scan(3, false);
  images = image_tier_health(client);
  EXPECT_EQ(images.get("entries").as_number(),
            static_cast<double>(svc::ImageTier::kCapacity));
  EXPECT_EQ(images.get("evictions").as_number(), 3.0);
  EXPECT_EQ(images.get("bytes").as_number(),
            static_cast<double>(svc::ImageTier::kCapacity *
                                std::filesystem::file_size(paths[0])));
  service.stop();
}

TEST(Service, ImageTierRacingLoadsShareOneEntry) {
  // Concurrent first loads of one image may each decode it, but the second
  // insert hands back the first's entry: one resident copy, one pointer.
  const ServiceUniverse& env = universe();
  svc::ImageTier tier;
  constexpr int kThreads = 6;
  std::vector<std::shared_ptr<const svc::ResidentImage>> loaded(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back(
        [&, i] { loaded[i] = tier.load(env.firmware_path); });
  for (std::thread& thread : threads) thread.join();
  ASSERT_NE(loaded[0], nullptr);
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(loaded[i], loaded[0]) << i;
  const svc::ImageTierStats stats = tier.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(loaded[0]->image.library_keys.size(),
            loaded[0]->image.libraries.size());
}

TEST(Service, ProtocolErrorsKeepTheConnectionAlive) {
  const ServiceUniverse& env = universe();
  svc::ServiceConfig config = env.service_config("robust");
  config.max_frame_bytes = 128;
  svc::ScanService service(config);
  service.start();
  auto client =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(client.connected());

  // Malformed JSON -> 400, connection survives.
  auto response = client.call("this is not json");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(parsed(*response).get("code").as_number(), 400.0);

  // Unknown request type -> 400 naming the type.
  response = client.call("{\"type\":\"frobnicate\"}");
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(parsed(*response).get("message").as_string().find("frobnicate"),
            std::string::npos);

  // Oversized frame -> 413, connection survives.
  response = client.call(std::string(4096, 'x'));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(parsed(*response).get("code").as_number(), 413.0);

  // The same connection still answers a well-formed request.
  response = client.call(svc::ping_request_json());
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(parsed(*response).get("type").as_string(), "pong");
  service.stop();
}

TEST(Service, HealthAndStatusEndpointsReportServiceState) {
  const ServiceUniverse& env = universe();
  svc::ServiceConfig config = env.service_config("health");
  config.queue_limit = 7;
  config.tcp_port = 0;  // also exercise the loopback TCP listener
  svc::ScanService service(config);
  service.start();
  ASSERT_GE(service.tcp_port(), 1);
  auto client = svc::ServiceClient::connect_tcp(service.tcp_port());
  ASSERT_TRUE(client.connected());

  // Unknown request id -> 404.
  auto response = client.call(svc::status_request_json(999));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(parsed(*response).get("code").as_number(), 404.0);

  const auto result = submit_scan(client, env.some_cves);
  ASSERT_TRUE(result.has_value());
  const std::uint64_t id = static_cast<std::uint64_t>(
      parsed(*result).get("request_id").as_number());
  response = client.call(svc::status_request_json(id));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(parsed(*response).get("state").as_string(), "done");

  // The dispatcher counts a scan as completed before its result frame
  // goes out.
  response = client.call(svc::health_request_json());
  ASSERT_TRUE(response.has_value());
  const json::Value health = parsed(*response);
  EXPECT_EQ(health.get("type").as_string(), "health");
  EXPECT_GE(health.get("uptime_s").as_number(), 0.0);
  EXPECT_EQ(health.get("corpus").get("version").as_number(), 1.0);
  EXPECT_GT(health.get("corpus").get("cves").as_number(), 0.0);
  EXPECT_EQ(health.get("queue").get("capacity").as_number(), 7.0);
  EXPECT_EQ(health.get("queue").get("admitted").as_number(), 1.0);
  EXPECT_EQ(health.get("queue").get("completed").as_number(), 1.0);
  EXPECT_FALSE(health.get("draining").as_bool(true));
  // The per-request heartbeat fed the health endpoint its last snapshot,
  // tagged with the request it belongs to and its corpus generation.
  const json::Value heartbeat = health.get("heartbeat");
  ASSERT_EQ(heartbeat.kind(), json::Value::Kind::object);
  EXPECT_EQ(heartbeat.get("request_id").as_number(),
            static_cast<double>(id));
  EXPECT_EQ(heartbeat.get("corpus_version").as_number(), 1.0);
  const json::Value snapshot = heartbeat.get("snapshot");
  ASSERT_EQ(snapshot.kind(), json::Value::Kind::object);
  const json::Value jobs = snapshot.get("jobs");
  EXPECT_GT(jobs.get("total").as_number(), 0.0);
  EXPECT_EQ(jobs.get("done").as_number(), jobs.get("total").as_number());
  EXPECT_NE(health.get("process").get("rss_kb").kind(),
            json::Value::Kind::null);
  service.stop();
}

TEST(Service, DrainFlushesQueueThenRefusesNewScans) {
  const ServiceUniverse& env = universe();
  svc::ServiceConfig config = env.service_config("drain");
  config.scan_delay_seconds = 0.1;
  svc::ScanService service(config);
  service.start();

  auto scanner =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(scanner.connected());
  ASSERT_TRUE(scanner.send(
      svc::scan_request_json(env.firmware_path, env.some_cves, false)));
  ASSERT_EQ(parsed(scanner.receive().value_or("")).get("type").as_string(),
            "accepted");

  auto control =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(control.connected());
  const auto drained = control.call(svc::drain_request_json());
  ASSERT_TRUE(drained.has_value());
  const json::Value doc = parsed(*drained);
  EXPECT_EQ(doc.get("type").as_string(), "drained");
  EXPECT_EQ(doc.get("completed").as_number(), 1.0);
  // The flag flips just after the response frame is written (the response
  // itself is the queue barrier), so allow the session thread a moment.
  for (int i = 0; i < 400 && !service.drained(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(service.drained());

  // The in-flight scan completed before the drain response...
  const auto result = scanner.receive();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(parsed(*result).get("report").as_string(), env.expected_report);
  // ...and new scans are refused with a 503.
  const auto refused = control.call(
      svc::scan_request_json(env.firmware_path, env.some_cves, false));
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(parsed(*refused).get("code").as_number(), 503.0);
  service.stop();
}

TEST(Service, StopCancelsQueuedScansWithStructuredErrors) {
  const ServiceUniverse& env = universe();
  svc::ServiceConfig config = env.service_config("shutdown");
  config.queue_limit = 8;
  config.dispatchers = 1;
  // Holds the dispatched scan until stop() releases it, so the second scan
  // is still queued when stop() runs however slowly this test is scheduled.
  config.scan_delay_seconds = 3600.0;
  svc::ScanService service(config);
  service.start();

  auto running =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  auto queued =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(running.connected() && queued.connected());
  ASSERT_TRUE(running.send(
      svc::scan_request_json(env.firmware_path, env.some_cves, false)));
  ASSERT_EQ(parsed(running.receive().value_or("")).get("type").as_string(),
            "accepted");
  for (int i = 0; i < 6000 && service.health().queue.active == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(service.health().queue.active, 1u);
  ASSERT_TRUE(queued.send(
      svc::scan_request_json(env.firmware_path, env.some_cves, false)));
  ASSERT_EQ(parsed(queued.receive().value_or("")).get("type").as_string(),
            "accepted");

  service.stop();
  // The dispatched scan finished; the queued one was shed with a 503.
  const auto finished = running.receive();
  ASSERT_TRUE(finished.has_value());
  EXPECT_EQ(parsed(*finished).get("type").as_string(), "result");
  const auto cancelled = queued.receive();
  ASSERT_TRUE(cancelled.has_value());
  const json::Value doc = parsed(*cancelled);
  EXPECT_EQ(doc.get("type").as_string(), "error");
  EXPECT_EQ(doc.get("code").as_number(), 503.0);
}

// --- access log / stats / request ids --------------------------------------

std::vector<std::string> read_jsonl_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

/// Asserts the documented access-log key order: every key present, each
/// appearing after the previous one (CI validates the same contract with a
/// separate script; this keeps the order change-detected at unit level).
void expect_access_key_order(const std::string& line) {
  static const char* kKeys[] = {
      "\"type\"",        "\"id\"",          "\"op\"",
      "\"status\"",      "\"outcome\"",     "\"queue_wait_s\"",
      "\"service_s\"",   "\"corpus_version\"", "\"cache_hits\"",
      "\"cache_misses\"", "\"cache_hit_ratio\"", "\"bytes_in\"",
      "\"bytes_out\""};
  std::size_t cursor = 0;
  for (const char* key : kKeys) {
    const std::size_t at = line.find(key, cursor);
    ASSERT_NE(at, std::string::npos) << key << " missing/out of order: "
                                     << line;
    cursor = at;
  }
}

TEST(Service, AccessLogAndStatsReconcileAcrossEndpoints) {
  const ServiceUniverse& env = universe();
  svc::ServiceConfig config = env.service_config("accesslog");
  const std::string log_path =
      (std::filesystem::path(config.socket_path).parent_path() /
       "access.jsonl")
          .string();
  config.access_log.enabled = true;
  config.access_log.file = log_path;
  svc::ScanService service(config);
  service.start();
  auto client =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(client.connected());

  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(client.call(svc::ping_request_json()).has_value());
  ASSERT_TRUE(client.call(svc::health_request_json()).has_value());
  const auto result = submit_scan(client, env.some_cves);
  ASSERT_TRUE(result.has_value());
  const json::Value result_doc = parsed(*result);
  ASSERT_EQ(result_doc.get("type").as_string(), "result");
  const auto id =
      static_cast<std::uint64_t>(result_doc.get("request_id").as_number());
  ASSERT_TRUE(client.call(svc::status_request_json(id)).has_value());

  // The stats response reconciles with everything recorded so far.
  const auto stats_response = client.call(svc::stats_request_json());
  ASSERT_TRUE(stats_response.has_value());
  const json::Value stats = parsed(*stats_response);
  EXPECT_EQ(stats.get("type").as_string(), "stats");
  EXPECT_EQ(stats.get("schema_version").as_number(), 2.0);
  EXPECT_EQ(stats.get("corpus").get("version").as_number(), 1.0);
  EXPECT_EQ(stats.get("queue").get("completed").as_number(), 1.0);
  const json::Value endpoints = stats.get("rollup").get("endpoints");
  EXPECT_EQ(endpoints.get("ping").get("total").get("count").as_number(), 3.0);
  EXPECT_EQ(endpoints.get("health").get("total").get("count").as_number(),
            1.0);
  EXPECT_EQ(endpoints.get("status").get("total").get("count").as_number(),
            1.0);
  EXPECT_EQ(endpoints.get("scan").get("total").get("count").as_number(), 1.0);
  EXPECT_EQ(endpoints.get("scan").get("errors").as_number(), 0.0);
  EXPECT_EQ(stats.get("rollup").get("corpus_version").as_number(), 1.0);
  service.stop();

  // One line per completed request, keys in documented order, and the scan
  // line's id matches the id the wire protocol reported.
  const std::vector<std::string> lines = read_jsonl_lines(log_path);
  std::size_t pings = 0, healths = 0, scans = 0, statuses = 0, stats_n = 0;
  for (const std::string& line : lines) {
    expect_access_key_order(line);
    const json::Value entry = parsed(line);
    EXPECT_EQ(entry.get("type").as_string(), "access");
    EXPECT_GT(entry.get("bytes_in").as_number(), 0.0);
    EXPECT_GT(entry.get("bytes_out").as_number(), 0.0);
    const std::string op = entry.get("op").as_string();
    if (op == "ping") ++pings;
    if (op == "health") ++healths;
    if (op == "status") ++statuses;
    if (op == "stats") ++stats_n;
    if (op == "scan") {
      ++scans;
      EXPECT_EQ(entry.get("id").as_number(), static_cast<double>(id));
      EXPECT_EQ(entry.get("status").as_number(), 200.0);
      EXPECT_EQ(entry.get("outcome").as_string(), "ok");
      EXPECT_EQ(entry.get("corpus_version").as_number(), 1.0);
      EXPECT_GT(entry.get("service_s").as_number(), 0.0);
      // A cold scan does real cache lookups, so the ratio is a number.
      EXPECT_EQ(entry.get("cache_hit_ratio").kind(),
                json::Value::Kind::number);
      EXPECT_GT(entry.get("cache_misses").as_number(), 0.0);
    }
  }
  EXPECT_EQ(pings, 3u);
  EXPECT_EQ(healths, 1u);
  EXPECT_EQ(scans, 1u);
  EXPECT_EQ(statuses, 1u);
  EXPECT_EQ(stats_n, 1u);
  EXPECT_EQ(lines.size(), 7u);
}

TEST(Service, SaturatedQueueShowsQueueWaitInAccessLogAndRollup) {
  const ServiceUniverse& env = universe();
  svc::ServiceConfig config = env.service_config("queuewait");
  const std::string log_path =
      (std::filesystem::path(config.socket_path).parent_path() /
       "access.jsonl")
          .string();
  config.access_log.enabled = true;
  config.access_log.file = log_path;
  config.queue_limit = 4;
  config.dispatchers = 1;
  config.scan_delay_seconds = 0.15;  // hold the dispatcher so scans queue up
  svc::ScanService service(config);
  service.start();

  const std::vector<std::string> one_cve = {env.some_cves.front()};
  std::vector<svc::ServiceClient> clients;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(
        svc::ServiceClient::connect_unix(service.config().socket_path));
    ASSERT_TRUE(clients.back().connected());
    ASSERT_TRUE(clients.back().send(
        svc::scan_request_json(env.firmware_path, one_cve, false)));
    ASSERT_EQ(
        parsed(clients.back().receive().value_or("")).get("type").as_string(),
        "accepted");
  }
  for (auto& client : clients)
    ASSERT_TRUE(client.receive().has_value());

  auto control =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(control.connected());
  const auto stats_response = control.call(svc::stats_request_json());
  ASSERT_TRUE(stats_response.has_value());
  const json::Value rollup = parsed(*stats_response).get("rollup");
  // Scans 2 and 3 sat behind a 0.15s dispatcher: both high-water marks and
  // the windowed per-endpoint wait maximum must show it.
  EXPECT_GE(rollup.get("queue").get("depth_hwm").as_number(), 1.0);
  EXPECT_GT(rollup.get("queue").get("wait_hwm_s").as_number(), 0.05);
  EXPECT_GT(
      rollup.get("endpoints").get("scan").get("wait_max_s").as_number(),
      0.05);
  service.stop();

  std::size_t waited = 0;
  for (const std::string& line : read_jsonl_lines(log_path)) {
    const json::Value entry = parsed(line);
    if (entry.get("op").as_string() != "scan") continue;
    EXPECT_GE(entry.get("queue_wait_s").as_number(), 0.0);
    if (entry.get("queue_wait_s").as_number() > 0.05) ++waited;
  }
  EXPECT_GE(waited, 1u);
}

TEST(Service, RequestIdsStayUniqueAcrossClientStormAndReload) {
  const ServiceUniverse& env = universe();
  svc::ServiceConfig config = env.service_config("idstorm");
  config.dispatchers = 2;
  config.queue_limit = 32;
  config.scan_delay_seconds = 0.05;  // keep the queue busy during the reload
  svc::ScanService service(config);
  service.start();

  const std::vector<std::string> one_cve = {env.some_cves.front()};
  constexpr int kThreads = 4;
  constexpr int kScansPerThread = 3;
  std::mutex ids_mutex;
  std::vector<std::uint64_t> accepted_ids;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kScansPerThread; ++i) {
        auto client =
            svc::ServiceClient::connect_unix(service.config().socket_path);
        if (!client.connected()) return;
        if (!client.send(
                svc::scan_request_json(env.firmware_path, one_cve, false)))
          return;
        const auto first = client.receive();
        if (!first) return;
        const json::Value accepted = parsed(*first);
        if (accepted.get("type").as_string() != "accepted") return;
        const auto id = static_cast<std::uint64_t>(
            accepted.get("request_id").as_number());
        const auto result = client.receive();
        if (!result) return;
        // The result echoes the id the accept frame promised.
        EXPECT_EQ(parsed(*result).get("request_id").as_number(),
                  static_cast<double>(id));
        std::lock_guard<std::mutex> lock(ids_mutex);
        accepted_ids.push_back(id);
      }
    });
  // Hot-reload mid-storm: id assignment must not stutter or repeat across
  // the corpus generation swap.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.reload(std::nullopt, std::nullopt);
  for (std::thread& thread : threads) thread.join();

  ASSERT_EQ(accepted_ids.size(),
            static_cast<std::size_t>(kThreads * kScansPerThread));
  const std::set<std::uint64_t> unique(accepted_ids.begin(),
                                       accepted_ids.end());
  EXPECT_EQ(unique.size(), accepted_ids.size());
  service.stop();
}

TEST(Service, ClientSuppliedRequestIdsHonoredAndDuplicatesRejected) {
  const ServiceUniverse& env = universe();
  svc::ScanService service(universe().service_config("namedids"));
  service.start();
  auto client =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(client.connected());
  const std::vector<std::string> one_cve = {env.some_cves.front()};

  // The daemon honors the client's id end to end.
  ASSERT_TRUE(client.send(svc::scan_request_json(env.firmware_path, one_cve,
                                                 false, /*request_id=*/500)));
  const json::Value accepted = parsed(client.receive().value_or(""));
  ASSERT_EQ(accepted.get("type").as_string(), "accepted");
  EXPECT_EQ(accepted.get("request_id").as_number(), 500.0);
  const json::Value result = parsed(client.receive().value_or(""));
  ASSERT_EQ(result.get("type").as_string(), "result");
  EXPECT_EQ(result.get("request_id").as_number(), 500.0);

  // Reusing a live id is a structured conflict, and the original request's
  // state survives the collision untouched.
  ASSERT_TRUE(client.send(svc::scan_request_json(env.firmware_path, one_cve,
                                                 false, /*request_id=*/500)));
  const json::Value conflict = parsed(client.receive().value_or(""));
  EXPECT_EQ(conflict.get("type").as_string(), "error");
  EXPECT_EQ(conflict.get("code").as_number(), 409.0);
  const auto status = client.call(svc::status_request_json(500));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(parsed(*status).get("state").as_string(), "done");

  // Auto-assignment continues above the claimed id — never inside it.
  const auto next = submit_scan(client, one_cve);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(parsed(*next).get("request_id").as_number(), 501.0);
  service.stop();
}

// --- profiler capture / durable shutdown -----------------------------------

TEST(Service, ProfileCaptureOverSocketWith409DoubleStartGuard) {
  // Spans on, as `serve` runs them, so the capture has spans to charge.
  const obs::EnabledScope obs_on(true);
  const ServiceUniverse& env = universe();
  svc::ServiceConfig config = env.service_config("profile");
  const std::string log_path =
      (std::filesystem::path(config.socket_path).parent_path() /
       "access.jsonl")
          .string();
  config.access_log.enabled = true;
  config.access_log.file = log_path;
  svc::ScanService service(config);
  service.start();

  auto capturer =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  auto intruder =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  auto scanner =
      svc::ServiceClient::connect_unix(service.config().socket_path);
  ASSERT_TRUE(capturer.connected() && intruder.connected() &&
              scanner.connected());

  // The profiler is process-global: earlier tests in this process may have
  // finished captures of their own, so count this test's as a delta.
  const std::uint64_t captures_before = obs::Profiler::global().captures();

  // Kick off a capture, then wait until the (process-global) profiler is
  // provably live so the second request races against a running capture,
  // not against session-thread scheduling.
  ASSERT_TRUE(capturer.send(svc::profile_request_json(0.6)));
  for (int i = 0; i < 400 && !obs::Profiler::global().running(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(obs::Profiler::global().running());

  // A concurrent start is a structured conflict, not a queue or a crash.
  const auto conflict = intruder.call(svc::profile_request_json(0.2));
  ASSERT_TRUE(conflict.has_value());
  const json::Value conflict_doc = parsed(*conflict);
  EXPECT_EQ(conflict_doc.get("type").as_string(), "error");
  EXPECT_EQ(conflict_doc.get("code").as_number(), 409.0);

  // Give the capture real spans to charge while the window is open.
  const auto scanned = submit_scan(scanner, env.some_cves);
  ASSERT_TRUE(scanned.has_value());

  const auto response = capturer.receive();
  ASSERT_TRUE(response.has_value());
  const json::Value doc = parsed(*response);
  EXPECT_EQ(doc.get("type").as_string(), "profile");
  EXPECT_DOUBLE_EQ(doc.get("seconds").as_number(), 0.6);
  // The scan ran inside the window, so its spans were charged time.
  const json::Value summary = doc.get("summary");
  EXPECT_GT(summary.get("duration_s").as_number(), 0.0);
  EXPECT_GT(summary.get("self_s").as_number(), 0.0);
  EXPECT_GT(summary.get("hot_self_s").as_number(), 0.0);
  EXPECT_FALSE(summary.get("hot_path").as_string().empty());
  EXPECT_EQ(doc.get("folded").kind(), json::Value::Kind::string);
  EXPECT_NE(doc.get("top").as_string().find("self_s"), std::string::npos);
  EXPECT_FALSE(obs::Profiler::global().running());

  // The stats surface reflects the finished capture, survives the hard
  // shape check, and feeds the `top` dashboard a profiler row.
  const auto stats_response = intruder.call(svc::stats_request_json());
  ASSERT_TRUE(stats_response.has_value());
  const json::Value stats = parsed(*stats_response);
  const json::Value profile = stats.get("profile");
  ASSERT_EQ(profile.kind(), json::Value::Kind::object);
  EXPECT_EQ(profile.get("captures").as_number(),
            static_cast<double>(captures_before + 1));
  EXPECT_FALSE(profile.get("running").as_bool(true));
  EXPECT_EQ(profile.get("last").kind(), json::Value::Kind::object);
  EXPECT_GT(profile.get("last").get("self_s").as_number(), 0.0);
  std::string error;
  EXPECT_TRUE(svc::validate_stats(stats, &error)) << error;
  EXPECT_NE(svc::render_top(stats).find("profiler"), std::string::npos);
  service.stop();

  // Both capture outcomes — the 200 and the 409 — hit the access log.
  std::size_t ok_captures = 0, conflicts = 0;
  for (const std::string& line : read_jsonl_lines(log_path)) {
    const json::Value entry = parsed(line);
    if (entry.get("op").as_string() != "profile") continue;
    if (entry.get("status").as_number() == 200.0) ++ok_captures;
    if (entry.get("status").as_number() == 409.0) ++conflicts;
  }
  EXPECT_EQ(ok_captures, 1u);
  EXPECT_EQ(conflicts, 1u);
}

TEST(Service, ValidateStatsNamesTheFirstMissingPiece) {
  const auto check = [](const std::string& text) {
    std::string error;
    const auto doc = json::parse(text);
    EXPECT_TRUE(doc.has_value()) << text;
    const bool ok = svc::validate_stats(doc.value_or(json::Value()), &error);
    return std::make_pair(ok, error);
  };

  // Minimal document satisfying the hard shape check.
  const std::string valid =
      "{\"type\":\"stats\",\"schema_version\":1,\"uptime_s\":0.5,"
      "\"corpus\":{},\"queue\":{},"
      "\"rollup\":{\"window_s\":60,\"le\":[0.001],\"endpoints\":{}}}";
  EXPECT_TRUE(check(valid).first) << check(valid).second;

  EXPECT_FALSE(check("[1,2]").first);
  EXPECT_FALSE(check("{\"type\":\"result\"}").first);
  const auto no_version = check("{\"type\":\"stats\"}");
  EXPECT_FALSE(no_version.first);
  EXPECT_NE(no_version.second.find("schema_version"), std::string::npos);
  // A truncated response missing its rollup block must not render as a
  // dashboard of zeros.
  const auto no_rollup = check(
      "{\"type\":\"stats\",\"schema_version\":1,\"uptime_s\":1,"
      "\"corpus\":{},\"queue\":{}}");
  EXPECT_FALSE(no_rollup.first);
  EXPECT_NE(no_rollup.second.find("rollup"), std::string::npos);
  const auto bad_le = check(
      "{\"type\":\"stats\",\"schema_version\":1,\"uptime_s\":1,"
      "\"corpus\":{},\"queue\":{},"
      "\"rollup\":{\"window_s\":60,\"le\":\"oops\",\"endpoints\":{}}}");
  EXPECT_FALSE(bad_le.first);
}

TEST(Service, ShutdownMidStormLeavesDurableAccessLogThatReconciles) {
  const ServiceUniverse& env = universe();
  svc::ServiceConfig config = env.service_config("durablelog");
  const std::string log_path =
      (std::filesystem::path(config.socket_path).parent_path() /
       "access.jsonl")
          .string();
  config.access_log.enabled = true;
  config.access_log.file = log_path;
  config.dispatchers = 1;
  config.queue_limit = 8;
  config.scan_delay_seconds = 0.2;  // hold the dispatcher so scans pile up
  svc::ScanService service(config);
  service.start();

  // Storm: four accepted scans, at most one in flight — the rest are queued
  // when the service is torn down, exactly the SIGINT/SIGTERM path.
  const std::vector<std::string> one_cve = {env.some_cves.front()};
  std::vector<svc::ServiceClient> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(
        svc::ServiceClient::connect_unix(service.config().socket_path));
    ASSERT_TRUE(clients.back().connected());
    ASSERT_TRUE(clients.back().send(
        svc::scan_request_json(env.firmware_path, one_cve, false)));
    ASSERT_EQ(
        parsed(clients.back().receive().value_or("")).get("type").as_string(),
        "accepted");
  }
  service.stop();

  // Tally what the clients actually saw: completions and 503 cancellations.
  std::size_t client_ok = 0, client_cancelled = 0;
  for (auto& client : clients) {
    const auto final_frame = client.receive();
    ASSERT_TRUE(final_frame.has_value());
    const json::Value doc = parsed(*final_frame);
    if (doc.get("type").as_string() == "result") {
      ++client_ok;
    } else {
      EXPECT_EQ(doc.get("code").as_number(), 503.0);
      ++client_cancelled;
    }
  }
  ASSERT_EQ(client_ok + client_cancelled, 4u);
  EXPECT_GE(client_cancelled, 1u);  // the 0.2s delay guarantees a backlog

  // The flushed+fsynced log reconciles line-for-line with those responses:
  // every scan the clients heard about is durably on disk, each line whole
  // and in documented key order.
  std::size_t log_ok = 0, log_cancelled = 0;
  for (const std::string& line : read_jsonl_lines(log_path)) {
    expect_access_key_order(line);
    const json::Value entry = parsed(line);
    if (entry.get("op").as_string() != "scan") continue;
    const std::string outcome = entry.get("outcome").as_string();
    if (outcome == "ok") ++log_ok;
    if (outcome == "cancelled") {
      EXPECT_EQ(entry.get("status").as_number(), 503.0);
      ++log_cancelled;
    }
  }
  EXPECT_EQ(log_ok, client_ok);
  EXPECT_EQ(log_cancelled, client_cancelled);
}

}  // namespace
}  // namespace patchecko
