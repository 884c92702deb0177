// Fixtures, timed set-up, the reference oracle and the daemon's start-up.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "bench.h"
#include "dl/trainer.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/protocol.h"
#include "util/rng.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

/// Writes through a temporary name so an interrupted fixture build never
/// leaves a truncated file behind under the final name.
template <typename Save>
void save_atomically(const std::string& path, Save&& save) {
  const std::string temp = path + ".tmp";
  if (!save(temp)) throw std::runtime_error("cannot write " + temp);
  fs::rename(temp, path);
}

DeviceSpec device_spec(const std::string& device) {
  return device == "pixel" ? pixel2xl_device() : android_things_device();
}

std::string corpus_dir(const Options& options) {
  char scale[32];
  std::snprintf(scale, sizeof(scale), "%g", options.scale);
  return options.fixtures + "/corpus-" + std::to_string(options.corpus_seed) +
         "-scale-" + scale;
}

std::string model_path(const Options& options) {
  return options.fixtures + "/model.bin";
}

std::string image_path(const Options& options, const std::string& device) {
  return corpus_dir(options) + "/seed-" + std::to_string(options.seed) + "/" +
         device + ".img";
}

}  // namespace

Workload workload_named(const std::string& name) {
  Workload workload;
  EngineConfig& engine = workload.engine;
  engine.jobs = 4;
  if (name == "cold_exact") {
    workload.devices = {"things"};
    workload.fresh_cache_dir = true;
  } else if (name == "cold_prefilter") {
    workload.devices = {"things", "pixel"};
    engine.use_cache = false;
    engine.pipeline.prefilter_mode = retrieval::PrefilterMode::on;
  } else if (name == "warm_disk") {
    workload.devices = {"things"};
    workload.warm_cache_dir = true;
  } else if (name == "daemon_warm") {
    workload.devices = {"things", "pixel"};
    workload.daemon = true;
    engine.jobs = 2;
    engine.pipeline.prefilter_mode = retrieval::PrefilterMode::on;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return workload;
}

void build_fixtures(const Options& options) {
  if (!fs::exists(model_path(options))) {
    // `patchecko train` defaults: 60 x 24 libraries x functions, 12 epochs,
    // model_seed 7 — the model does not depend on the workload seed.
    fs::create_directories(options.fixtures);
    const TrainingRun run = train_similarity_model(TrainerConfig{});
    save_atomically(model_path(options), [&](const std::string& path) {
      return run.model.save(path);
    });
  }
  const std::vector<std::string> devices = {"things", "pixel"};
  std::unique_ptr<EvalCorpus> corpus;
  for (const std::string& device : devices) {
    const std::string path = image_path(options, device);
    if (fs::exists(path)) continue;
    // The seed's image is the corpus image with its libraries in a
    // seed-chosen order: new bytes, identical scan work and report.
    const std::string base = corpus_dir(options) + "/" + device + ".img";
    fs::create_directories(fs::path(path).parent_path());
    if (!fs::exists(base)) {
      if (corpus == nullptr) {
        EvalConfig eval;
        eval.scale = options.scale;
        eval.seed = options.corpus_seed;
        corpus = std::make_unique<EvalCorpus>(eval);
      }
      const FirmwareImage image = corpus->build_firmware(device_spec(device));
      save_atomically(base, [&](const std::string& temp) {
        return save_firmware(image, temp);
      });
    }
    auto image = load_firmware(base);
    if (!image) throw std::runtime_error("cannot load " + base);
    std::vector<LibraryBinary>& libraries = image->libraries;
    Rng rng(options.seed);
    for (std::size_t i = libraries.size(); i > 1; --i)
      std::swap(libraries[i - 1],
                libraries[static_cast<std::size_t>(
                    rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
    save_atomically(path, [&](const std::string& temp) {
      return save_firmware(*image, temp);
    });
  }
}

ScanRequest Context::request_for(const Image& image) const {
  ScanRequest request;
  request.model = &model;
  request.firmware = &image.firmware;
  request.database = &db();
  request.query_codes = query_codes();
  return request;
}

void Context::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
}

void set_up(Context& ctx) {
  ctx.eval.scale = ctx.options.scale;
  ctx.eval.seed = ctx.options.corpus_seed;
  std::vector<double> model_s, corpus_s, database_s, firmware_s, total_s;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    // Drop the previous repeat first so peak memory is one set-up's worth.
    ctx.images.clear();
    ctx.database.reset();
    ctx.corpus.reset();
    const double t0 = now_seconds();
    auto model = SimilarityModel::load(model_path(ctx.options));
    if (!model) throw std::runtime_error("cannot load the model fixture");
    ctx.model = std::move(*model);
    const double t1 = now_seconds();
    ctx.corpus = std::make_unique<EvalCorpus>(ctx.eval);
    const double t2 = now_seconds();
    ctx.database = std::make_unique<CveDatabase>(*ctx.corpus, DatabaseConfig{});
    const double t3 = now_seconds();
    for (const std::string& device : ctx.workload.devices) {
      Image image;
      image.device = device;
      image.spec = device_spec(device);
      image.path = fs::absolute(image_path(ctx.options, device)).string();
      auto firmware = load_firmware(image.path);
      if (!firmware) throw std::runtime_error("cannot load " + image.path);
      image.firmware = std::move(*firmware);
      image.bytes = fs::file_size(image.path);
      ctx.images.push_back(std::move(image));
    }
    const double t4 = now_seconds();
    std::rotate(ctx.images.begin(),
                ctx.images.begin() +
                    static_cast<std::ptrdiff_t>(ctx.options.seed %
                                                ctx.images.size()),
                ctx.images.end());
    model_s.push_back(t1 - t0);
    corpus_s.push_back(t2 - t1);
    database_s.push_back(t3 - t2);
    firmware_s.push_back(t4 - t3);
    total_s.push_back(t4 - t0);
  }
  ctx.setup.model_load_s = median(model_s);
  ctx.setup.corpus_s = median(corpus_s);
  ctx.setup.database_s = median(database_s);
  ctx.setup.firmware_load_s = median(firmware_s);
  ctx.setup.total_s = median(total_s);

  if (ctx.workload.fresh_cache_dir || ctx.workload.warm_cache_dir) {
    ctx.cache_dir = ctx.options.work + "/cache";
    fs::remove_all(ctx.cache_dir);
  }
  if (ctx.workload.daemon) {
    // The service's first snapshot adopts this corpus and database, exactly
    // what a store-backed `serve` does; the adoption (query catalog build)
    // counts as service start.
    const double t0 = now_seconds();
    ctx.snapshot = std::make_shared<const CorpusSnapshot>(
        1, ctx.eval, DatabaseConfig{}, std::move(*ctx.corpus),
        std::move(*ctx.database));
    ctx.corpus.reset();
    ctx.database.reset();
    ctx.setup.service_start_s += now_seconds() - t0;
  }
}

void capture_references(Context& ctx) {
  for (Image& image : ctx.images) {
    EngineConfig config = ctx.workload.engine;
    config.jobs = 1;
    if (ctx.workload.warm_cache_dir) {
      // The reference run is also the population of warm_disk's cache.
      config.cache_dir = ctx.cache_dir;
    } else if (ctx.workload.fresh_cache_dir) {
      config.cache_dir = ctx.options.work + "/reference_cache";
      fs::remove_all(config.cache_dir);
    }
    ScanEngine engine(config);
    const double t0 = now_seconds();
    ScanReport report = engine.run(ctx.request_for(image));
    image.reference_seconds = now_seconds() - t0;
    if (report.interrupted) ctx.fail("reference run interrupted");
    image.reference = report.canonical_text();
    image.reference_report = std::move(report);
    if (ctx.workload.warm_cache_dir)
      ctx.setup.cache_populate_s += image.reference_seconds;
    if (ctx.workload.fresh_cache_dir) fs::remove_all(config.cache_dir);
    if (ctx.options.corrupt_reference) image.reference[0] ^= 0x20;
  }
}

void start_service(Context& ctx) {
  // `patchecko serve` always runs with metrics and events on.
  obs::set_enabled(true);
  obs::set_events_enabled(true);
  const double t0 = now_seconds();
  ctx.socket_path = ctx.options.work + "/service.sock";
  ctx.access_log_path = ctx.options.work + "/access.jsonl";
  fs::remove(ctx.socket_path);
  fs::remove(ctx.access_log_path);
  service::ServiceConfig config;
  config.socket_path = ctx.socket_path;
  config.model = &ctx.model;
  config.eval = ctx.eval;
  config.engine = ctx.workload.engine;
  config.access_log = cli::OutputSpec{true, ctx.access_log_path};
  const std::shared_ptr<const CorpusSnapshot> snapshot = ctx.snapshot;
  config.snapshot_builder = [snapshot](std::uint64_t, const EvalConfig&,
                                       const DatabaseConfig&) {
    return snapshot;
  };
  ctx.service = std::make_unique<service::ScanService>(config);
  ctx.service->start();

  // Warm-up: one request per image fills the memory tier.
  auto client = service::ServiceClient::connect_unix(ctx.socket_path);
  if (!client.connected()) throw std::runtime_error("cannot connect");
  for (const Image& image : ctx.images) {
    if (!client.send(service::scan_request_json(image.path, {}, false)))
      throw std::runtime_error("warm-up send failed");
    const auto accepted = client.receive();
    const auto result = client.receive();
    if (!accepted || !result) throw std::runtime_error("warm-up failed");
    const ResultFrame frame = parse_result_frame(*result);
    if (!frame.ok || frame.report != image.reference)
      ctx.fail("warm-up report for " + image.device + " differs");
  }
  ctx.setup.service_start_s += now_seconds() - t0;
}

std::vector<double> stop_service(Context& ctx,
                                 const std::vector<ServiceSample>& samples) {
  ctx.service->stop();
  ctx.service.reset();
  // The access log is complete once stop() returns; the stats endpoint
  // would race the response frame, so queue waits come from here.
  std::vector<std::uint64_t> ids;
  for (const ServiceSample& sample : samples) ids.push_back(sample.request_id);
  std::vector<double> waits;
  std::FILE* file = std::fopen(ctx.access_log_path.c_str(), "r");
  if (file == nullptr) return waits;
  char line[4096];
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    const auto doc = obs::json::parse(line);
    if (!doc || doc->get("op").as_string() != "scan") continue;
    const auto id = static_cast<std::uint64_t>(doc->get("id").as_number());
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) continue;
    waits.push_back(doc->get("queue_wait_s").as_number());
  }
  std::fclose(file);
  return waits;
}

}  // namespace perfbench
