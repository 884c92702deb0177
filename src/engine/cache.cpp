#include "engine/cache.h"

#include "obs/metrics.h"

namespace patchecko {

using namespace blob;

namespace {

/// Process-wide mirrors of the per-cache CacheStats: CacheStats stays the
/// per-run accounting the engine reports, while these feed the `--metrics`
/// export (and aggregate across every ResultCache instance in the process).
struct CacheMetrics {
  obs::Counter& feature_hits =
      obs::Registry::global().counter("cache.feature_hits");
  obs::Counter& feature_misses =
      obs::Registry::global().counter("cache.feature_misses");
  obs::Counter& outcome_hits =
      obs::Registry::global().counter("cache.outcome_hits");
  obs::Counter& outcome_misses =
      obs::Registry::global().counter("cache.outcome_misses");
  obs::Counter& disk_loads = obs::Registry::global().counter("cache.disk_loads");
  obs::Counter& stores = obs::Registry::global().counter("cache.stores");
  obs::Counter& evictions = obs::Registry::global().counter("cache.evictions");

  static CacheMetrics& get() {
    static CacheMetrics metrics;
    return metrics;
  }
};

constexpr std::uint8_t kFeatureMagic[4] = {'P', 'K', 'F', 'E'};
constexpr std::uint8_t kOutcomeMagic[4] = {'P', 'K', 'D', 'O'};
// v2: outcome entries carry the decision-provenance StageRecord. v3 adds
// the retrieval-prefilter fields (outcome + per-candidate + stage record).
// v4 drops the per-candidate and recall fields of the removed `verify`
// prefilter mode. Old entries fail the version check and are simply
// recomputed.
constexpr std::uint64_t kFormatVersion = 4;

bool check_magic(Reader& reader, const std::uint8_t (&magic)[4]) {
  std::uint8_t found[4] = {};
  if (!reader.read(found, sizeof(found))) return false;
  return std::memcmp(found, magic, sizeof(found)) == 0 &&
         reader.read_u64() == kFormatVersion && reader.ok;
}

void absorb_profile(Digest& digest, const DynamicProfile& profile) {
  digest.absorb_u64(profile.per_env.size());
  for (const auto& features : profile.per_env) {
    digest.absorb_u64(features.has_value() ? 1 : 0);
    if (!features) continue;
    for (double value : features->to_array()) digest.absorb_double(value);
  }
  digest.absorb_u64(profile.effect_hash.size());
  for (const auto& hash : profile.effect_hash) {
    digest.absorb_u64(hash.has_value() ? 1 : 0);
    if (hash) digest.absorb_u64(*hash);
  }
}

void absorb_features(Digest& digest, const StaticFeatureVector& features) {
  for (double value : features) digest.absorb_double(value);
}

}  // namespace

// --- input digests ---------------------------------------------------------

Digest digest_model(const SimilarityModel& model) {
  Digest digest;
  const Network& network = model.network();
  digest.absorb_u64(network.layers().size());
  for (const DenseLayer& layer : network.layers()) {
    digest.absorb_u64(layer.in_dim());
    digest.absorb_u64(layer.out_dim());
    digest.absorb(layer.weights().data(),
                  layer.weights().size() * sizeof(float));
    digest.absorb(layer.biases().data(),
                  layer.biases().size() * sizeof(float));
  }
  const FeatureNormalizer& normalizer = model.normalizer();
  digest.absorb_u64(normalizer.fitted() ? 1 : 0);
  absorb_features(digest, normalizer.means());
  absorb_features(digest, normalizer.stddevs());
  return digest;
}

Digest digest_pipeline_config(const PipelineConfig& config) {
  Digest digest;
  digest.absorb_double(config.detection_threshold);
  digest.absorb_double(config.minkowski_p);
  digest.absorb_u64(config.patch_candidates);
  digest.absorb_u64(config.machine.step_limit);
  digest.absorb_i64(config.machine.stack_size);
  digest.absorb_i64(config.machine.max_call_depth);
  // The value of the deleted MachineConfig::collect_features, which was
  // always on; absorbing it keeps every stored cache key.
  digest.absorb_u64(1);
  // The prefilter changes which functions ever reach the model, so toggling
  // it must never serve an entry computed under the other configuration.
  digest.absorb_u64(static_cast<std::uint64_t>(config.prefilter_mode));
  digest.absorb_u64(config.prefilter_top_k);
  digest.absorb_u64(config.prefilter_min_total);
  // config.worker_threads intentionally omitted: thread count never changes
  // results, so sequential and parallel runs share cache entries.
  return digest;
}

Digest digest_entry(const CveEntry& entry) {
  Digest digest;
  digest.absorb_string(entry.spec.cve_id);
  digest.absorb_string(entry.spec.library);
  digest.absorb_u64(static_cast<std::uint64_t>(entry.spec.kind));
  digest.absorb_u64(entry.library_index);
  digest.absorb_u64(entry.slot);
  digest.absorb_u64(entry.target_uid);
  absorb_features(digest, entry.vulnerable_features);
  absorb_features(digest, entry.patched_features);
  digest.absorb_u64(entry.environments.size());
  for (const CallEnv& env : entry.environments) {
    digest.absorb_u64(env.args.size());
    for (const Value& arg : env.args) {
      digest.absorb_u64(static_cast<std::uint64_t>(arg.type));
      digest.absorb_i64(arg.i);
      digest.absorb_double(arg.f);
      digest.absorb_i64(arg.buffer);
      digest.absorb_i64(arg.offset);
    }
    digest.absorb_u64(env.buffers.size());
    for (const std::vector<std::uint8_t>& buffer : env.buffers) {
      digest.absorb_u64(buffer.size());
      digest.absorb(buffer.data(), buffer.size());
    }
  }
  absorb_profile(digest, entry.vulnerable_profile);
  absorb_profile(digest, entry.patched_profile);
  digest.absorb_u64(entry.arch_refs.size());
  for (const auto& [arch, refs] : entry.arch_refs) {
    digest.absorb_u64(static_cast<std::uint64_t>(arch));
    absorb_features(digest, refs.vulnerable_features);
    absorb_features(digest, refs.patched_features);
    absorb_profile(digest, refs.vulnerable_profile);
    absorb_profile(digest, refs.patched_profile);
  }
  return digest;
}

std::string features_cache_key(const Digest& library) {
  return "feat-" + library.hex();
}

std::string outcome_cache_key(const Digest& library, const Digest& model,
                              const Digest& config, const Digest& entry,
                              bool query_is_patched) {
  Digest key;
  for (const Digest* part : {&library, &model, &config, &entry}) {
    const Digest::Value value = part->value();
    key.absorb_u64(value.hi);
    key.absorb_u64(value.lo);
  }
  key.absorb_u64(query_is_patched ? 1 : 0);
  return "det-" + key.hex();
}

// --- serialization ---------------------------------------------------------

std::vector<std::uint8_t> serialize_features(
    const std::vector<StaticFeatureVector>& features) {
  std::vector<std::uint8_t> out;
  out.reserve(16 + features.size() * static_feature_count * sizeof(double));
  append_bytes(out, kFeatureMagic, sizeof(kFeatureMagic));
  append_u64(out, kFormatVersion);
  append_u64(out, features.size());
  for (const StaticFeatureVector& vector : features)
    append_bytes(out, vector.data(), vector.size() * sizeof(double));
  return out;
}

std::optional<std::vector<StaticFeatureVector>> deserialize_features(
    const std::vector<std::uint8_t>& bytes) {
  Reader reader{bytes};
  if (!check_magic(reader, kFeatureMagic)) return std::nullopt;
  const std::uint64_t count = reader.read_u64();
  if (!reader.fits(count, static_feature_count * sizeof(double)))
    return std::nullopt;
  std::vector<StaticFeatureVector> features(
      static_cast<std::size_t>(count));
  for (StaticFeatureVector& vector : features)
    reader.read(vector.data(), vector.size() * sizeof(double));
  if (!reader.ok || reader.pos != bytes.size()) return std::nullopt;
  return features;
}

std::vector<std::uint8_t> serialize_outcome(const DetectionOutcome& outcome) {
  std::vector<std::uint8_t> out;
  append_bytes(out, kOutcomeMagic, sizeof(kOutcomeMagic));
  append_u64(out, kFormatVersion);
  append_string(out, outcome.cve_id);
  append_u64(out, outcome.query_is_patched ? 1 : 0);
  append_u64(out, outcome.total);
  append_i64(out, outcome.true_positives);
  append_i64(out, outcome.true_negatives);
  append_i64(out, outcome.false_positives);
  append_i64(out, outcome.false_negatives);
  append_u64(out, outcome.candidates.size());
  for (std::size_t index : outcome.candidates) append_u64(out, index);
  append_double(out, outcome.dl_seconds);
  append_u64(out, outcome.executed);
  append_u64(out, outcome.ranking.size());
  for (const RankedCandidate& ranked : outcome.ranking) {
    append_u64(out, ranked.function_index);
    append_double(out, ranked.distance);
    append_double(out, ranked.secondary);
  }
  append_i64(out, outcome.rank_of_target);
  append_double(out, outcome.da_seconds);
  append_u64(out, static_cast<std::uint64_t>(outcome.prefilter_mode));
  append_u64(out, outcome.prefilter_exact_fallback ? 1 : 0);
  append_u64(out, outcome.prefilter_shortlist);
  // Provenance doubles serialize as raw bits (append_double memcpys), so
  // NaN/inf sentinels and every finite value round-trip bitwise — a warm
  // scan reproduces byte-identical provenance.
  const obs::StageRecord& provenance = outcome.provenance;
  append_double(out, provenance.threshold);
  append_double(out, provenance.minkowski_p);
  append_u64(out, provenance.total);
  append_u64(out, provenance.executed);
  append_u64(out, provenance.prefilter);
  append_u64(out, provenance.prefilter_shortlist);
  append_u64(out, provenance.candidates.size());
  for (const obs::CandidateRecord& candidate : provenance.candidates) {
    append_u64(out, candidate.function_index);
    append_double(out, candidate.dl_score);
    append_u64(out, candidate.validated ? 1 : 0);
    append_i64(out, candidate.crash_env);
    append_u64(out, candidate.env_distances.size());
    for (double distance : candidate.env_distances)
      append_double(out, distance);
    append_double(out, candidate.distance);
    append_i64(out, candidate.rank);
  }
  return out;
}

std::optional<DetectionOutcome> deserialize_outcome(
    const std::vector<std::uint8_t>& bytes) {
  Reader reader{bytes};
  if (!check_magic(reader, kOutcomeMagic)) return std::nullopt;
  DetectionOutcome outcome;
  outcome.cve_id = reader.read_string();
  outcome.query_is_patched = reader.read_u64() != 0;
  outcome.total = static_cast<std::size_t>(reader.read_u64());
  outcome.true_positives = static_cast<int>(reader.read_i64());
  outcome.true_negatives = static_cast<int>(reader.read_i64());
  outcome.false_positives = static_cast<int>(reader.read_i64());
  outcome.false_negatives = static_cast<int>(reader.read_i64());
  const std::uint64_t candidate_count = reader.read_u64();
  if (!reader.fits(candidate_count, sizeof(std::uint64_t)))
    return std::nullopt;
  outcome.candidates.resize(static_cast<std::size_t>(candidate_count));
  for (std::size_t& index : outcome.candidates)
    index = static_cast<std::size_t>(reader.read_u64());
  outcome.dl_seconds = reader.read_double();
  outcome.executed = static_cast<std::size_t>(reader.read_u64());
  const std::uint64_t ranked_count = reader.read_u64();
  if (!reader.fits(ranked_count, 24)) return std::nullopt;
  outcome.ranking.resize(static_cast<std::size_t>(ranked_count));
  for (RankedCandidate& ranked : outcome.ranking) {
    ranked.function_index = static_cast<std::size_t>(reader.read_u64());
    ranked.distance = reader.read_double();
    ranked.secondary = reader.read_double();
  }
  outcome.rank_of_target = static_cast<int>(reader.read_i64());
  outcome.da_seconds = reader.read_double();
  outcome.prefilter_mode =
      static_cast<retrieval::PrefilterMode>(reader.read_u64());
  outcome.prefilter_exact_fallback = reader.read_u64() != 0;
  outcome.prefilter_shortlist = static_cast<std::size_t>(reader.read_u64());
  obs::StageRecord& provenance = outcome.provenance;
  provenance.threshold = reader.read_double();
  provenance.minkowski_p = reader.read_double();
  provenance.total = reader.read_u64();
  provenance.executed = reader.read_u64();
  provenance.prefilter = static_cast<std::uint8_t>(reader.read_u64());
  provenance.prefilter_shortlist = reader.read_u64();
  const std::uint64_t record_count = reader.read_u64();
  if (!reader.fits(record_count, 8)) return std::nullopt;
  provenance.candidates.resize(static_cast<std::size_t>(record_count));
  for (obs::CandidateRecord& candidate : provenance.candidates) {
    candidate.function_index = reader.read_u64();
    candidate.dl_score = reader.read_double();
    candidate.validated = reader.read_u64() != 0;
    candidate.crash_env = reader.read_i64();
    const std::uint64_t env_count = reader.read_u64();
    if (!reader.fits(env_count, sizeof(double))) return std::nullopt;
    candidate.env_distances.resize(static_cast<std::size_t>(env_count));
    for (double& distance : candidate.env_distances)
      distance = reader.read_double();
    candidate.distance = reader.read_double();
    candidate.rank = reader.read_i64();
  }
  if (!reader.ok || reader.pos != bytes.size()) return std::nullopt;
  return outcome;
}

// --- ResultCache -----------------------------------------------------------

ResultCache::ResultCache(std::string disk_dir, bool enabled)
    : dir_(std::move(disk_dir)), enabled_(enabled) {
  if (enabled_ && !dir_.empty()) disk_.emplace(dir_);
}

template <typename T>
std::optional<T> ResultCache::find(
    std::unordered_map<std::string, T>& memory, const std::string& key,
    bool outcome,
    std::optional<T> (*decode)(const std::vector<std::uint8_t>&)) {
  if (enabled_) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = memory.find(key);
    if (it != memory.end()) {
      count_lookup(outcome, /*hit=*/true, /*from_disk=*/false);
      return it->second;
    }
  }
  // The file read, its verification and the decode run unlocked, so workers
  // missing different keys never queue behind each other's IO.
  std::optional<T> loaded;
  if (disk_) {
    if (const auto payload = disk_->get(Bytes(key.begin(), key.end())))
      loaded = decode(*payload);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  count_lookup(outcome, loaded.has_value(), loaded.has_value());
  if (loaded) memory.emplace(key, *loaded);
  return loaded;
}

template <typename T>
void ResultCache::store(std::unordered_map<std::string, T>& memory,
                        const std::string& key, const T& value,
                        std::vector<std::uint8_t> (*encode)(const T&)) {
  if (!enabled_) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    memory[key] = value;
    ++stats_.stores;
    CacheMetrics::get().stores.add();
  }
  if (disk_) disk_->put(Bytes(key.begin(), key.end()), encode(value));
}

void ResultCache::count_lookup(bool outcome, bool hit, bool from_disk) {
  CacheMetrics& metrics = CacheMetrics::get();
  if (hit) {
    ++(outcome ? stats_.outcome_hits : stats_.feature_hits);
    (outcome ? metrics.outcome_hits : metrics.feature_hits).add();
  } else {
    ++(outcome ? stats_.outcome_misses : stats_.feature_misses);
    (outcome ? metrics.outcome_misses : metrics.feature_misses).add();
  }
  if (from_disk) {
    ++stats_.disk_loads;
    metrics.disk_loads.add();
  }
}

std::optional<std::vector<StaticFeatureVector>> ResultCache::find_features(
    const std::string& key) {
  return find(features_, key, /*outcome=*/false, &deserialize_features);
}

void ResultCache::store_features(
    const std::string& key, const std::vector<StaticFeatureVector>& features) {
  store(features_, key, features, &serialize_features);
}

std::shared_ptr<const retrieval::FunctionIndex> ResultCache::find_index(
    const std::string& key) const {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = indexes_.find(key);
  return it == indexes_.end() ? nullptr : it->second;
}

void ResultCache::store_index(
    const std::string& key,
    std::shared_ptr<const retrieval::FunctionIndex> index) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  indexes_[key] = std::move(index);
}

std::optional<DetectionOutcome> ResultCache::find_outcome(
    const std::string& key) {
  return find(outcomes_, key, /*outcome=*/true, &deserialize_outcome);
}

void ResultCache::store_outcome(const std::string& key,
                                const DetectionOutcome& outcome) {
  store(outcomes_, key, outcome, &serialize_outcome);
}

void ResultCache::clear_memory() {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheMetrics::get().evictions.add(features_.size() + outcomes_.size());
  features_.clear();
  indexes_.clear();
  outcomes_.clear();
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace patchecko
