// Content-addressed result cache for the batch scan engine.
//
// The expensive per-scan work — feature extraction, DL scoring, Stage-2
// dynamic validation and the differential stage — depends only on (library
// bytes, model weights, pipeline config, CVE reference data). Large-scale
// scans re-visit the same firmware and CVE sets constantly, so results are
// stored under a digest of exactly those inputs. Two result kinds are
// cached, in memory and optionally as files in a cache directory:
//   * a ScanEntry, one CVE's whole result against one library (both
//     detection outcomes and the patch report), keyed by (library, model,
//     config, CVE entry), and
//   * the per-function StaticFeatureVector set of an analyzed library,
//     keyed by the library's content key.
// A warm scan reads one ScanEntry per CVE and nothing else: a library's
// features are read (or extracted) only when one of its CVEs missed.
// A library has one content key: the Digest of its PKLB record
// (digest_library, binary/binary.h). load_firmware takes it from the bytes
// it decodes (FirmwareImage::library_keys), so a scan of a loaded image
// digests nothing; the same value is the key in every process.
// The config digest deliberately excludes worker_threads: parallelism never
// changes results, so a cache populated at --jobs 8 serves --jobs 1 runs.
//
// The disk tier is a blob::BlobStore under the cache directory
// (<dir>/objects/<hh>/<hex>.bin): every entry echoes its key and carries a
// payload digest, so a bit-flipped, truncated or misfiled file is a miss,
// never a hit. The memory tier also keeps the retrieval index built over a
// features entry, under the same key, so a warm hit never rebuilds it; the
// index is never written to disk. The mutex guards only the memory maps and
// the counters; file reads, verification and (de)serialization run outside
// it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "blob/blob_store.h"
#include "core/cve_database.h"
#include "core/pipeline.h"
#include "dl/similarity_model.h"

namespace patchecko {

/// Digest of model weights, biases, and the fitted normalizer.
Digest digest_model(const SimilarityModel& model);
/// Digest of every config field that influences results. Excludes
/// worker_threads (see file comment).
Digest digest_pipeline_config(const PipelineConfig& config);
/// Digest of a CVE entry's reference data as the pipeline consumes it:
/// id, reference features, differential signatures, environments, and
/// dynamic reference profiles.
Digest digest_entry(const CveEntry& entry);

/// One CVE's complete result against one library, as the cache holds it.
struct ScanEntry {
  DetectionOutcome from_vulnerable;
  DetectionOutcome from_patched;
  PatchReport report;
};

std::string features_cache_key(const Digest& library);
std::string scan_cache_key(const Digest& library, const Digest& model,
                           const Digest& config, const Digest& entry);
/// The per-direction outcome key, scan_cache_key's inputs plus the query
/// direction. Only perfbench's traced replay still files outcomes under it;
/// it goes when that replay does (ROADMAP item 3(d)).
std::string outcome_cache_key(const Digest& library, const Digest& model,
                              const Digest& config, const Digest& entry,
                              bool query_is_patched);

// Binary (de)serialization. Deserializers return nullopt on any malformed
// or truncated input (a corrupt cache file degrades to a miss, never UB).
std::vector<std::uint8_t> serialize_features(
    const std::vector<StaticFeatureVector>& features);
std::optional<std::vector<StaticFeatureVector>> deserialize_features(
    const std::vector<std::uint8_t>& bytes);
std::vector<std::uint8_t> serialize_outcome(const DetectionOutcome& outcome);
std::optional<DetectionOutcome> deserialize_outcome(
    const std::vector<std::uint8_t>& bytes);
/// Both outcomes in serialize_outcome's encoding, then the patch report.
/// Doubles are stored as raw bits, so NaN and inf round-trip exactly.
std::vector<std::uint8_t> serialize_scan(const ScanEntry& scan);
std::optional<ScanEntry> deserialize_scan(
    const std::vector<std::uint8_t>& bytes);

/// `outcome_*` count ScanEntry lookups, one per CVE a scan probes (and the
/// traced replay's per-direction lookups).
struct CacheStats {
  std::uint64_t feature_hits = 0;
  std::uint64_t feature_misses = 0;
  std::uint64_t outcome_hits = 0;
  std::uint64_t outcome_misses = 0;
  std::uint64_t disk_loads = 0;  ///< hits served from disk, not memory
  std::uint64_t stores = 0;

  std::uint64_t hits() const { return feature_hits + outcome_hits; }
  std::uint64_t misses() const { return feature_misses + outcome_misses; }
};

/// Thread-safe two-level (memory, then disk) cache. With an empty directory
/// the cache is memory-only; disabled() makes every lookup a miss.
class ResultCache {
 public:
  ResultCache() = default;
  explicit ResultCache(std::string disk_dir, bool enabled = true);

  bool enabled() const { return enabled_; }
  const std::string& directory() const { return dir_; }

  std::optional<std::vector<StaticFeatureVector>> find_features(
      const std::string& key);
  void store_features(const std::string& key,
                      const std::vector<StaticFeatureVector>& features);

  /// Memory tier only: the retrieval index retained beside the features
  /// stored under `key`, or null. The engine only ever builds the default
  /// retrieval::IndexConfig, so the features key alone names the index; a
  /// caller building another config would have to add its fields to the
  /// key.
  std::shared_ptr<const retrieval::FunctionIndex> find_index(
      const std::string& key) const;
  void store_index(const std::string& key,
                   std::shared_ptr<const retrieval::FunctionIndex> index);

  std::optional<ScanEntry> find_scan(const std::string& key);
  void store_scan(const std::string& key, const ScanEntry& scan);

  /// Per-direction outcomes: used only by perfbench's traced replay, to be
  /// deleted with it (ROADMAP item 3(d)). The engine never reads them.
  std::optional<DetectionOutcome> find_outcome(const std::string& key);
  void store_outcome(const std::string& key, const DetectionOutcome& outcome);

  /// Drops the in-memory maps and the retained indexes (disk files stay);
  /// used to measure the disk-hit path.
  void clear_memory();

  CacheStats stats() const;

 private:
  template <typename T>
  std::optional<T> find(std::unordered_map<std::string, T>& memory,
                        const std::string& key, bool outcome,
                        std::optional<T> (*decode)(
                            const std::vector<std::uint8_t>&));
  template <typename T>
  void store(std::unordered_map<std::string, T>& memory,
             const std::string& key, const T& value,
             std::vector<std::uint8_t> (*encode)(const T&));
  /// Books one lookup in stats_ and the process-wide counters; mutex_ held.
  void count_lookup(bool outcome, bool hit, bool from_disk);

  /// Guards features_, indexes_, outcomes_, scans_ and stats_.
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::vector<StaticFeatureVector>> features_;
  std::unordered_map<std::string,
                     std::shared_ptr<const retrieval::FunctionIndex>>
      indexes_;  ///< keyed like features_
  std::unordered_map<std::string, DetectionOutcome> outcomes_;
  std::unordered_map<std::string, ScanEntry> scans_;
  std::string dir_;
  bool enabled_ = true;
  std::optional<blob::BlobStore> disk_;  ///< set when enabled with a dir
  CacheStats stats_;
};

}  // namespace patchecko
