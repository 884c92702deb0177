#include "corpus/store.h"

#include <cstdio>
#include <filesystem>

#include "obs/json.h"
#include "obs/metrics.h"

namespace patchecko::corpus {

namespace fs = std::filesystem;

namespace {

/// Process-wide mirrors of the per-store counters, aggregated across every
/// PrebuiltStore instance (feeds `--metrics` export and the serve daemon's
/// corpus_store health block).
struct StoreMetrics {
  obs::Counter& hits = obs::Registry::global().counter("corpus.store.hits");
  obs::Counter& misses =
      obs::Registry::global().counter("corpus.store.misses");
  obs::Counter& stores =
      obs::Registry::global().counter("corpus.store.stores");
  obs::Counter& gc_reclaimed =
      obs::Registry::global().counter("corpus.store.gc_reclaimed");
  obs::Gauge& bytes = obs::Registry::global().gauge("corpus.store.bytes");
  obs::Gauge& entries =
      obs::Registry::global().gauge("corpus.store.entries");

  static StoreMetrics& get() {
    static StoreMetrics metrics;
    return metrics;
  }
};

constexpr std::uint64_t kManifestSchema = 1;

/// The container echo: every key field. key_digest (the object address) is
/// the Digest of exactly these bytes.
blob::Bytes key_echo(const ArtifactKey& key) {
  blob::Bytes out;
  blob::append_string(out, key.kind);
  blob::append_u64(out, key.source_fingerprint);
  blob::append_u64(out, static_cast<std::uint64_t>(key.arch));
  blob::append_u64(out, static_cast<std::uint64_t>(key.opt));
  blob::append_u64(out, key.compiler_version);
  blob::append_string(out, key.params);
  return out;
}

}  // namespace

// --- key -------------------------------------------------------------------

Digest key_digest(const ArtifactKey& key) {
  return blob::BlobStore::address(key_echo(key));
}

std::string key_to_string(const ArtifactKey& key) {
  char fingerprint[17] = {};
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(key.source_fingerprint));
  return key.kind + " src=" + fingerprint + " arch=" +
         std::string(arch_name(key.arch)) + " opt=" +
         std::string(opt_level_name(key.opt)) + " cc=" +
         std::to_string(key.compiler_version) + " " + key.params;
}

// --- PrebuiltStore ---------------------------------------------------------

PrebuiltStore::PrebuiltStore(std::string root) : blobs_(std::move(root)) {
  read_manifest();
}

std::uint64_t PrebuiltStore::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

std::uint64_t PrebuiltStore::begin_generation() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++generation_;
}

bool PrebuiltStore::contains(const ArtifactKey& key) const {
  const std::string hex = key_digest(key).hex();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.find(hex) == entries_.end()) return false;
  }
  std::error_code ec;
  return fs::exists(blobs_.path(hex), ec);
}

std::optional<std::vector<std::uint8_t>> PrebuiltStore::load(
    const ArtifactKey& key) {
  std::uint64_t stored_bytes = 0;
  auto payload = blobs_.get(key_echo(key), &stored_bytes);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!payload) {
    ++counters_.misses;
    StoreMetrics::get().misses.add();
    return std::nullopt;
  }
  ++counters_.hits;
  StoreMetrics::get().hits.add();
  // An object another process wrote since our manifest snapshot is adopted
  // so flush()/gc() account for it.
  ManifestEntry& entry = entries_[key_digest(key).hex()];
  if (entry.key.empty())
    entry = {key_to_string(key), key.kind, stored_bytes, 0};
  entry.generation = generation_;
  return payload;
}

void PrebuiltStore::put(const ArtifactKey& key,
                        const std::vector<std::uint8_t>& payload) {
  const std::uint64_t stored_bytes = blobs_.put(key_echo(key), payload);
  if (stored_bytes == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.stores;
  StoreMetrics::get().stores.add();
  entries_[key_digest(key).hex()] = {key_to_string(key), key.kind,
                                     stored_bytes, generation_};
}

void PrebuiltStore::touch(const ArtifactKey& key) {
  const std::string hex = key_digest(key).hex();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(hex);
  if (it != entries_.end()) it->second.generation = generation_;
}

// --- manifest --------------------------------------------------------------

void PrebuiltStore::read_manifest() {
  const auto bytes =
      blob::read_file((fs::path(root()) / "store.json").string());
  if (!bytes) return;  // fresh store
  const std::string text(bytes->begin(), bytes->end());
  const auto parsed = obs::json::parse(text);
  using obs::json::Value;
  if (!parsed || parsed->kind() != Value::Kind::object ||
      parsed->get("type").as_string() != "corpus-store" ||
      parsed->get("schema_version").as_number() !=
          static_cast<double>(kManifestSchema)) {
    manifest_parse_failed_ = true;
    return;
  }
  generation_ =
      static_cast<std::uint64_t>(parsed->get("generation").as_number());
  const Value& entries = parsed->get("entries");
  if (entries.kind() != Value::Kind::object) {
    manifest_parse_failed_ = true;
    return;
  }
  for (const auto& [hex, value] : entries.as_object()) {
    if (value.kind() != Value::Kind::object) continue;
    entries_.emplace(
        hex, ManifestEntry{
                 value.get("key").as_string(), value.get("kind").as_string(),
                 static_cast<std::uint64_t>(value.get("bytes").as_number()),
                 static_cast<std::uint64_t>(
                     value.get("generation").as_number())});
  }
}

bool PrebuiltStore::flush() {
  std::string out = "{\"type\":\"corpus-store\",\"schema_version\":" +
                    std::to_string(kManifestSchema);
  std::lock_guard<std::mutex> lock(mutex_);
  out += ",\"generation\":" + std::to_string(generation_) + ",\"entries\":{";
  bool first = true;
  for (const auto& [hex, entry] : entries_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + hex + "\":{\"key\":";
    obs::json::append_string(out, entry.key);
    out += ",\"kind\":";
    obs::json::append_string(out, entry.kind);
    out += ",\"bytes\":" + std::to_string(entry.bytes) +
           ",\"generation\":" + std::to_string(entry.generation) + "}";
  }
  out += "}}\n";
  return blob::write_file((fs::path(root()) / "store.json").string(),
                          blob::Bytes(out.begin(), out.end()));
}

std::optional<VerifyIssue> PrebuiltStore::verify() {
  std::map<std::string, ManifestEntry> entries;
  bool parse_failed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries = entries_;
    parse_failed = manifest_parse_failed_;
  }
  if (parse_failed)
    return VerifyIssue{"store.json", "", "manifest is unparseable"};

  for (const auto& [hex, entry] : entries) {
    const auto issue = [&](const std::string& detail) {
      return VerifyIssue{hex, entry.key, detail};
    };
    auto bytes = blob::read_file(blobs_.path(hex));
    if (!bytes) return issue("object missing on disk");
    if (bytes->size() != entry.bytes)
      return issue("size drift: manifest says " +
                   std::to_string(entry.bytes) + " bytes, disk has " +
                   std::to_string(bytes->size()));
    std::string detail;
    const auto sealed = blob::open(std::move(*bytes), &detail);
    if (!sealed) return issue(detail);
    // The container's echoed key must hash to the address it is filed
    // under — a swapped object fails here even when internally consistent.
    if (blob::BlobStore::address(sealed->echo).hex() != hex)
      return issue("key echo does not match object address");
  }

  for (const auto& [hex, path] : blobs_.list()) {
    if (entries.find(hex) == entries.end())
      return VerifyIssue{path, "", "object not in manifest"};
  }
  return std::nullopt;
}

GcResult PrebuiltStore::gc(bool dry_run) {
  GcResult result;
  std::lock_guard<std::mutex> lock(mutex_);
  // Pass 1: manifest entries not referenced by the current generation.
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.generation >= generation_) {
      ++it;
      continue;
    }
    ++result.removed_objects;
    result.reclaimed_bytes += it->second.bytes;
    if (dry_run) {
      ++it;
      continue;
    }
    std::error_code ec;
    fs::remove(blobs_.path(it->first), ec);
    it = entries_.erase(it);
  }
  // Pass 2: on-disk objects (and stale temp files) the manifest does not
  // know about.
  const fs::path objects = fs::path(root()) / "objects";
  std::error_code ec;
  for (fs::recursive_directory_iterator it(objects, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const fs::path path = it->path();
    const bool tracked = path.extension() == ".bin" &&
                         entries_.find(path.stem().string()) != entries_.end();
    if (tracked) continue;
    ++result.removed_objects;
    result.reclaimed_bytes += static_cast<std::uint64_t>(it->file_size(ec));
    if (!dry_run) fs::remove(path, ec);
  }
  if (!dry_run) {
    counters_.gc_reclaimed_bytes += result.reclaimed_bytes;
    StoreMetrics::get().gc_reclaimed.add(result.reclaimed_bytes);
  }
  return result;
}

StoreStats PrebuiltStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StoreStats stats = counters_;
  stats.generation = generation_;
  stats.entries = entries_.size();
  stats.bytes = 0;
  for (const auto& [hex, entry] : entries_) stats.bytes += entry.bytes;
  StoreMetrics::get().entries.set(static_cast<std::int64_t>(stats.entries));
  StoreMetrics::get().bytes.set(static_cast<std::int64_t>(stats.bytes));
  return stats;
}

std::string PrebuiltStore::stats_json() const {
  const StoreStats totals = stats();
  std::string out = "{\"dir\":";
  obs::json::append_string(out, root());
  out += ",\"entries\":" + std::to_string(totals.entries) +
         ",\"bytes\":" + std::to_string(totals.bytes) +
         ",\"generation\":" + std::to_string(totals.generation) +
         ",\"hits\":" + std::to_string(totals.hits) +
         ",\"misses\":" + std::to_string(totals.misses) +
         ",\"stores\":" + std::to_string(totals.stores) +
         ",\"gc_reclaimed_bytes\":" +
         std::to_string(totals.gc_reclaimed_bytes) + "}";
  return out;
}

}  // namespace patchecko::corpus
