// Content-addressed on-disk store of prebuilt corpus artifacts.
//
// Every scan, bench and CI run used to rebuild the evaluation corpus and
// CVE database from MiniC source through the whole compiler/fuzzer/profiler
// pipeline — the single biggest wall-clock cost in the repo (ROADMAP item
// 4). The store persists those build products once and serves them back
// content-addressed: an artifact is keyed by
//   (kind, source fingerprint, arch, opt level, compiler version,
//    generator params)
// so any input change — different source ASTs, a compiler bump, another
// fuzz budget — misses and rebuilds, while an unchanged matrix is served
// without touching the compiler at all.
//
// Disk layout and object format come from the shared blob layer
// (blob/blob_store.h):
//   <root>/store.json              manifest (deterministic JSON)
//   <root>/objects/<hh>/<hex>.bin  one verified container per key digest
// Each container echoes the full key back and carries a payload digest, so
// a swapped, truncated or bit-flipped object degrades to a miss on load()
// (cache-poisoning guard) — the caller rebuilds and overwrites.
//
// The manifest tracks a monotonically increasing build generation; every
// key a `corpus build` run requests (hit or miss) is stamped with that
// run's generation, and gc() drops whatever the latest build no longer
// referenced.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "blob/blob_store.h"
#include "isa/isa.h"

namespace patchecko::corpus {

/// Identity of one prebuilt artifact. `params` is a canonical human-readable
/// rendering of every generator input not covered by the other fields
/// (seeds, fuzz budgets, entry index, ...): two producers that disagree on
/// any byte of it address different objects.
struct ArtifactKey {
  std::string kind;  ///< "library" | "entry"
  std::uint64_t source_fingerprint = 0;  ///< fingerprint_library + extras
  Arch arch = Arch::amd64;
  OptLevel opt = OptLevel::O2;
  std::uint64_t compiler_version = 0;  ///< kCompilerVersion at build time
  std::string params;

  friend bool operator==(const ArtifactKey& a, const ArtifactKey& b) {
    return a.kind == b.kind && a.source_fingerprint == b.source_fingerprint &&
           a.arch == b.arch && a.opt == b.opt &&
           a.compiler_version == b.compiler_version && a.params == b.params;
  }
  friend bool operator!=(const ArtifactKey& a, const ArtifactKey& b) {
    return !(a == b);
  }
};

/// 128-bit address of the key (object filename = digest.hex()).
Digest key_digest(const ArtifactKey& key);
/// Canonical one-line rendering for manifests and error messages.
std::string key_to_string(const ArtifactKey& key);

/// Per-store lifetime counters plus manifest totals.
struct StoreStats {
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;       ///< summed container sizes (manifest)
  std::uint64_t generation = 0;  ///< latest build generation
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t gc_reclaimed_bytes = 0;
};

struct VerifyIssue {
  std::string object;  ///< object hex (or relative path for orphans)
  std::string key;     ///< key_to_string of the manifest entry, if known
  std::string detail;
};

struct GcResult {
  std::uint64_t removed_objects = 0;
  std::uint64_t reclaimed_bytes = 0;
};

/// Thread-safe store handle. Object reads/writes are safe across processes
/// too (atomic rename-into-place); the manifest is last-writer-wins, which
/// is fine because any object a racing manifest forgot is re-adopted (or
/// reported as an orphan by verify()) rather than misread.
class PrebuiltStore {
 public:
  explicit PrebuiltStore(std::string root);

  const std::string& root() const { return blobs_.root(); }
  std::uint64_t generation() const;

  /// Manifest-level membership plus an on-disk existence check (a manifest
  /// that lies about a deleted object must not count as warm).
  bool contains(const ArtifactKey& key) const;

  /// Returns the payload, or nullopt on miss, truncation, bit-flip, or a
  /// key echo that does not match `key` (poisoning guard). A failed load
  /// counts as a miss; the caller rebuilds and put()s.
  std::optional<std::vector<std::uint8_t>> load(const ArtifactKey& key);

  /// Serializes `payload` into a container and renames it into place.
  void put(const ArtifactKey& key, const std::vector<std::uint8_t>& payload);

  /// Stamps the key's manifest entry with the current generation (liveness
  /// for gc). Called for hits; put() stamps implicitly.
  void touch(const ArtifactKey& key);

  /// Bumps the build generation; artifacts not touched afterwards become
  /// gc-eligible once flush()ed.
  std::uint64_t begin_generation();

  /// Writes store.json atomically. Returns false on IO failure.
  bool flush();

  /// Full integrity pass: every manifest entry must exist on disk, parse,
  /// match its recorded size, echo the key it is filed under, and carry a
  /// payload digest that matches the payload bytes; every on-disk object
  /// must appear in the manifest. Returns the first problem found (in
  /// sorted object order, so failures are deterministic) or nullopt.
  std::optional<VerifyIssue> verify();

  /// Drops manifest entries whose generation predates the current one plus
  /// on-disk orphans. With dry_run the store is not modified.
  GcResult gc(bool dry_run);

  StoreStats stats() const;

  /// One JSON object rendering stats() plus the store root — the
  /// `corpus_store` block in the serve daemon's health/stats payloads and
  /// the `corpus stats --json` output.
  std::string stats_json() const;

 private:
  struct ManifestEntry {
    std::string key;  ///< key_to_string rendering
    std::string kind;
    std::uint64_t bytes = 0;
    std::uint64_t generation = 0;
  };

  void read_manifest();

  blob::BlobStore blobs_;  ///< owns the root and <root>/objects
  mutable std::mutex mutex_;
  // hex digest -> manifest entry; kept sorted on flush for deterministic
  // manifests (std::map iterates in key order).
  std::map<std::string, ManifestEntry> entries_;
  std::uint64_t generation_ = 0;
  bool manifest_parse_failed_ = false;
  StoreStats counters_;  ///< hits/misses/stores/gc for this handle
};

}  // namespace patchecko::corpus
