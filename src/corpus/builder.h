// Incremental population of the prebuilt-corpus store and the store-backed
// CorpusSnapshot warm path.
//
// build_store() walks the requested (arch, opt) matrix over the
// deterministic evaluation corpus, computes every artifact key, and builds
// only the missing ones — in parallel on the PR 1 work-stealing pool. A
// second run over an unchanged matrix performs zero recompiles.
//
// load_snapshot() assembles a CorpusSnapshot from stored CveEntry artifacts
// instead of re-running the compiler/fuzzer/profiler pipeline: source
// regeneration (cheap, deterministic) still happens, the expensive database
// build does not. Missing or corrupt entries fall back to a cold build of
// just that entry and are written back, so a partially-populated store
// self-heals. The assembled snapshot is bit-identical to a cold one: entry
// fuzz streams are re-derived with the same rng fork walk the cold
// CveDatabase constructor uses.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "corpus/store.h"
#include "engine/corpus_store.h"

namespace patchecko::corpus {

/// One `corpus build` request: the evaluation universe plus the library
/// build matrix. Empty arches/opts default to the database reference
/// settings; the (db_arch, db_opt) cell is always included because CveEntry
/// builds load their reference library from it.
struct BuildMatrix {
  EvalConfig eval;
  DatabaseConfig database;
  std::vector<Arch> arches;
  std::vector<OptLevel> opts;
  unsigned jobs = 1;
};

struct BuildReport {
  std::uint64_t requested = 0;  ///< keys the matrix asked for
  std::uint64_t reused = 0;     ///< already present (no recompile)
  std::uint64_t built = 0;      ///< compiled + stored this run
  std::uint64_t library_artifacts = 0;
  std::uint64_t entry_artifacts = 0;
  double build_seconds = 0.0;
};

/// Key of library `lib` compiled at (arch, opt) with the vulnerable versions
/// in place — the (db_arch, db_opt) cell is byte-identical to
/// EvalCorpus::compile_reference output.
ArtifactKey library_variant_key(const EvalCorpus& corpus, std::size_t lib,
                                Arch arch, OptLevel opt);

BuildReport build_store(PrebuiltStore& store, const BuildMatrix& matrix);

struct SnapshotLoadStats {
  std::uint64_t entries_loaded = 0;  ///< deserialized from the store
  std::uint64_t entries_built = 0;   ///< cold-built fallbacks
  // Wall seconds of the warm path's three parts.
  double corpus_seconds = 0.0;       ///< EvalCorpus generation (load_snapshot)
  double fingerprint_seconds = 0.0;  ///< per-library source fingerprints
  double entry_read_seconds = 0.0;   ///< entry loads and cold fallbacks
};

/// The warm database path on its own: assembles a CveDatabase for `corpus`
/// from stored entry artifacts (cold-building and healing misses). The
/// bench harness uses this directly; load_snapshot wraps it in a full
/// CorpusSnapshot.
CveDatabase load_database(PrebuiltStore& store, const EvalCorpus& corpus,
                          const DatabaseConfig& config,
                          SnapshotLoadStats* stats = nullptr);

std::shared_ptr<const CorpusSnapshot> load_snapshot(
    PrebuiltStore& store, std::uint64_t version, const EvalConfig& eval,
    const DatabaseConfig& config, SnapshotLoadStats* stats = nullptr);

/// Adapts load_snapshot to the engine's CorpusStore hook: `patchecko serve
/// --corpus-dir` swaps this in so startup and SIGHUP reloads read the store
/// instead of recompiling.
CorpusStore::SnapshotBuilder store_backed_builder(
    std::shared_ptr<PrebuiltStore> store);

}  // namespace patchecko::corpus
