#include "corpus/builder.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "compiler/compiler.h"
#include "corpus/serialize.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "source/fingerprint.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace patchecko::corpus {

namespace {

std::uint64_t combine(std::uint64_t a, std::uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

std::string hex_u64(std::uint64_t value) {
  char out[17] = {};
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(value));
  return out;
}

/// append_exact round-trips every double bit-exactly, so two processes
/// render the same scale to the same params string.
std::string eval_params(const EvalConfig& eval) {
  std::string params = "scale=";
  obs::json::append_exact(params, eval.scale);
  return params + " seed=" + hex_u64(eval.seed);
}

/// Every DatabaseConfig / FuzzConfig / MachineConfig field that can change
/// a built entry. A new knob added without extending this string would
/// silently serve stale entries — keep it exhaustive.
std::string database_params(const DatabaseConfig& config) {
  std::string arches;
  for (const Arch arch : config.ref_arches) {
    if (!arches.empty()) arches += ",";
    arches += std::string(arch_name(arch));
  }
  return "dbseed=" + hex_u64(config.seed) + " ref_opt=" +
         std::string(opt_level_name(config.ref_opt)) + " ref_arches=" +
         arches + " fuzz=" + std::to_string(config.fuzz.env_count) + "," +
         std::to_string(config.fuzz.attempts) + "," +
         std::to_string(config.fuzz.min_buffer) + "," +
         std::to_string(config.fuzz.max_buffer) + " vm=" +
         std::to_string(config.fuzz.machine.step_limit) + "," +
         std::to_string(config.fuzz.machine.stack_size) + "," +
         std::to_string(config.fuzz.machine.max_call_depth) +
         // The value of the deleted collect_features switch, which was
         // always on; writing it keeps every stored corpus key.
         ",1";
}

/// fingerprint_library of every corpus library, one pool task each. Every
/// library and entry key needs its host library's fingerprint, which walks
/// the library's whole source, so each is computed once per build or load.
std::vector<std::uint64_t> library_fingerprints(const EvalCorpus& corpus) {
  std::vector<std::uint64_t> fingerprints(corpus.library_specs().size());
  parallel_for(fingerprints.size(),
               static_cast<unsigned>(fingerprints.size()),
               [&](std::size_t lib) {
                 fingerprints[lib] =
                     fingerprint_library(corpus.vulnerable_source(lib));
               });
  return fingerprints;
}

ArtifactKey library_key(const EvalCorpus& corpus, std::size_t lib,
                        std::uint64_t fingerprint, Arch arch, OptLevel opt) {
  ArtifactKey key;
  key.kind = "library";
  key.source_fingerprint = fingerprint;
  key.arch = arch;
  key.opt = opt;
  key.compiler_version = kCompilerVersion;
  key.params = "lib=" + std::to_string(lib) + " " +
               eval_params(corpus.config()) +
               " payload=" + std::to_string(kLibraryPayloadVersion);
  return key;
}

/// Key of hosted CVE `cve`'s database entry. `entry_index` is its position
/// in entries_in_build_order: it pins the entry's fuzz rng fork.
ArtifactKey entry_key(const EvalCorpus& corpus, const HostedCve& cve,
                      std::uint64_t library_fingerprint,
                      std::size_t entry_index, const DatabaseConfig& config) {
  ArtifactKey key;
  key.kind = "entry";
  key.source_fingerprint =
      combine(library_fingerprint, fingerprint_function(cve.pair.patched));
  key.arch = corpus.config().db_arch;
  key.opt = corpus.config().db_opt;
  key.compiler_version = kCompilerVersion;
  key.params = "cve=" + cve.spec.cve_id + " entry=" +
               std::to_string(entry_index) + " slot=" +
               std::to_string(cve.slot) + " " +
               eval_params(corpus.config()) + " " + database_params(config) +
               " payload=" + std::to_string(kEntryPayloadVersion);
  return key;
}

LibraryBinary compile_variant(const EvalCorpus& corpus, std::size_t lib,
                              Arch arch, OptLevel opt) {
  return compile_library(corpus.vulnerable_source(lib), arch, opt,
                         corpus.uid_base(lib));
}

obs::Histogram& build_seconds_histogram() {
  return obs::Registry::global().histogram("corpus.store.build_seconds");
}

/// Loads the reference library for `lib` from its (db_arch, db_opt) store
/// cell, compiling (and storing) it on a miss.
LibraryBinary reference_for(PrebuiltStore& store, const EvalCorpus& corpus,
                            std::size_t lib, std::uint64_t fingerprint) {
  const ArtifactKey key = library_key(corpus, lib, fingerprint,
                                      corpus.config().db_arch,
                                      corpus.config().db_opt);
  if (const auto bytes = store.load(key)) {
    if (auto library = deserialize_library_artifact(*bytes))
      return std::move(*library);
  }
  LibraryBinary library = corpus.compile_reference(lib);
  store.put(key, serialize_library_artifact(library));
  return library;
}

}  // namespace

ArtifactKey library_variant_key(const EvalCorpus& corpus, std::size_t lib,
                                Arch arch, OptLevel opt) {
  return library_key(corpus, lib,
                     fingerprint_library(corpus.vulnerable_source(lib)), arch,
                     opt);
}

BuildReport build_store(PrebuiltStore& store, const BuildMatrix& matrix) {
  const Stopwatch watch;
  BuildReport report;
  store.begin_generation();
  const EvalCorpus corpus(matrix.eval);
  const std::vector<std::uint64_t> fingerprints = library_fingerprints(corpus);

  // The library cell matrix, always including the database reference cell.
  std::vector<Arch> arches =
      matrix.arches.empty() ? std::vector<Arch>{matrix.eval.db_arch}
                            : matrix.arches;
  std::vector<OptLevel> opts =
      matrix.opts.empty() ? std::vector<OptLevel>{matrix.eval.db_opt}
                          : matrix.opts;
  std::vector<std::pair<Arch, OptLevel>> cells;
  for (const Arch arch : arches)
    for (const OptLevel opt : opts) cells.emplace_back(arch, opt);
  const std::pair<Arch, OptLevel> reference_cell{matrix.eval.db_arch,
                                                 matrix.eval.db_opt};
  if (std::find(cells.begin(), cells.end(), reference_cell) == cells.end())
    cells.push_back(reference_cell);

  struct LibraryJob {
    std::size_t lib;
    Arch arch;
    OptLevel opt;
    ArtifactKey key;
  };
  std::vector<LibraryJob> missing_libraries;
  for (std::size_t lib = 0; lib < corpus.library_specs().size(); ++lib) {
    for (const auto& [arch, opt] : cells) {
      ArtifactKey key = library_key(corpus, lib, fingerprints[lib], arch, opt);
      ++report.requested;
      ++report.library_artifacts;
      if (store.contains(key)) {
        store.touch(key);
        ++report.reused;
      } else {
        missing_libraries.push_back({lib, arch, opt, std::move(key)});
      }
    }
  }
  parallel_for(missing_libraries.size(), matrix.jobs, [&](std::size_t i) {
    const LibraryJob& job = missing_libraries[i];
    store.put(job.key, serialize_library_artifact(compile_variant(
                           corpus, job.lib, job.arch, job.opt)));
  });
  report.built += missing_libraries.size();

  // Entry artifacts. The rng fork walk is serial by construction (fork
  // advances the parent), so keys and streams are computed in build order
  // first; only the missing builds fan out on the pool.
  struct EntryJob {
    const HostedCve* cve;
    Rng fuzz_rng;
    ArtifactKey key;
  };
  std::vector<EntryJob> missing_entries;
  Rng rng(matrix.database.seed);
  const std::vector<const HostedCve*> ordered = entries_in_build_order(corpus);
  for (std::size_t index = 0; index < ordered.size(); ++index) {
    Rng fuzz_rng = rng.fork(0xF022 + index);
    ArtifactKey key = entry_key(corpus, *ordered[index],
                                fingerprints[ordered[index]->library_index],
                                index, matrix.database);
    ++report.requested;
    ++report.entry_artifacts;
    if (store.contains(key)) {
      store.touch(key);
      ++report.reused;
    } else {
      missing_entries.push_back({ordered[index], fuzz_rng, std::move(key)});
    }
  }
  // One reference library per distinct host library, loaded (or built)
  // before the parallel section so workers share it read-only.
  std::map<std::size_t, LibraryBinary> references;
  for (const EntryJob& job : missing_entries)
    if (references.find(job.cve->library_index) == references.end())
      references.emplace(
          job.cve->library_index,
          reference_for(store, corpus, job.cve->library_index,
                        fingerprints[job.cve->library_index]));
  parallel_for(missing_entries.size(), matrix.jobs, [&](std::size_t i) {
    const EntryJob& job = missing_entries[i];
    const CveEntry entry =
        build_cve_entry(corpus, *job.cve,
                        references.at(job.cve->library_index),
                        matrix.database, job.fuzz_rng);
    store.put(job.key, serialize_cve_entry(entry));
  });
  report.built += missing_entries.size();

  store.flush();
  report.build_seconds = watch.elapsed_seconds();
  build_seconds_histogram().record(report.build_seconds);
  return report;
}

CveDatabase load_database(PrebuiltStore& store, const EvalCorpus& corpus,
                          const DatabaseConfig& config,
                          SnapshotLoadStats* stats) {
  const obs::ScopedSpan span("setup.database");
  std::vector<CveEntry> entries;
  Rng rng(config.seed);
  // Cold-build fallbacks compile their reference library at most once per
  // host library.
  std::map<std::size_t, LibraryBinary> references;
  Stopwatch watch;
  const std::vector<std::uint64_t> fingerprints = library_fingerprints(corpus);
  if (stats != nullptr) stats->fingerprint_seconds = watch.elapsed_seconds();
  watch.restart();
  const std::vector<const HostedCve*> ordered = entries_in_build_order(corpus);
  entries.reserve(ordered.size());
  for (std::size_t index = 0; index < ordered.size(); ++index) {
    const HostedCve& cve = *ordered[index];
    // Forked unconditionally: entry N+1's stream depends on the parent rng
    // having advanced through entry N, warm or cold.
    Rng fuzz_rng = rng.fork(0xF022 + index);
    const ArtifactKey key = entry_key(corpus, cve,
                                      fingerprints[cve.library_index], index,
                                      config);
    if (const auto bytes = store.load(key)) {
      if (auto entry = deserialize_cve_entry(*bytes)) {
        entries.push_back(std::move(*entry));
        if (stats != nullptr) ++stats->entries_loaded;
        continue;
      }
    }
    // Miss or corrupt object: rebuild this entry cold and heal the store.
    auto reference = references.find(cve.library_index);
    if (reference == references.end())
      reference = references
                      .emplace(cve.library_index,
                               reference_for(store, corpus, cve.library_index,
                                             fingerprints[cve.library_index]))
                      .first;
    CveEntry entry = build_cve_entry(corpus, cve, reference->second, config,
                                     fuzz_rng);
    store.put(key, serialize_cve_entry(entry));
    if (stats != nullptr) ++stats->entries_built;
    entries.push_back(std::move(entry));
  }
  store.flush();
  if (stats != nullptr) stats->entry_read_seconds = watch.elapsed_seconds();
  return CveDatabase(std::move(entries));
}

std::shared_ptr<const CorpusSnapshot> load_snapshot(
    PrebuiltStore& store, std::uint64_t version, const EvalConfig& eval,
    const DatabaseConfig& config, SnapshotLoadStats* stats) {
  const Stopwatch watch;
  EvalCorpus corpus(eval);
  if (stats != nullptr) stats->corpus_seconds = watch.elapsed_seconds();
  CveDatabase database = load_database(store, corpus, config, stats);
  build_seconds_histogram().record(watch.elapsed_seconds());
  return std::make_shared<const CorpusSnapshot>(
      version, eval, config, std::move(corpus), std::move(database));
}

CorpusStore::SnapshotBuilder store_backed_builder(
    std::shared_ptr<PrebuiltStore> store) {
  return [store](std::uint64_t version, const EvalConfig& eval,
                 const DatabaseConfig& config) {
    return load_snapshot(*store, version, eval, config);
  };
}

}  // namespace patchecko::corpus
