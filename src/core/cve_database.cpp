#include "core/cve_database.h"

#include <algorithm>
#include <stdexcept>

#include "compiler/compiler.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace patchecko {

CveEntry build_cve_entry(const EvalCorpus& corpus, const HostedCve& cve,
                         const LibraryBinary& reference,
                         const DatabaseConfig& config, Rng fuzz_rng) {
  const std::size_t lib = cve.library_index;
  CveEntry entry;
  entry.spec = cve.spec;
  entry.library_index = lib;
  entry.slot = cve.slot;
  entry.target_uid = corpus.target_uid(cve);

  entry.vulnerable_binary = reference.functions[cve.slot];
  entry.vulnerable_features =
      extract_static_features(entry.vulnerable_binary);
  entry.vulnerable_signature = make_signature(entry.vulnerable_binary);

  // The patched reference takes the vulnerable one's slot and uid.
  entry.patched_binary = compile_function(
      cve.pair.patched, cve.slot, corpus.config().db_arch,
      corpus.config().db_opt,
      entry.vulnerable_binary.source_uid - cve.slot);
  entry.patched_features = extract_static_features(entry.patched_binary);
  entry.patched_signature = make_signature(entry.patched_binary);

  // Fuzz environments on the vulnerable reference...
  std::vector<CallEnv> envs =
      generate_environments(reference, cve.slot, fuzz_rng, config.fuzz);

  // ...and keep those the patched version also survives.
  LibraryBinary patched_reference = reference;
  patched_reference.functions[cve.slot] = entry.patched_binary;
  const Machine patched_machine(patched_reference, config.fuzz.machine);
  std::vector<CallEnv> kept;
  for (CallEnv& env : envs) {
    if (patched_machine.run(cve.slot, env).status == ExecStatus::ok)
      kept.push_back(std::move(env));
  }
  if (!kept.empty()) envs = std::move(kept);
  entry.environments = std::move(envs);

  const Machine vulnerable_machine(reference, config.fuzz.machine);
  entry.vulnerable_profile =
      profile_function(vulnerable_machine, cve.slot, entry.environments);
  entry.patched_profile =
      profile_function(patched_machine, cve.slot, entry.environments);

  // On-device (architecture-matched) references. CVE pair functions are
  // self-contained (no intra-library calls by construction), so a
  // single-function library with the host's string pool suffices.
  for (Arch arch : config.ref_arches) {
    ArchRefs refs;
    for (const bool patched : {false, true}) {
      SourceLibrary mini;
      mini.name = cve.spec.cve_id + (patched ? "_p" : "_v");
      mini.strings = corpus.vulnerable_source(lib).strings;
      mini.functions.push_back(patched ? cve.pair.patched
                                       : cve.pair.vulnerable);
      LibraryBinary mini_binary = compile_library(mini, arch, config.ref_opt);
      const Machine mini_machine(mini_binary, config.fuzz.machine);
      const StaticFeatureVector features =
          extract_static_features(mini_binary.functions[0]);
      const DiffSignature signature = make_signature(mini_binary.functions[0]);
      const DynamicProfile profile =
          profile_function(mini_machine, 0, entry.environments);
      if (patched) {
        refs.patched_features = features;
        refs.patched_signature = signature;
        refs.patched_profile = profile;
      } else {
        refs.vulnerable_features = features;
        refs.vulnerable_signature = signature;
        refs.vulnerable_profile = profile;
      }
    }
    entry.arch_refs.emplace(arch, std::move(refs));
  }
  return entry;
}

std::vector<const HostedCve*> entries_in_build_order(
    const EvalCorpus& corpus) {
  std::vector<const HostedCve*> ordered;
  for (std::size_t lib = 0; lib < corpus.library_specs().size(); ++lib)
    for (const HostedCve& cve : corpus.hosted_cves())
      if (cve.library_index == lib) ordered.push_back(&cve);
  return ordered;
}

CveDatabase::CveDatabase(const EvalCorpus& corpus,
                         const DatabaseConfig& config) {
  const obs::ScopedSpan span("setup.database");
  Rng rng(config.seed);
  const std::vector<const HostedCve*> ordered = entries_in_build_order(corpus);
  entries_.reserve(ordered.size());
  // Build order groups entries by library, so each reference library (the
  // vulnerable versions in place) compiles once and is freed before the
  // next one compiles.
  for (std::size_t index = 0; index < ordered.size();) {
    const std::size_t lib = ordered[index]->library_index;
    const LibraryBinary reference = corpus.compile_reference(lib);
    for (; index < ordered.size() && ordered[index]->library_index == lib;
         ++index)
      entries_.push_back(build_cve_entry(corpus, *ordered[index], reference,
                                         config, rng.fork(0xF022 + index)));
  }
}

const CveEntry& CveDatabase::by_id(const std::string& cve_id) const {
  for (const CveEntry& entry : entries_)
    if (entry.spec.cve_id == cve_id) return entry;
  throw std::out_of_range("CveDatabase: unknown CVE " + cve_id);
}

retrieval::QueryCatalog build_query_catalog(const CveDatabase& database) {
  const Stopwatch watch;
  retrieval::QueryCatalog catalog;
  catalog.entries.reserve(database.entries().size());
  for (const CveEntry& entry : database.entries())
    catalog.entries.push_back({entry.spec.cve_id,
                               retrieval::quantize(entry.vulnerable_features),
                               retrieval::quantize(entry.patched_features)});
  std::sort(catalog.entries.begin(), catalog.entries.end(),
            [](const retrieval::QueryCatalog::Entry& a,
               const retrieval::QueryCatalog::Entry& b) {
              return a.cve_id < b.cve_id;
            });
  catalog.build_seconds = watch.elapsed_seconds();
  return catalog;
}

}  // namespace patchecko
