// The vulnerability database (paper Dataset II).
//
// For every CVE the database stores what the paper's offline stage produces:
// the vulnerable and patched reference function binaries (compiled at the
// analysis host's settings, Clang -O0 in the paper), their 48 static
// features, their differential signatures, the K fuzz-selected execution
// environments, and the dynamic profiles of both references under those
// environments. Everything the online pipeline needs — no source access at
// analysis time.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "diff/differential.h"
#include "features/static_features.h"
#include "firmware/firmware.h"
#include "fuzz/fuzzer.h"
#include "retrieval/query_catalog.h"
#include "similarity/similarity.h"
#include "util/rng.h"

namespace patchecko {

/// Architecture-matched reference data. The paper injects the CVE reference
/// binary into the *device* and executes it there, so the dynamic reference
/// traces come from a build of the reference for the device's architecture;
/// the database therefore carries one reference set per supported arch.
struct ArchRefs {
  StaticFeatureVector vulnerable_features{};
  StaticFeatureVector patched_features{};
  DiffSignature vulnerable_signature;
  DiffSignature patched_signature;
  DynamicProfile vulnerable_profile;
  DynamicProfile patched_profile;
};

struct CveEntry {
  CveSpec spec;
  std::size_t library_index = 0;
  std::size_t slot = 0;
  std::uint64_t target_uid = 0;  ///< evaluation-only ground truth

  // Cross-platform reference build (db_arch/db_opt): Stage 1 matches these
  // static features against targets of *any* architecture.
  FunctionBinary vulnerable_binary;
  FunctionBinary patched_binary;
  StaticFeatureVector vulnerable_features{};
  StaticFeatureVector patched_features{};
  DiffSignature vulnerable_signature;
  DiffSignature patched_signature;

  std::vector<CallEnv> environments;  ///< K fixed execution environments
  // Dynamic profiles of the db-arch references (ablation baseline).
  DynamicProfile vulnerable_profile;
  DynamicProfile patched_profile;

  /// Per-architecture references used by Stage 2 and the differential
  /// engine when the target's architecture is known (the on-device case).
  std::map<Arch, ArchRefs> arch_refs;

  const ArchRefs* refs_for(Arch arch) const {
    const auto it = arch_refs.find(arch);
    return it == arch_refs.end() ? nullptr : &it->second;
  }
};

struct DatabaseConfig {
  FuzzConfig fuzz;
  std::uint64_t seed = 0xCafe01;
  /// Optimization level of the per-arch on-device reference builds.
  OptLevel ref_opt = OptLevel::O2;
  /// Architectures to prepare on-device references for.
  std::vector<Arch> ref_arches{Arch::x86, Arch::amd64, Arch::arm32,
                               Arch::arm64};
};

/// Builds one database entry for a hosted CVE: compiles the patched
/// reference in the host-library context, fuzzes/validates the K execution
/// environments, profiles both references, and prepares the per-arch
/// on-device reference sets. `fuzz_rng` must be the caller's
/// `rng.fork(0xF022 + entry_index)` stream so an entry built in isolation
/// (the prebuilt-corpus store populating missing keys) is bit-identical to
/// one built by a full CveDatabase pass.
CveEntry build_cve_entry(const EvalCorpus& corpus, const HostedCve& cve,
                         const LibraryBinary& reference,
                         const DatabaseConfig& config, Rng fuzz_rng);

/// The cold build order: libraries ascending, hosted CVEs in corpus order
/// within each library. Every caller that walks entries MUST use this
/// order: an entry's position is its index, and the index picks its fuzz
/// rng fork (`rng.fork(0xF022 + index)` off `DatabaseConfig::seed`).
std::vector<const HostedCve*> entries_in_build_order(const EvalCorpus& corpus);

/// Builds entries for every CVE hosted in the corpus. One reference library
/// per evaluation library is compiled at database settings; environments are
/// fuzzed on the vulnerable reference and kept only if the patched reference
/// also executes them successfully (the paper validated its LibFuzzer inputs
/// against both versions).
class CveDatabase {
 public:
  CveDatabase(const EvalCorpus& corpus, const DatabaseConfig& config);

  /// Adopts prebuilt entries (the corpus-store warm path). Entries must be
  /// in entries_in_build_order.
  explicit CveDatabase(std::vector<CveEntry> entries)
      : entries_(std::move(entries)) {}

  const std::vector<CveEntry>& entries() const { return entries_; }
  const CveEntry& by_id(const std::string& cve_id) const;

 private:
  std::vector<CveEntry> entries_;
};

/// Quantizes both query directions of every entry for the retrieval
/// prefilter. A corpus snapshot builds this once and reuses it across every
/// scan it serves (detect() quantizes on the fly when no catalog is passed).
retrieval::QueryCatalog build_query_catalog(const CveDatabase& database);

}  // namespace patchecko
