// Tests for the prebuilt-corpus store: container integrity (truncation,
// bit-flips, cache poisoning), incremental population, manifest/disk drift
// detection, concurrent same-key writers, generation GC, and — the load-
// bearing property — bit-identity between a store-backed CorpusSnapshot and
// a cold build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "binary/binary.h"
#include "core/cve_database.h"
#include "corpus/builder.h"
#include "corpus/serialize.h"
#include "corpus/store.h"
#include "firmware/firmware.h"

namespace patchecko {
namespace {

namespace fs = std::filesystem;

/// A unique, cleaned-up-on-entry scratch directory per test name.
std::string scratch_dir(const std::string& name) {
  const auto path =
      fs::temp_directory_path() / ("pk_corpus_test_" + name);
  fs::remove_all(path);
  return path.string();
}

EvalConfig small_eval() {
  EvalConfig eval;
  eval.scale = 0.03;
  return eval;
}

/// The corpus is deterministic, so one shared instance serves every test.
const EvalCorpus& shared_corpus() {
  static EvalCorpus corpus(small_eval());
  return corpus;
}

corpus::BuildMatrix small_matrix() {
  corpus::BuildMatrix matrix;
  matrix.eval = small_eval();
  matrix.jobs = 2;
  return matrix;
}

/// Object path of `key` inside `store` (mirrors the sharded layout).
fs::path object_path(const corpus::PrebuiltStore& store,
                     const corpus::ArtifactKey& key) {
  const std::string hex = corpus::key_digest(key).hex();
  return fs::path(store.root()) / "objects" / hex.substr(0, 2) /
         (hex + ".bin");
}

corpus::ArtifactKey first_library_key(const corpus::PrebuiltStore&,
                                      const EvalConfig& eval) {
  const EvalCorpus& corpus = shared_corpus();
  return corpus::library_variant_key(corpus, 0, eval.db_arch, eval.db_opt);
}

TEST(CorpusSerialize, LibraryArtifactRoundTrips) {
  const EvalCorpus& corpus = shared_corpus();
  const LibraryBinary library = corpus.compile_reference(0);
  const std::vector<std::uint8_t> bytes =
      corpus::serialize_library_artifact(library);
  // A 24-byte header (tag, payload version, record length), then the PKLB
  // record itself and nothing else.
  const std::vector<std::uint8_t> record = serialize_library(library);
  ASSERT_EQ(bytes.size(), 24 + record.size());
  EXPECT_TRUE(std::equal(record.begin(), record.end(), bytes.begin() + 24));
  const auto back = corpus::deserialize_library_artifact(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(corpus::serialize_library_artifact(*back), bytes);
  EXPECT_EQ(back->functions.size(), library.functions.size());
  // Every proper prefix and a trailing byte are rejected.
  for (std::size_t cut : {std::size_t{0}, std::size_t{16}, std::size_t{24},
                          bytes.size() - 1}) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + cut);
    EXPECT_FALSE(corpus::deserialize_library_artifact(truncated)) << cut;
  }
  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(corpus::deserialize_library_artifact(trailing));
}

TEST(CorpusSerialize, CveEntryRoundTripsAndRejectsTruncation) {
  const EvalCorpus& corpus = shared_corpus();
  const CveDatabase database(corpus, DatabaseConfig{});
  ASSERT_FALSE(database.entries().empty());
  const std::vector<std::uint8_t> bytes =
      corpus::serialize_cve_entry(database.entries().front());
  const auto back = corpus::deserialize_cve_entry(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(corpus::serialize_cve_entry(*back), bytes);
  // Every proper prefix must be rejected, never crash or mis-parse.
  for (std::size_t cut : {std::size_t{0}, std::size_t{8}, bytes.size() / 2,
                          bytes.size() - 1}) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + cut);
    EXPECT_FALSE(corpus::deserialize_cve_entry(truncated).has_value())
        << "prefix of " << cut << " bytes parsed";
  }
}

TEST(CorpusStore, SecondBuildReusesEverything) {
  corpus::PrebuiltStore store(scratch_dir("incremental"));
  const corpus::BuildMatrix matrix = small_matrix();
  const corpus::BuildReport cold = corpus::build_store(store, matrix);
  EXPECT_GT(cold.requested, 0u);
  EXPECT_EQ(cold.built, cold.requested);
  EXPECT_EQ(cold.reused, 0u);
  const corpus::BuildReport warm = corpus::build_store(store, matrix);
  EXPECT_EQ(warm.requested, cold.requested);
  EXPECT_EQ(warm.built, 0u) << "warm build recompiled artifacts";
  EXPECT_EQ(warm.reused, warm.requested);
  EXPECT_FALSE(store.verify().has_value());
}

TEST(CorpusStore, LibraryCellsAreFiledUnderTheirVariantKeys) {
  // build_store fingerprints each library once and shares the result across
  // keys; every cell must still be filed under the key library_variant_key
  // derives from that library's own source.
  corpus::PrebuiltStore store(scratch_dir("variant_keys"));
  const corpus::BuildMatrix matrix = small_matrix();
  corpus::build_store(store, matrix);
  const EvalCorpus& corpus = shared_corpus();
  for (std::size_t lib = 0; lib < corpus.library_specs().size(); ++lib)
    EXPECT_TRUE(store.contains(corpus::library_variant_key(
        corpus, lib, matrix.eval.db_arch, matrix.eval.db_opt)))
        << "library " << lib;
}

TEST(CorpusStore, StoreBackedSnapshotIsBitIdenticalToColdBuild) {
  corpus::PrebuiltStore store(scratch_dir("bit_identity"));
  const corpus::BuildMatrix matrix = small_matrix();
  corpus::build_store(store, matrix);

  corpus::SnapshotLoadStats stats;
  const auto warm = corpus::load_snapshot(store, 1, matrix.eval,
                                          matrix.database, &stats);
  EXPECT_GT(stats.entries_loaded, 0u);
  EXPECT_EQ(stats.entries_built, 0u) << "warm load fell back to cold builds";

  const CveDatabase cold(shared_corpus(), matrix.database);
  ASSERT_EQ(warm->database.entries().size(), cold.entries().size());
  for (std::size_t i = 0; i < cold.entries().size(); ++i)
    EXPECT_EQ(corpus::serialize_cve_entry(warm->database.entries()[i]),
              corpus::serialize_cve_entry(cold.entries()[i]))
        << "entry " << i << " differs from the cold build";
}

TEST(CorpusStore, TruncatedObjectDegradesToMissAndFailsVerify) {
  corpus::PrebuiltStore store(scratch_dir("truncated"));
  const corpus::BuildMatrix matrix = small_matrix();
  corpus::build_store(store, matrix);
  const corpus::ArtifactKey key = first_library_key(store, matrix.eval);
  ASSERT_TRUE(store.contains(key));

  const fs::path path = object_path(store, key);
  const auto full_size = fs::file_size(path);
  fs::resize_file(path, full_size / 2);

  EXPECT_FALSE(store.load(key).has_value());
  const auto issue = store.verify();
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->object, corpus::key_digest(key).hex());
  EXPECT_NE(issue->detail.find("size drift"), std::string::npos)
      << issue->detail;
}

TEST(CorpusStore, MissingObjectIsManifestDrift) {
  corpus::PrebuiltStore store(scratch_dir("drift"));
  corpus::build_store(store, small_matrix());
  const corpus::ArtifactKey key =
      first_library_key(store, small_eval());
  fs::remove(object_path(store, key));
  EXPECT_FALSE(store.contains(key)) << "manifest lied about a deleted object";
  const auto issue = store.verify();
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->object, corpus::key_digest(key).hex());
  EXPECT_EQ(issue->detail, "object missing on disk");
}

TEST(CorpusStore, PoisonedObjectIsRejectedOnLoad) {
  corpus::PrebuiltStore store(scratch_dir("poison"));
  corpus::ArtifactKey a;
  a.kind = "library";
  a.source_fingerprint = 1;
  a.params = "a";
  corpus::ArtifactKey b = a;
  b.source_fingerprint = 2;
  b.params = "b";
  store.put(a, {1, 2, 3});
  store.put(b, {4, 5, 6});
  // File a's (internally consistent) container under b's address: the key
  // echo no longer matches the request, so the load must miss, and verify
  // must flag the swap.
  fs::copy_file(object_path(store, a), object_path(store, b),
                fs::copy_options::overwrite_existing);
  EXPECT_FALSE(store.load(b).has_value());
  EXPECT_EQ(store.load(a).value(), (std::vector<std::uint8_t>{1, 2, 3}));
  const auto issue = store.verify();
  ASSERT_TRUE(issue.has_value());
  EXPECT_NE(issue->detail.find("key echo"), std::string::npos)
      << issue->detail;
}

TEST(CorpusStore, ConcurrentSameKeyWritersNeverTearReads) {
  corpus::PrebuiltStore store(scratch_dir("race"));
  corpus::ArtifactKey key;
  key.kind = "library";
  key.source_fingerprint = 7;
  key.params = "contended";
  const std::vector<std::uint8_t> a(4096, 0xAA);
  const std::vector<std::uint8_t> b(8192, 0xBB);
  store.put(key, a);

  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w)
    threads.emplace_back([&, w] {
      for (int i = 0; i < 25; ++i) store.put(key, (w % 2) != 0 ? a : b);
    });
  // Readers must always observe a complete container: either payload whole,
  // never a mix or a partial write (atomic rename-into-place).
  for (int r = 0; r < 2; ++r)
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const auto payload = store.load(key);
        ASSERT_TRUE(payload.has_value());
        ASSERT_TRUE(*payload == a || *payload == b) << "torn read";
      }
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(store.verify().has_value());
}

TEST(CorpusStore, GcDropsArtifactsTheLatestBuildStoppedReferencing) {
  corpus::PrebuiltStore store(scratch_dir("gc"));
  corpus::BuildMatrix matrix = small_matrix();
  matrix.arches = {matrix.eval.db_arch, Arch::arm32};
  corpus::build_store(store, matrix);
  const corpus::StoreStats wide = store.stats();

  // Rebuild without the arm32 column: its library artifacts keep their old
  // generation and become gc-eligible.
  matrix.arches = {matrix.eval.db_arch};
  corpus::build_store(store, matrix);

  const corpus::GcResult preview = store.gc(/*dry_run=*/true);
  EXPECT_GT(preview.removed_objects, 0u);
  EXPECT_EQ(store.stats().entries, wide.entries) << "dry run modified store";
  EXPECT_FALSE(store.verify().has_value());

  const corpus::GcResult swept = store.gc(/*dry_run=*/false);
  EXPECT_EQ(swept.removed_objects, preview.removed_objects);
  EXPECT_EQ(swept.reclaimed_bytes, preview.reclaimed_bytes);
  ASSERT_TRUE(store.flush());
  EXPECT_EQ(store.stats().entries,
            wide.entries - swept.removed_objects);
  EXPECT_FALSE(store.verify().has_value());
  // The narrow matrix is still fully warm after the sweep.
  const corpus::BuildReport warm = corpus::build_store(store, matrix);
  EXPECT_EQ(warm.built, 0u);
}

TEST(CorpusStore, ManifestSurvivesReopen) {
  const std::string root = scratch_dir("reopen");
  corpus::BuildReport cold;
  {
    corpus::PrebuiltStore store(root);
    cold = corpus::build_store(store, small_matrix());
  }
  corpus::PrebuiltStore reopened(root);
  EXPECT_EQ(reopened.stats().entries, cold.requested);
  const corpus::BuildReport warm =
      corpus::build_store(reopened, small_matrix());
  EXPECT_EQ(warm.built, 0u) << "reopened store recompiled artifacts";
}

}  // namespace
}  // namespace patchecko
