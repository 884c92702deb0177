// Output identity of the CVE database (paper Dataset II). The golden digests
// were recorded with the serial reference compiler; a faster build of the
// same entries must reproduce every serialized byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "blob/blob_store.h"
#include "core/cve_database.h"
#include "corpus/serialize.h"
#include "firmware/firmware.h"

namespace patchecko {
namespace {

/// One digest over every entry's serialized bytes, in database order.
std::string database_digest(const CveDatabase& database) {
  Digest digest;
  for (const CveEntry& entry : database.entries()) {
    const std::vector<std::uint8_t> bytes = corpus::serialize_cve_entry(entry);
    digest.absorb_u64(bytes.size());
    digest.absorb(bytes.data(), bytes.size());
  }
  return digest.hex();
}

TEST(CveDatabase, GoldenDigestOnScaleSeedCorpora) {
  struct Golden {
    double scale;
    std::uint64_t seed;
    const char* digest;
  };
  const Golden goldens[] = {
      {0.05, 1, "5138e0aa68044e6b32e354b1580fd94a"},
      {0.05, 2, "bf07ed816581383286508c5325cd98cb"},
      {0.05, 3, "53e31c7850d9ff65ddebc777c96716c3"},
      {0.1, 1, "ae040a7bb012645586eae649e7b67750"},
      {0.1, 2, "92ba61585b31add2e58dcf5ddfa4c60e"},
      {0.1, 3, "afa361d4beeb758bc79208ff21105d3d"},
  };
  for (const Golden& golden : goldens) {
    EvalConfig eval;
    eval.scale = golden.scale;
    eval.seed = golden.seed;
    const EvalCorpus corpus(eval);
    const CveDatabase database(corpus, DatabaseConfig{});
    EXPECT_EQ(database_digest(database), golden.digest)
        << "scale " << golden.scale << " seed " << golden.seed;
  }
}

}  // namespace
}  // namespace patchecko
