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
      {0.05, 1, "2133eb02e340ed36eed605224d614828"},
      {0.05, 2, "242b8f03e6c7915c5343d7ea63ffadcf"},
      {0.05, 3, "fc13c1d81162992398d8c1a632ef8a07"},
      {0.1, 1, "01325ec2c23898666d58538fd0a11cc0"},
      {0.1, 2, "44cc7c6fa7242e335a9bb55984b96d4e"},
      {0.1, 3, "5eb202a530e6cbf3e173780fd8bcc31f"},
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
