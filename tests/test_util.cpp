// Unit tests for the util substrate: deterministic RNG, summary statistics,
// the Minkowski distance family, parallel_for, and table formatting.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace patchecko {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform(3, 3), 3);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, GaussianRoughMoments) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.15);
}

TEST(Rng, ForkIndependentStreams) {
  Rng root(77);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  EXPECT_NE(a(), b());
}

TEST(Rng, ForkDeterministic) {
  Rng r1(77), r2(77);
  Rng a = r1.fork(9);
  Rng b = r2.fork(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, WeightedPickFollowsWeights) {
  Rng rng(13);
  const std::vector<double> weights{1.0, 0.0, 9.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 5000; ++i) ++counts[rng.weighted_pick(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 5);
}

TEST(Stats, SummarizeBasics) {
  const std::vector<double> values{1, 2, 3, 4};
  const Summary s = summarize(values);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.sum, 10.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(Stats, SummarizeEmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, SummarizeSingleValue) {
  const std::vector<double> values{7.5};
  const Summary s = summarize(values);
  EXPECT_DOUBLE_EQ(s.min, 7.5);
  EXPECT_DOUBLE_EQ(s.max, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Minkowski, ManhattanAndEuclideanSpecialCases) {
  const std::vector<double> x{0, 0}, y{3, 4};
  EXPECT_DOUBLE_EQ(minkowski_distance(x, y, 1.0), 7.0);
  EXPECT_DOUBLE_EQ(minkowski_distance(x, y, 2.0), 5.0);
}

TEST(Minkowski, IdentityOfIndiscernibles) {
  const std::vector<double> x{1, 2, 3};
  EXPECT_DOUBLE_EQ(minkowski_distance(x, x, 3.0), 0.0);
}

TEST(Minkowski, Symmetry) {
  const std::vector<double> x{1, 5, -2}, y{4, 0, 9};
  EXPECT_DOUBLE_EQ(minkowski_distance(x, y, 3.0),
                   minkowski_distance(y, x, 3.0));
}

TEST(Minkowski, TriangleInequalityP3) {
  Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> a(5), b(5), c(5);
    for (int i = 0; i < 5; ++i) {
      a[static_cast<std::size_t>(i)] = rng.uniform_real(-10, 10);
      b[static_cast<std::size_t>(i)] = rng.uniform_real(-10, 10);
      c[static_cast<std::size_t>(i)] = rng.uniform_real(-10, 10);
    }
    EXPECT_LE(minkowski_distance(a, c, 3.0),
              minkowski_distance(a, b, 3.0) +
                  minkowski_distance(b, c, 3.0) + 1e-9);
  }
}

TEST(Minkowski, RejectsSizeMismatch) {
  const std::vector<double> x{1}, y{1, 2};
  EXPECT_THROW(minkowski_distance(x, y, 3.0), std::invalid_argument);
}

TEST(Minkowski, RejectsNonPositiveOrder) {
  const std::vector<double> x{1}, y{2};
  EXPECT_THROW(minkowski_distance(x, y, 0.0), std::invalid_argument);
}

TEST(Cosine, ParallelAndOrthogonal) {
  const std::vector<double> x{1, 0}, y{2, 0}, z{0, 5};
  EXPECT_NEAR(cosine_similarity(x, y), 1.0, 1e-12);
  EXPECT_NEAR(cosine_similarity(x, z), 0.0, 1e-12);
}

TEST(Cosine, ZeroVectorYieldsZero) {
  const std::vector<double> x{0, 0}, y{1, 2};
  EXPECT_DOUBLE_EQ(cosine_similarity(x, y), 0.0);
}

TEST(SignedLog1p, SignAndMonotonicity) {
  EXPECT_DOUBLE_EQ(signed_log1p(0.0), 0.0);
  EXPECT_GT(signed_log1p(10.0), signed_log1p(5.0));
  EXPECT_DOUBLE_EQ(signed_log1p(-3.0), -signed_log1p(3.0));
}

TEST(SignedLog1p, SmallCountsMatchLog1pBitForBit) {
  // Small integers come from a table; every value must equal the formula's
  // bits, across the table's edges, for signed zeros and for non-integers.
  const auto formula = [](double v) {
    return v >= 0.0 ? std::log1p(v) : -std::log1p(-v);
  };
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  std::vector<double> values{0.0, -0.0, 0.5, 1.5, 1023.5, 1e300, -1e300,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  for (int k = 1; k <= 1100; ++k) {
    values.push_back(k);
    values.push_back(-k);
    values.push_back(std::nextafter(static_cast<double>(k), 0.0));
  }
  for (const double v : values)
    EXPECT_TRUE(same_bits(signed_log1p(v), formula(v))) << v;
  EXPECT_TRUE(std::signbit(signed_log1p(-0.0)));
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> touched(257);
  parallel_for(touched.size(), 4,
               [&](std::size_t i) { touched[i].fetch_add(1); });
  for (const auto& count : touched) EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, InlineWhenSingleThreaded) {
  int calls = 0;  // no synchronization: must run on the calling thread
  parallel_for(5, 1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
}

TEST(ParallelFor, RethrowsLowestWorkerIndexWhenAllThrow) {
  // Worker w owns the strided indices {w, w+4, ...} and throws immediately,
  // so whatever the thread timing, the surfaced exception must be worker
  // 0's, thrown at index 0.
  try {
    parallel_for(8, 4, [](std::size_t i) {
      throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "0");
  }
}

TEST(ParallelFor, MultiExceptionRethrowIsDeterministic) {
  // With 2 workers, worker 0 owns {0,2,4,6} and worker 1 owns {1,3,5,7}.
  // Indices 5 and 6 both throw; worker 1 usually faults *first on the
  // clock* (index 5 precedes 6 in its stride), but the deterministic rule
  // is lowest worker index, so worker 0's exception ("6") must surface on
  // every repetition.
  for (int repeat = 0; repeat < 25; ++repeat) {
    try {
      parallel_for(8, 2, [](std::size_t i) {
        if (i == 5 || i == 6) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "6");
    }
  }
}

TEST(ParallelFor, OtherWorkersFinishAfterAnException) {
  // Worker 3 throws at its first index (3) and abandons the rest of its
  // stride {3,7,...,63}; the other three workers must still complete all
  // 48 of their items before the exception reaches the caller.
  std::vector<std::atomic<int>> touched(64);
  EXPECT_THROW(parallel_for(touched.size(), 4,
                            [&](std::size_t i) {
                              if (i == 3) throw std::runtime_error("boom");
                              touched[i].fetch_add(1);
                            }),
               std::runtime_error);
  int done = 0;
  for (const auto& count : touched) done += count.load();
  EXPECT_EQ(done, 48);
}

TEST(ParallelFor, NestedParallelismDoesNotDeadlock) {
  std::atomic<int> total{0};
  parallel_for(4, 4, [&](std::size_t) {
    parallel_for(8, 4, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(TextTable, AlignsColumns) {
  TextTable table({"a", "bb"});
  table.add_row({"xxx", "y"});
  table.add_row({"z"});
  const std::string out = table.render();
  EXPECT_NE(out.find("xxx"), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, FormattingHelpers) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.1234, 2), "12.34%");
  EXPECT_EQ(fmt_double(-1.5, 1), "-1.5");
}

}  // namespace
}  // namespace patchecko
