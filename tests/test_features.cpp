// Tests for the 48-feature static extractor (Table I) and the normalizer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include "blob/blob_store.h"  // Digest
#include "compiler/compiler.h"
#include "core/pipeline.h"
#include "features/static_features.h"
#include "firmware/firmware.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "source/generator.h"

namespace patchecko {
namespace {

Instruction I(Opcode op, std::uint8_t dst = reg::none,
              std::uint8_t a = reg::none, std::uint8_t b = reg::none,
              std::int64_t imm = 0, std::int32_t target = -1) {
  Instruction inst;
  inst.op = op;
  inst.dst = dst;
  inst.src1 = a;
  inst.src2 = b;
  inst.imm = imm;
  inst.target = target;
  return inst;
}

// Feature indices from Table I ordering.
constexpr std::size_t f_num_constant = 0;
constexpr std::size_t f_num_string = 1;
constexpr std::size_t f_num_inst = 2;
constexpr std::size_t f_size_local = 3;
constexpr std::size_t f_num_import = 5;
constexpr std::size_t f_num_cx = 7;
constexpr std::size_t f_num_bb = 17;
constexpr std::size_t f_num_edge = 18;
constexpr std::size_t f_cyclomatic = 19;
constexpr std::size_t f_fcb_ret = 22;
constexpr std::size_t f_sum_arith = 37;

TEST(StaticFeatures, NamesDistinctAndComplete) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < static_feature_count; ++i)
    names.insert(static_feature_name(i));
  EXPECT_EQ(names.size(), static_feature_count);
}

TEST(StaticFeatures, StraightLineFunctionCounts) {
  FunctionBinary fn;
  fn.arch = Arch::amd64;
  fn.frame_size = 16;
  fn.code = {I(Opcode::ldi, 0, reg::none, reg::none, 5),
             I(Opcode::ldi, 1, reg::none, reg::none, 6),
             I(Opcode::add, 2, 0, 1),
             I(Opcode::ret)};
  const StaticFeatureVector f = extract_static_features(fn);
  EXPECT_DOUBLE_EQ(f[f_num_constant], 2.0);
  EXPECT_DOUBLE_EQ(f[f_num_inst], 4.0);
  EXPECT_DOUBLE_EQ(f[f_size_local], 16.0);
  EXPECT_DOUBLE_EQ(f[f_num_bb], 1.0);
  EXPECT_DOUBLE_EQ(f[f_num_edge], 0.0);
  EXPECT_DOUBLE_EQ(f[f_fcb_ret], 1.0);
  EXPECT_DOUBLE_EQ(f[f_sum_arith], 1.0);  // one add
  // Cyclomatic complexity of a single-block function: 0 - 1 + 2 = 1.
  EXPECT_DOUBLE_EQ(f[f_cyclomatic], 1.0);
}

TEST(StaticFeatures, DiamondRaisesCyclomatic) {
  FunctionBinary fn;
  fn.arch = Arch::amd64;
  fn.code = {I(Opcode::cmp, 0, 0, 1),
             I(Opcode::beq, reg::none, 0, reg::none, 0, 4),
             I(Opcode::ldi, 0, reg::none, reg::none, 1),
             I(Opcode::jmp, reg::none, reg::none, reg::none, 0, 5),
             I(Opcode::ldi, 0, reg::none, reg::none, 2),
             I(Opcode::ret)};
  const StaticFeatureVector f = extract_static_features(fn);
  EXPECT_DOUBLE_EQ(f[f_num_bb], 4.0);
  EXPECT_DOUBLE_EQ(f[f_num_edge], 4.0);
  EXPECT_DOUBLE_EQ(f[f_cyclomatic], 2.0);
}

TEST(StaticFeatures, ImportsCountDistinctLibFns) {
  FunctionBinary fn;
  fn.arch = Arch::amd64;
  fn.code = {I(Opcode::libcall, reg::none, reg::none, reg::none,
               static_cast<std::int64_t>(LibFn::memmove)),
             I(Opcode::libcall, reg::none, reg::none, reg::none,
               static_cast<std::int64_t>(LibFn::memmove)),
             I(Opcode::libcall, reg::none, reg::none, reg::none,
               static_cast<std::int64_t>(LibFn::strlen)),
             I(Opcode::ret)};
  const StaticFeatureVector f = extract_static_features(fn);
  EXPECT_DOUBLE_EQ(f[f_num_import], 2.0);  // distinct imports
  EXPECT_DOUBLE_EQ(f[f_num_cx], 0.0);      // libcall is not a binary call
}

TEST(StaticFeatures, StringRefsCounted) {
  FunctionBinary fn;
  fn.arch = Arch::amd64;
  fn.code = {I(Opcode::ldstr, 0, reg::none, reg::none, 0),
             I(Opcode::ldstr, 1, reg::none, reg::none, 1),
             I(Opcode::ret)};
  const StaticFeatureVector f = extract_static_features(fn);
  EXPECT_DOUBLE_EQ(f[f_num_string], 2.0);
}

TEST(StaticFeatures, DeterministicExtraction) {
  const SourceLibrary src = generate_library("sf", 0x5F, 10);
  const LibraryBinary lib = compile_library(src, Arch::arm64, OptLevel::O2);
  for (const FunctionBinary& fn : lib.functions) {
    const auto a = extract_static_features(fn);
    const auto b = extract_static_features(fn);
    EXPECT_EQ(a, b);
  }
}

TEST(StaticFeatures, TopologyInvariantAcrossArches) {
  // Basic-block and edge counts come from branch structure, which our
  // compiler preserves across architectures at a fixed opt level.
  const SourceLibrary src = generate_library("topo", 0x70, 12);
  for (std::size_t f = 0; f < src.functions.size(); ++f) {
    const auto arm = extract_static_features(
        compile_function(src, f, Arch::arm64, OptLevel::O1));
    const auto x86 = extract_static_features(
        compile_function(src, f, Arch::x86, OptLevel::O1));
    EXPECT_DOUBLE_EQ(arm[f_num_bb], x86[f_num_bb]) << f;
    EXPECT_DOUBLE_EQ(arm[f_num_edge], x86[f_num_edge]) << f;
  }
}

TEST(StaticFeatures, InstructionCountVariesAcrossOptLevels) {
  const SourceLibrary src = generate_library("var", 0x7A, 12);
  int differing = 0;
  for (std::size_t f = 0; f < src.functions.size(); ++f) {
    const auto o0 = extract_static_features(
        compile_function(src, f, Arch::amd64, OptLevel::O0));
    const auto o2 = extract_static_features(
        compile_function(src, f, Arch::amd64, OptLevel::O2));
    if (o0[f_num_inst] != o2[f_num_inst]) ++differing;
  }
  EXPECT_GT(differing, 8);
}

// Digest of every feature vector of one device image, in library and
// function order, over the raw bits of each double.
std::string image_feature_digest(const FirmwareImage& image) {
  Digest digest;
  for (const LibraryBinary& library : image.libraries)
    for (const FunctionBinary& fn : library.functions)
      for (double value : extract_static_features(fn))
        digest.absorb_double(value);
  return digest.hex();
}

// Recorded from the std::set/std::deque extractor that preceded the
// per-thread scratch; every rewrite must reproduce every bit.
TEST(StaticFeatures, GoldenDigestOnScaleSeedCorpora) {
  struct Golden {
    double scale;
    std::uint64_t seed;
    bool pixel;
    const char* hex;
  };
  static constexpr Golden kGolden[] = {
      {0.05, 1, false, "f73969b2555363241ffa9c7cee4b79c6"},
      {0.05, 1, true, "7b1eea4d1d36ce99161cfcbc9873ea1c"},
      {0.05, 2, false, "a86a686cb11cf921bfbf3845004b7494"},
      {0.05, 2, true, "e7c3f29286f41d5a9fd424bfa0090fe9"},
      {0.05, 3, false, "985bad624d483a98f2b7dfb2cf74b966"},
      {0.05, 3, true, "8d449279efe55e378d9b229a8da3919f"},
      {0.1, 1, false, "a6489aada62d6a1cc04e27e854b455dd"},
      {0.1, 1, true, "cfa78d27115f4d736edc06d59a8d9ab3"},
      {0.1, 2, false, "28e8daf881df9059b56ad4b70f3d273e"},
      {0.1, 2, true, "3ee80cebb0ee114b5b0e9a80427e3b65"},
      {0.1, 3, false, "e4f1a6cc148a86429147ef2fbcf2adaa"},
      {0.1, 3, true, "fb23b1b0b1569a12dd20071540705534"},
  };
  for (const Golden& golden : kGolden) {
    EvalConfig config;
    config.scale = golden.scale;
    config.seed = golden.seed;
    const EvalCorpus corpus(config);
    const FirmwareImage image = corpus.build_firmware(
        golden.pixel ? pixel2xl_device() : android_things_device());
    EXPECT_EQ(image_feature_digest(image), golden.hex)
        << "scale " << golden.scale << " seed " << golden.seed
        << (golden.pixel ? " pixel" : " things");
  }
}

TEST(StaticFeatures, AnalyzeIsIndependentOfWorkerCount) {
  EvalConfig config;
  config.scale = 0.1;
  const EvalCorpus corpus(config);
  const FirmwareImage image = corpus.build_firmware(android_things_device());
  for (const LibraryBinary& library : image.libraries) {
    const AnalyzedLibrary serial = analyze_library(library, 1);
    const AnalyzedLibrary pooled = analyze_library(library, 4);
    ASSERT_EQ(serial.features.size(), pooled.features.size());
    EXPECT_EQ(std::memcmp(serial.features.data(), pooled.features.data(),
                          serial.features.size() *
                              sizeof(StaticFeatureVector)),
              0)
        << library.name;
  }
}

TEST(StaticFeatures, ExtractionMakesNoHeapAllocationsAfterWarmup) {
  if (!obs::allocation_counting_available())
    GTEST_SKIP() << "allocation hook compiled out (sanitizer build)";
  const obs::EnabledScope on(true);
  const SourceLibrary src = generate_library("alloc", 0xA110C, 120);
  const LibraryBinary lib = compile_library(src, Arch::amd64, OptLevel::O0);
  double sum = 0.0;
  for (const FunctionBinary& fn : lib.functions)
    sum += extract_static_features(fn)[f_num_bb];
  const std::uint64_t before = obs::thread_allocation_count();
  for (const FunctionBinary& fn : lib.functions)
    sum += extract_static_features(fn)[f_num_bb];
  EXPECT_EQ(obs::thread_allocation_count() - before, 0u);
  EXPECT_GT(sum, 0.0);
}

TEST(Normalizer, ZeroMeanUnitVarianceOnFit) {
  std::vector<StaticFeatureVector> corpus;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    StaticFeatureVector v{};
    for (double& x : v) x = rng.uniform_real(0, 100);
    corpus.push_back(v);
  }
  FeatureNormalizer normalizer;
  normalizer.fit(corpus);
  ASSERT_TRUE(normalizer.fitted());

  StaticFeatureVector mean{}, sq{};
  for (const auto& raw : corpus) {
    const auto t = normalizer.transform(raw);
    for (std::size_t i = 0; i < static_feature_count; ++i) {
      mean[i] += t[i];
      sq[i] += t[i] * t[i];
    }
  }
  for (std::size_t i = 0; i < static_feature_count; ++i) {
    mean[i] /= 200.0;
    EXPECT_NEAR(mean[i], 0.0, 1e-9);
    EXPECT_NEAR(sq[i] / 200.0, 1.0, 1e-6);
  }
}

TEST(Normalizer, ConstantFeatureDoesNotBlowUp) {
  std::vector<StaticFeatureVector> corpus(10);
  for (auto& v : corpus) v.fill(5.0);
  FeatureNormalizer normalizer;
  normalizer.fit(corpus);
  const auto t = normalizer.transform(corpus[0]);
  for (double x : t) EXPECT_TRUE(std::isfinite(x));
}

TEST(Normalizer, ParameterRoundTrip) {
  FeatureNormalizer a;
  std::vector<StaticFeatureVector> corpus(20);
  Rng rng(4);
  for (auto& v : corpus)
    for (double& x : v) x = rng.uniform_real(0, 50);
  a.fit(corpus);
  FeatureNormalizer b;
  b.set_parameters(a.means(), a.stddevs());
  EXPECT_EQ(a.transform(corpus[3]), b.transform(corpus[3]));
}

TEST(Normalizer, EmptyCorpusIsIdentityish) {
  FeatureNormalizer normalizer;
  normalizer.fit({});
  StaticFeatureVector raw{};
  raw.fill(0.0);
  const auto t = normalizer.transform(raw);
  for (double x : t) EXPECT_DOUBLE_EQ(x, 0.0);
}

}  // namespace
}  // namespace patchecko
