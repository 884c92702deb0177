// Tests for the content digest under every cache key and store address
// (blob::Digest), for the library key (digest_library: the Digest of a
// PKLB record), and for the blob container's version gate.
//
// The golden values below pin the digest and the library key. Changing
// either silently re-keys every result cache (and a digest change every
// prebuilt corpus store), so a change has to edit these on purpose (and a
// digest change bumps the container version).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "binary/binary.h"
#include "blob/blob_store.h"
#include "engine/cache.h"
#include "firmware/firmware.h"

namespace patchecko {
namespace {

std::string digest_hex(const void* data, std::size_t size) {
  Digest digest;
  digest.absorb(data, size);
  return digest.hex();
}

std::vector<std::uint8_t> pattern(std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i)
    bytes[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 9));
  return bytes;
}

int differing_bits(const Digest::Value& a, const Digest::Value& b) {
  return std::popcount(a.hi ^ b.hi) + std::popcount(a.lo ^ b.lo);
}

TEST(Digest, GoldenValues) {
  EXPECT_EQ(Digest{}.hex(), "e07940bde2420e5e7dd12585c55d4d6a");
  EXPECT_EQ(digest_hex("abc", 3), "8cc14ed890b1a06c0d3d02326b52993a");
  const std::vector<std::uint8_t> mebibyte = pattern(1 << 20);
  EXPECT_EQ(digest_hex(mebibyte.data(), mebibyte.size()),
            "dc5fe7a9c9775254122f8950b54c20d2");
}

TEST(Digest, SingleBitFlipsAvalanche) {
  // Flipping any one input bit of a 64-byte message must flip about half of
  // the 128 output bits: binomial(128, 1/2) has a standard deviation of
  // 5.7 bits, so every flip lands within 32..96 and the mean near 64.
  std::vector<std::uint8_t> message = pattern(64);
  Digest base;
  base.absorb(message.data(), message.size());
  const Digest::Value reference = base.value();
  double total = 0.0;
  for (std::size_t bit = 0; bit < message.size() * 8; ++bit) {
    message[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    Digest flipped;
    flipped.absorb(message.data(), message.size());
    message[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const int changed = differing_bits(reference, flipped.value());
    EXPECT_GE(changed, 32) << "bit " << bit;
    EXPECT_LE(changed, 96) << "bit " << bit;
    total += changed;
  }
  const double mean = total / static_cast<double>(message.size() * 8);
  EXPECT_GT(mean, 60.0);
  EXPECT_LT(mean, 68.0);
}

TEST(Digest, WholeWordRangesMatchOneAbsorbU64PerWord) {
  // The documented contract behind the bulk path: a whole-word range
  // digests like one absorb_u64 per word, at any lane offset and across the
  // four-word blocks.
  const std::vector<std::uint8_t> bytes = pattern(8 * 23);
  for (std::size_t lead = 0; lead < 4; ++lead)
    for (std::size_t count = 0; count <= 23; ++count) {
      Digest bulk, single;
      for (std::size_t i = 0; i < lead; ++i) {
        bulk.absorb_u64(i);
        single.absorb_u64(i);
      }
      bulk.absorb(bytes.data(), count * 8);
      for (std::size_t w = 0; w < count; ++w) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes.data() + 8 * w, sizeof(word));
        single.absorb_u64(word);
      }
      EXPECT_EQ(bulk.hex(), single.hex()) << lead << " + " << count;
    }
}

TEST(Digest, FieldsAreNotConcatenated) {
  Digest split, joined;
  split.absorb("ab", 2);
  split.absorb("c", 1);
  joined.absorb("abc", 3);
  EXPECT_NE(split.hex(), joined.hex());
  // The tail word carries the tail length: trailing zero bytes count.
  EXPECT_NE(digest_hex("a\0", 2), digest_hex("a", 1));
  // Every distinct byte length of one buffer is a distinct digest.
  const std::vector<std::uint8_t> bytes(40, 0);
  std::map<std::string, std::size_t> seen;
  for (std::size_t size = 0; size <= bytes.size(); ++size)
    EXPECT_TRUE(seen.emplace(digest_hex(bytes.data(), size), size).second)
        << size;
}

// --- digest_library --------------------------------------------------------

/// A small compiled library with at least one jump table, string and typed
/// parameter, so every serialized field has something to mutate.
LibraryBinary sample_library() {
  EvalConfig eval;
  eval.scale = 0.03;
  const EvalCorpus corpus(eval);
  LibraryBinary library = corpus.compile_for_device(0, android_things_device());
  if (library.strings.empty()) library.strings.push_back("s");
  FunctionBinary& function = library.functions.front();
  if (function.jump_tables.empty()) function.jump_tables.push_back({0, 1});
  if (function.param_types.empty())
    function.param_types.push_back(ValueType::i64);
  if (function.code.empty()) function.code.emplace_back();
  return library;
}

TEST(DigestLibrary, EverySerializedFieldChangesTheDigest) {
  const LibraryBinary library = sample_library();
  const std::string base = digest_library(library).hex();
  const std::vector<std::uint8_t> base_bytes = serialize_library(library);
  const std::vector<
      std::pair<const char*, std::function<void(LibraryBinary&)>>>
      mutations = {
          {"name", [](LibraryBinary& l) { l.name += "x"; }},
          {"arch", [](LibraryBinary& l) {
             l.arch = l.arch == Arch::arm64 ? Arch::arm32 : Arch::arm64;
           }},
          {"opt", [](LibraryBinary& l) {
             l.opt = l.opt == OptLevel::O0 ? OptLevel::O3 : OptLevel::O0;
           }},
          {"stripped", [](LibraryBinary& l) { l.stripped = !l.stripped; }},
          {"string", [](LibraryBinary& l) { l.strings.front() += "x"; }},
          {"string count", [](LibraryBinary& l) { l.strings.emplace_back(); }},
          {"function count",
           [](LibraryBinary& l) { l.functions.push_back(l.functions[0]); }},
          {"function name",
           [](LibraryBinary& l) { l.functions[0].name += "x"; }},
          {"id", [](LibraryBinary& l) { l.functions[0].id += 1; }},
          {"frame_size", [](LibraryBinary& l) { l.functions[0].frame_size += 8; }},
          {"source_uid", [](LibraryBinary& l) { l.functions[0].source_uid ^= 1; }},
          {"param type", [](LibraryBinary& l) {
             ValueType& type = l.functions[0].param_types[0];
             type = type == ValueType::f64 ? ValueType::ptr : ValueType::f64;
           }},
          {"param count", [](LibraryBinary& l) {
             l.functions[0].param_types.push_back(ValueType::i64);
           }},
          {"jump table entry",
           [](LibraryBinary& l) { l.functions[0].jump_tables[0][0] += 1; }},
          {"jump table size",
           [](LibraryBinary& l) { l.functions[0].jump_tables[0].push_back(0); }},
          {"jump table count",
           [](LibraryBinary& l) { l.functions[0].jump_tables.emplace_back(); }},
          {"op", [](LibraryBinary& l) {
             Instruction& inst = l.functions[0].code[0];
             inst.op = inst.op == Opcode::mov ? Opcode::ldi : Opcode::mov;
           }},
          {"dst", [](LibraryBinary& l) { l.functions[0].code[0].dst ^= 1; }},
          {"src1", [](LibraryBinary& l) { l.functions[0].code[0].src1 ^= 1; }},
          {"src2", [](LibraryBinary& l) { l.functions[0].code[0].src2 ^= 1; }},
          {"imm", [](LibraryBinary& l) { l.functions[0].code[0].imm ^= 1; }},
          {"imm high bit", [](LibraryBinary& l) {
             l.functions[0].code[0].imm ^= std::int64_t{1} << 62;
           }},
          {"target", [](LibraryBinary& l) { l.functions[0].code[0].target ^= 1; }},
          {"last instruction",
           [](LibraryBinary& l) { l.functions.back().code.back().imm += 1; }},
          {"code count",
           [](LibraryBinary& l) { l.functions[0].code.emplace_back(); }},
      };
  for (const auto& [field, mutate] : mutations) {
    LibraryBinary mutated = library;
    mutate(mutated);
    // Only fields serialize_library writes belong in the digest.
    ASSERT_NE(serialize_library(mutated), base_bytes) << field;
    EXPECT_NE(digest_library(mutated).hex(), base) << field;
  }
}

TEST(DigestLibrary, GoldenValues) {
  // digest_library is one absorb of the PKLB record. A hand-built library
  // whose header (27 bytes) and function records (87 bytes each) end off a
  // word boundary, so the streamed key carries a tail across functions,
  // pins two values; a real library's prefixes check every other length.
  FunctionBinary fn;
  fn.name = "f";
  fn.id = 3;
  fn.frame_size = 16;
  fn.source_uid = 0x1234;
  fn.param_types = {ValueType::ptr, ValueType::i64};
  fn.jump_tables = {{1, 2, 3}};
  fn.code.resize(2);
  fn.code[0].op = Opcode::ldi;
  fn.code[0].imm = -5;
  LibraryBinary library;
  library.name = "lib";
  library.arch = Arch::arm32;
  library.stripped = true;
  library.strings = {"s"};
  const auto key = [](const LibraryBinary& library) {
    const blob::Bytes record = serialize_library(library);
    EXPECT_EQ(digest_library(library).hex(),
              digest_hex(record.data(), record.size()));
    return digest_library(library).hex();
  };
  EXPECT_EQ(key(library), "8c6d8cdc2572ca9c66bffa4f9225afb6");
  library.functions = {fn, fn};
  EXPECT_EQ(key(library), "a11fff74039ea51b602a053e35afee4b");
  LibraryBinary real = sample_library();
  const std::vector<FunctionBinary> functions = real.functions;
  const std::size_t most = std::min<std::size_t>(40, functions.size());
  for (std::size_t count = 0; count <= most; ++count) {
    real.functions.assign(functions.begin(),
                          functions.begin() +
                              static_cast<std::ptrdiff_t>(count));
    key(real);
  }
}

TEST(DigestLibrary, SerializeRoundTripKeepsTheDigest) {
  const LibraryBinary library = sample_library();
  const LibraryBinary copy =
      deserialize_library(serialize_library(library)).value();
  EXPECT_EQ(digest_library(copy).hex(), digest_library(library).hex());
}

/// A function record as serialize_library writes it (the arch and opt of
/// a function are its library's).
blob::Bytes function_bytes(const FunctionBinary& function) {
  blob::Bytes out;
  append_function(out, function);
  return out;
}

TEST(DigestLibrary, DistinctAcrossTheScaleSeedCorpora) {
  // Over the 3 scales x 3 corpus seeds x {Things, Pixel} images:
  //   * every library has one key: the one build_firmware computes, the
  //     one load_firmware takes from the saved record, and digest_library
  //     of the loaded library are equal;
  //   * two libraries (or two function records) share a digest exactly
  //     when their serialized content is equal: no collision among
  //     distinct content.
  const std::string path = testing::TempDir() + "pk_blob_corpora.img";
  std::map<std::string, std::vector<std::uint8_t>> libraries;
  std::map<std::string, std::vector<std::uint8_t>> functions;
  std::size_t library_count = 0, function_count = 0;
  for (const double scale : {0.05, 0.1, 0.2})
    for (const std::uint64_t seed : {1, 2, 3}) {
      EvalConfig eval;
      eval.scale = scale;
      eval.seed = seed;
      const EvalCorpus corpus(eval);
      for (const DeviceSpec& device :
           {android_things_device(), pixel2xl_device()}) {
        const FirmwareImage image = corpus.build_firmware(device);
        ASSERT_TRUE(save_firmware(image, path));
        const std::optional<FirmwareImage> loaded = load_firmware(path);
        ASSERT_TRUE(loaded.has_value());
        ASSERT_EQ(image.library_keys.size(), image.libraries.size());
        ASSERT_EQ(loaded->library_keys.size(), image.libraries.size());
        for (std::size_t i = 0; i < image.libraries.size(); ++i) {
          const LibraryBinary& library = image.libraries[i];
          ++library_count;
          const std::string key = digest_library(library).hex();
          EXPECT_EQ(image.library_keys[i].hex(), key) << library.name;
          EXPECT_EQ(loaded->library_keys[i].hex(), key) << library.name;
          EXPECT_EQ(digest_library(loaded->libraries[i]).hex(), key)
              << library.name;
          const auto [it, fresh] =
              libraries.try_emplace(key, serialize_library(library));
          if (!fresh) {
            ASSERT_EQ(it->second, serialize_library(library))
                << "library digest collision: " << library.name;
          }
          for (const FunctionBinary& function : library.functions) {
            ++function_count;
            blob::Bytes bytes = function_bytes(function);
            const std::string function_key =
                digest_hex(bytes.data(), bytes.size());
            const auto [fit, ffresh] =
                functions.try_emplace(function_key, std::move(bytes));
            if (!ffresh) {
              ASSERT_EQ(fit->second, function_bytes(function))
                  << "function digest collision in " << library.name;
            }
          }
        }
      }
    }
  std::remove(path.c_str());
  EXPECT_GT(library_count, 100u);
  EXPECT_GT(function_count, 10000u);
}

// --- container version -----------------------------------------------------

TEST(BlobContainer, VersionTwoObjectIsAMissAndIsOverwritten) {
  // A container written before the digest change (v2): same layout, older
  // version. It must read as a miss and the next put must replace it.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pk_blob_test_v2").string();
  std::filesystem::remove_all(dir);
  const blob::BlobStore store(dir);
  const std::string key = "det-old";
  const blob::Bytes echo(key.begin(), key.end());
  const blob::Bytes payload = {1, 2, 3, 4, 5};

  blob::Bytes old = {'P', 'K', 'C', 'S'};
  blob::append_u64(old, 2);
  blob::append_u64(old, echo.size());
  blob::append_bytes(old, echo.data(), echo.size());
  blob::append_u64(old, payload.size());
  blob::append_bytes(old, payload.data(), payload.size());
  blob::append_u64(old, 0);  // payload digest: never checked past the version
  blob::append_u64(old, 0);
  const std::string path = store.path(blob::BlobStore::address(echo).hex());
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  ASSERT_TRUE(blob::write_file(path, old));

  std::string detail;
  EXPECT_FALSE(blob::open(old, &detail).has_value());
  EXPECT_EQ(detail, "unsupported container version");
  EXPECT_FALSE(store.get(echo).has_value());

  ASSERT_GT(store.put(echo, payload), 0u);
  const auto found = store.get(echo);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, payload);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace patchecko
