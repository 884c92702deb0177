// Tests for the evaluation corpus and firmware assembly: paper-faithful
// library sizes and CVE mapping, device patch levels, slot planting, uid
// stability, and stripping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

#include "blob/blob_store.h"
#include "firmware/firmware.h"
#include "obs/metrics.h"
#include "obs/resource.h"

namespace patchecko {
namespace {

TEST(FirmwareSpecs, SixteenLibrariesWithPaperSizes) {
  const auto libs = standard_libraries();
  ASSERT_EQ(libs.size(), 16u);
  std::map<std::string, std::size_t> sizes;
  for (const auto& lib : libs) sizes[lib.name] = lib.function_count;
  // Spot-check against Table VI "Total" values.
  EXPECT_EQ(sizes.at("libstagefright"), 5646u);
  EXPECT_EQ(sizes.at("libwebview"), 13729u);
  EXPECT_EQ(sizes.at("libminijail"), 116u);
  EXPECT_EQ(sizes.at("libdrmframework"), 617u);
}

TEST(FirmwareSpecs, TwentyFiveCvesAllHosted) {
  const auto cves = standard_cves();
  ASSERT_EQ(cves.size(), 25u);
  std::set<std::string> lib_names;
  for (const auto& lib : standard_libraries()) lib_names.insert(lib.name);
  std::set<std::string> ids;
  for (const auto& cve : cves) {
    EXPECT_TRUE(lib_names.count(cve.library)) << cve.cve_id;
    ids.insert(cve.cve_id);
  }
  EXPECT_EQ(ids.size(), 25u);  // no duplicates
}

TEST(FirmwareSpecs, PaperCaseStudyShapes) {
  for (const auto& cve : standard_cves()) {
    if (cve.cve_id == "CVE-2018-9412") {
      EXPECT_EQ(cve.kind, PatchKind::remove_memmove_loop);
    }
    if (cve.cve_id == "CVE-2018-9470") {
      EXPECT_EQ(cve.kind, PatchKind::constant_tweak);
    }
  }
}

TEST(FirmwareSpecs, AndroidThingsPatchSetMatchesTable8) {
  const DeviceSpec device = android_things_device();
  EXPECT_EQ(device.patched_cves.size(), 10u);
  EXPECT_TRUE(device.is_patched("CVE-2017-13209"));
  EXPECT_TRUE(device.is_patched("CVE-2017-13182"));
  EXPECT_FALSE(device.is_patched("CVE-2018-9412"));
  EXPECT_FALSE(device.is_patched("CVE-2018-9470"));
}

TEST(FirmwareSpecs, DevicesDifferInArch) {
  EXPECT_NE(android_things_device().arch, pixel2xl_device().arch);
}

class CorpusFixture : public ::testing::Test {
 protected:
  static const EvalCorpus& corpus() {
    static EvalCorpus instance = [] {
      EvalConfig config;
      config.scale = 0.02;
      return EvalCorpus(config);
    }();
    return instance;
  }
};

TEST_F(CorpusFixture, EveryCveGetsAUniqueSlotPerLibrary) {
  std::map<std::size_t, std::set<std::size_t>> slots;
  for (const HostedCve& cve : corpus().hosted_cves()) {
    EXPECT_TRUE(slots[cve.library_index].insert(cve.slot).second)
        << cve.spec.cve_id << " collides in library " << cve.library_index;
  }
}

TEST_F(CorpusFixture, VulnerableVersionPlantedInBaseSource) {
  for (const HostedCve& cve : corpus().hosted_cves()) {
    const SourceLibrary& src = corpus().vulnerable_source(cve.library_index);
    EXPECT_EQ(src.functions[cve.slot].name, cve.pair.vulnerable.name);
  }
}

TEST_F(CorpusFixture, DevicePatchStatusSelectsVersion) {
  const DeviceSpec things = android_things_device();
  const HostedCve& patched_cve = corpus().hosted("CVE-2017-13232");
  const HostedCve& unpatched_cve = corpus().hosted("CVE-2018-9412");
  const SourceLibrary patched_lib =
      corpus().source_for_device(patched_cve.library_index, things);
  const SourceLibrary unpatched_lib =
      corpus().source_for_device(unpatched_cve.library_index, things);
  // Patched CVEs get the patched body (more statements or different shape);
  // compare node counts against the pair's two versions.
  EXPECT_EQ(patched_lib.functions[patched_cve.slot].node_count(),
            patched_cve.pair.patched.node_count());
  EXPECT_EQ(unpatched_lib.functions[unpatched_cve.slot].node_count(),
            unpatched_cve.pair.vulnerable.node_count());
}

TEST_F(CorpusFixture, UidStableAcrossDevicesAndBuilds) {
  const HostedCve& cve = corpus().hosted("CVE-2017-13208");
  const LibraryBinary things =
      corpus().compile_for_device(cve.library_index, android_things_device());
  const LibraryBinary pixel =
      corpus().compile_for_device(cve.library_index, pixel2xl_device());
  const LibraryBinary reference = corpus().compile_reference(cve.library_index);
  const std::uint64_t uid = corpus().target_uid(cve);
  EXPECT_EQ(things.functions[cve.slot].source_uid, uid);
  EXPECT_EQ(pixel.functions[cve.slot].source_uid, uid);
  EXPECT_EQ(reference.functions[cve.slot].source_uid, uid);
}

TEST_F(CorpusFixture, DeviceBinariesAreStripped) {
  const LibraryBinary lib =
      corpus().compile_for_device(0, android_things_device());
  EXPECT_TRUE(lib.stripped);
  for (const FunctionBinary& fn : lib.functions)
    EXPECT_TRUE(fn.name.empty());
}

TEST_F(CorpusFixture, ReferenceBinariesKeepSymbols) {
  const LibraryBinary lib = corpus().compile_reference(0);
  EXPECT_FALSE(lib.stripped);
  bool any_named = false;
  for (const FunctionBinary& fn : lib.functions)
    if (!fn.name.empty()) any_named = true;
  EXPECT_TRUE(any_named);
}

TEST_F(CorpusFixture, ScaleControlsFunctionCounts) {
  // At scale 0.02 libstagefright shrinks but stays >= the floor of 24.
  const std::size_t idx = corpus().library_index("libstagefright");
  const std::size_t count = corpus().library_specs()[idx].function_count;
  EXPECT_GE(count, 24u);
  EXPECT_LT(count, 5646u);
}

TEST_F(CorpusFixture, SlotOriginalHasPtrParam) {
  // The anti-aliasing rule: planted slots replace functions that later
  // dispatchers can never call.
  for (const HostedCve& cve : corpus().hosted_cves()) {
    // Verify by construction through determinism: regenerate the library
    // without planting and check the displaced function's signature.
    // (The planted pair carries the slot; the invariant is enforced at
    // construction, so here we just confirm the CVE function's own slot.)
    EXPECT_LT(cve.slot,
              corpus().vulnerable_source(cve.library_index).functions.size());
  }
}

TEST_F(CorpusFixture, FirmwareImageAggregates) {
  const FirmwareImage image =
      corpus().build_firmware(android_things_device());
  EXPECT_EQ(image.libraries.size(), 16u);
  EXPECT_GT(image.total_functions(), 300u);
  EXPECT_EQ(image.device, "Android Things 1.0");
}

TEST_F(CorpusFixture, DeterministicAcrossInstances) {
  EvalConfig config;
  config.scale = 0.02;
  const EvalCorpus other(config);
  const auto a = serialize_library(corpus().compile_reference(3));
  const auto b = serialize_library(other.compile_reference(3));
  EXPECT_EQ(a, b);
}


TEST_F(CorpusFixture, FirmwareFileRoundTrip) {
  const FirmwareImage image =
      corpus().build_firmware(android_things_device());
  const std::string path = "/tmp/pk_test_firmware.img";
  ASSERT_TRUE(save_firmware(image, path));
  const auto loaded = load_firmware(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->device, image.device);
  ASSERT_EQ(loaded->libraries.size(), image.libraries.size());
  for (std::size_t i = 0; i < image.libraries.size(); ++i) {
    EXPECT_EQ(loaded->libraries[i].name, image.libraries[i].name);
    EXPECT_EQ(loaded->libraries[i].function_count(),
              image.libraries[i].function_count());
    EXPECT_EQ(serialize_library(loaded->libraries[i]),
              serialize_library(image.libraries[i]));
  }
  std::remove(path.c_str());
}

TEST(FirmwareFile, LoadRejectsMissingAndGarbage) {
  EXPECT_FALSE(load_firmware("/tmp/definitely_missing.img").has_value());
  const std::string path = "/tmp/pk_garbage.img";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("garbage bytes", f);
  std::fclose(f);
  EXPECT_FALSE(load_firmware(path).has_value());
  std::remove(path.c_str());
}

/// A small valid image: two copies of a one-function library.
FirmwareImage tiny_image() {
  FunctionBinary fn;
  fn.code.resize(3);
  fn.jump_tables = {{1, 2}};
  fn.param_types = {ValueType::ptr};
  LibraryBinary library;
  library.name = "libtiny";
  library.strings = {"s"};
  library.functions = {fn};
  FirmwareImage image;
  image.device = "tiny";
  image.libraries = {library, library};
  return image;
}

/// A PKFW header: magic, a device-name length, `device_bytes` bytes of
/// name, then `words`, then `padding` zero bytes.
blob::Bytes pkfw(std::uint32_t name_length, std::size_t device_bytes,
                 std::initializer_list<std::uint32_t> words,
                 std::size_t padding = 64) {
  blob::Bytes out;
  blob::append_u32(out, 0x504b4657);  // "PKFW"
  blob::append_u32(out, name_length);
  out.resize(out.size() + device_bytes, 'x');
  for (const std::uint32_t word : words) blob::append_u32(out, word);
  out.resize(out.size() + padding);
  return out;
}

TEST(FirmwareFile, LoadRejectsHostileImages) {
  const std::string path = testing::TempDir() + "pk_hostile_firmware.img";
  ASSERT_TRUE(save_firmware(tiny_image(), path));
  const blob::Bytes valid = blob::read_file(path).value();
  blob::Bytes trailing = valid;
  trailing.push_back(0);
  blob::Bytes truncated = valid;
  truncated.pop_back();

  const struct {
    const char* name;
    blob::Bytes bytes;
  } cases[] = {
      {"library length prefix past EOF", pkfw(1, 1, {1, 1u << 30})},
      {"library count 2^32-1", pkfw(0, 0, {0xffffffffu})},
      {"device name length past EOF", pkfw(1u << 31, 0, {})},
      {"one trailing byte after the last library", trailing},
      {"last library cut short", truncated},
      {"library that is not PKLB", pkfw(1, 1, {1, 8}, 8)},
      {"non-PKFW file", serialize_library(tiny_image().libraries[0])},
  };
  const bool counting = obs::allocation_counting_available();
  const obs::EnabledScope on(true);
  ASSERT_TRUE(load_firmware(path).has_value());  // warms lazy metric setup
  for (const auto& [name, bytes] : cases) {
    ASSERT_TRUE(blob::write_file(path, bytes)) << name;
    const std::uint64_t before = obs::thread_allocation_bytes();
    EXPECT_FALSE(load_firmware(path).has_value()) << name;
    if (counting) {
      EXPECT_LE(obs::thread_allocation_bytes() - before,
                std::max<std::uint64_t>(16 * bytes.size(), 4096))
          << name;
    }
  }
  // The digest pass walks the same framing: it fails wherever the framing
  // does, and digests (without decoding) the one malformed library record.
  for (const auto& [name, bytes] : cases) {
    ASSERT_TRUE(blob::write_file(path, bytes)) << name;
    EXPECT_EQ(digest_firmware(path).has_value(),
              std::string(name) == "library that is not PKLB")
        << name;
  }
  std::remove(path.c_str());
}

TEST(FirmwareFile, DigestPassKeysTheBytesTheDecodeRead) {
  // One library record spans several 1 MiB digest chunks and ends off a
  // word boundary; the chunked pass must equal the decode's one absorb.
  FirmwareImage image = tiny_image();
  image.libraries[1].strings.push_back(std::string((5u << 19) + 3, 'k'));
  const std::string path = testing::TempDir() + "pk_digest_firmware.img";
  ASSERT_TRUE(save_firmware(image, path));
  FirmwareDigest decoded;
  ASSERT_TRUE(load_firmware(path, &decoded).has_value());
  const std::optional<FirmwareDigest> streamed = digest_firmware(path);
  ASSERT_TRUE(streamed.has_value());
  EXPECT_EQ(*streamed, decoded);
  EXPECT_EQ(decoded.bytes, blob::read_file(path).value().size());

  // One changed byte anywhere (device name, record tail) changes the key.
  const FirmwareDigest original = decoded;
  for (const auto& mutate : {+[](FirmwareImage& i) { i.device[0] = 'T'; },
                             +[](FirmwareImage& i) {
                               i.libraries[1].strings.back().back() = 'j';
                             }}) {
    FirmwareImage changed = image;
    mutate(changed);
    ASSERT_TRUE(save_firmware(changed, path));
    ASSERT_TRUE(load_firmware(path, &decoded).has_value());
    EXPECT_EQ(digest_firmware(path).value(), decoded);
    EXPECT_FALSE(decoded == original);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace patchecko
