// Firmware images and the paper's evaluation corpus (Dataset III).
//
// Two devices are modelled after the paper's testbed:
//   * Android Things 1.0 (05/2018 security patch level) — ARM 32-bit
//   * Google Pixel 2 XL (Android 8.0, 07/2017 patch level) — ARM 64-bit
// Sixteen libraries are sized to the per-CVE "Total" column of Table VI so
// the candidate-set arithmetic (TP/TN/FP/FN) lands on the same denominators.
// Each device's image links either the vulnerable or the patched version of
// every CVE function according to that device's patch level, then strips all
// symbols — the COTS condition PATCHECKO operates under.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "binary/binary.h"
#include "blob/blob_store.h"
#include "source/ast.h"
#include "source/mutate.h"

namespace patchecko {

struct EvalLibrarySpec {
  std::string name;
  std::size_t function_count = 0;
};

struct CveSpec {
  std::string cve_id;
  std::string library;   ///< EvalLibrarySpec::name of the host library
  PatchKind kind = PatchKind::add_bounds_guard;
};

struct DeviceSpec {
  std::string name;
  Arch arch = Arch::arm32;
  OptLevel opt = OptLevel::O2;
  std::string patch_level;
  std::vector<std::string> patched_cves;

  bool is_patched(const std::string& cve_id) const;
};

/// The 16 evaluation libraries (paper Table VI "Total" column).
std::vector<EvalLibrarySpec> standard_libraries();
/// The 25 evaluated CVEs with their host libraries and patch shapes.
std::vector<CveSpec> standard_cves();
/// Android Things 1.0 (ground-truth patch set from Table VIII).
DeviceSpec android_things_device();
/// Google Pixel 2 XL (07/2017 patch level: almost everything unpatched).
DeviceSpec pixel2xl_device();

struct EvalConfig {
  /// Scales library function counts (tests use ~0.02, benches 1.0).
  double scale = 1.0;
  std::uint64_t seed = 0xDA7A00;
  /// Reference (vulnerability database) build settings. Cross-platform by
  /// default: x86-family references vs ARM targets. The paper's case study
  /// compiled references at -O0; we default to -O2 so the database's
  /// *dynamic* profiles are comparable to vendor production builds — a
  /// documented substitution (DESIGN.md), ablated in bench_ablation_features.
  Arch db_arch = Arch::amd64;
  OptLevel db_opt = OptLevel::O2;
};

/// One CVE planted in a library: its slot and the source-level pair.
struct HostedCve {
  CveSpec spec;
  std::size_t library_index = 0;
  std::size_t slot = 0;
  VulnPatchPair pair;
};

struct FirmwareImage {
  std::string device;
  std::vector<LibraryBinary> libraries;  ///< stripped
  /// digest_library of each library, parallel to `libraries`, as decoded:
  /// code that edits `libraries` clears it. The engine's cache keys.
  std::vector<Digest> library_keys;

  std::size_t total_functions() const;
};

/// On-disk firmware format ("PKFW"): the unit a vendor would ship and a
/// pentester would load. u32 magic, u32 device-name length + name, u32
/// library count, then per library a u32 byte length and its PKLB record
/// (binary/binary.h, the one layout of compiled code).
///
/// save_firmware writes the file atomically (temp + rename). load_firmware
/// streams it one library at a time (a library's bytes live only until it
/// is decoded), checks every length prefix against the bytes left in the
/// file before allocating for it, and reads a wrong magic, a malformed
/// library or trailing bytes as nullopt. The daemon loads whatever path a
/// client names, so a hostile file costs at most its own size.
bool save_firmware(const FirmwareImage& image, const std::string& path);

/// The identity of a PKFW file's exact bytes: a Digest of its field stream
/// (magic, device name, library count, then each library's length and
/// library key), which covers every byte of the file, and the file size.
struct FirmwareDigest {
  Digest::Value value;
  std::uint64_t bytes = 0;

  bool operator==(const FirmwareDigest&) const = default;
};

/// Decodes a PKFW file, keying each library from the bytes it decodes.
/// When `digest` is non-null it receives the FirmwareDigest of the very
/// bytes decoded, so a cache keyed on it never files an image under bytes
/// it was not decoded from.
std::optional<FirmwareImage> load_firmware(const std::string& path,
                                           FirmwareDigest* digest = nullptr);

/// The FirmwareDigest load_firmware would report, without decoding: the
/// same framing walk and length checks, with each library record streamed
/// through a fixed 1 MiB buffer into its key. nullopt wherever load_firmware
/// fails on the framing (missing file, wrong magic, bad length, trailing
/// bytes); a library record is not decoded, so a malformed one still
/// digests.
std::optional<FirmwareDigest> digest_firmware(const std::string& path);

/// Generates and owns the whole evaluation universe.
class EvalCorpus {
 public:
  explicit EvalCorpus(const EvalConfig& config);

  const EvalConfig& config() const { return config_; }
  const std::vector<EvalLibrarySpec>& library_specs() const {
    return library_specs_;
  }
  const std::vector<HostedCve>& hosted_cves() const { return hosted_; }
  const HostedCve& hosted(const std::string& cve_id) const;

  /// Source of library `index` with the *vulnerable* version of every hosted
  /// CVE in place.
  const SourceLibrary& vulnerable_source(std::size_t index) const {
    return sources_[index];
  }

  /// Source with the patch status each CVE has on `device`.
  SourceLibrary source_for_device(std::size_t index,
                                  const DeviceSpec& device) const;

  /// Compiles library `index` for a device (stripped) — uids are stable
  /// across devices and build settings for ground-truth bookkeeping.
  LibraryBinary compile_for_device(std::size_t index,
                                   const DeviceSpec& device) const;

  /// Full firmware image for a device.
  FirmwareImage build_firmware(const DeviceSpec& device) const;

  /// Reference build of library `index` at database settings, with the
  /// vulnerable versions in place (unstripped).
  LibraryBinary compile_reference(std::size_t index) const;

  /// Ground-truth uid of a hosted CVE's target function.
  std::uint64_t target_uid(const HostedCve& cve) const;

  /// Stable uid namespace of library `index`: function f compiles with
  /// source_uid == uid_base(index) + f in every build variant. Exposed so
  /// the prebuilt-corpus builder (src/corpus) can compile matrix variants
  /// bit-identical to compile_reference/compile_for_device output.
  std::uint64_t uid_base(std::size_t library_index) const;

  /// Ground-truth symbol name (available to the evaluation harness even
  /// though device binaries are stripped).
  const std::string& function_name(std::size_t library_index,
                                   std::size_t function_index) const {
    return sources_[library_index].functions[function_index].name;
  }

  std::size_t library_index(const std::string& name) const;

 private:
  EvalConfig config_;
  std::vector<EvalLibrarySpec> library_specs_;
  std::vector<SourceLibrary> sources_;  // vulnerable versions inserted
  std::vector<HostedCve> hosted_;
};

}  // namespace patchecko
