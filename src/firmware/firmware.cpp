#include "firmware/firmware.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "compiler/compiler.h"
#include "obs/trace.h"
#include "source/generator.h"
#include "util/rng.h"

namespace patchecko {

bool DeviceSpec::is_patched(const std::string& cve_id) const {
  return std::find(patched_cves.begin(), patched_cves.end(), cve_id) !=
         patched_cves.end();
}

std::size_t FirmwareImage::total_functions() const {
  std::size_t total = 0;
  for (const LibraryBinary& lib : libraries) total += lib.function_count();
  return total;
}

namespace {

constexpr std::uint32_t kFirmwareMagic = 0x504b4657;  // "PKFW"

/// A digest-only walk streams library records through a buffer this size;
/// a multiple of 8, so every chunk but a record's last is whole words.
constexpr std::size_t kDigestChunkBytes = std::size_t{1} << 20;

/// Walks a PKFW file from `fd`, decoding it into `image` and/or digesting
/// it into `digest` (at least one is non-null). Every length prefix is
/// checked against the bytes left in the file (fstat) before anything is
/// allocated for it. Each library record is digested once, into its key
/// (digest_library); the file digest takes the magic, device name and
/// library count, then per library its length and key.
///
/// With `image` set, each library record is read whole and decoded, and its
/// bytes are freed once decoded: one buffer reused across libraries would
/// keep the largest alive beside the decoded image, the load's peak (+6.6 MB
/// on the scale-1.0 Things image). Without it, records stream through one
/// kDigestChunkBytes buffer. A run of whole-word absorbs digests exactly
/// like one absorb of the record, so both walks give the same keys.
bool walk_image(int fd, FirmwareImage* image, FirmwareDigest* digest) {
  struct stat info {};
  if (::fstat(fd, &info) != 0 || !S_ISREG(info.st_mode)) return false;
  auto left = static_cast<std::uint64_t>(info.st_size);
  const auto take = [&](void* out, std::uint64_t size) {
    if (size > left) return false;
    auto* bytes = static_cast<char*>(out);
    for (std::uint64_t done = 0; done < size;) {
      const ssize_t got = ::read(fd, bytes + done, size - done);
      if (got <= 0) return false;
      done += static_cast<std::uint64_t>(got);
    }
    left -= size;
    return true;
  };
  // A u32 length, checked against the bytes left.
  const auto take_size = [&](std::uint32_t& size) {
    return take(&size, sizeof(size)) && size <= left;
  };
  Digest stream;
  std::uint32_t magic = 0, size = 0, library_count = 0;
  std::string device;
  if (!take(&magic, sizeof(magic)) || magic != kFirmwareMagic ||
      !take_size(size))
    return false;
  device.resize(size);
  if (!take(device.data(), size) ||
      !take(&library_count, sizeof(library_count)) ||
      library_count > left / sizeof(std::uint32_t))
    return false;
  stream.absorb_u64(magic);
  stream.absorb_string(device);
  stream.absorb_u64(library_count);
  if (image != nullptr) image->device = std::move(device);
  blob::Bytes chunk(image == nullptr ? kDigestChunkBytes : 0);
  for (std::uint32_t i = 0; i < library_count; ++i) {
    if (!take_size(size)) return false;
    Digest key;
    if (image == nullptr) {
      for (std::uint64_t done = 0; done < size;) {
        const auto step = static_cast<std::size_t>(
            std::min<std::uint64_t>(size - done, chunk.size()));
        if (!take(chunk.data(), step)) return false;
        key.absorb(chunk.data(), step);
        done += step;
      }
    } else {
      blob::Bytes bytes(size);
      if (!take(bytes.data(), size)) return false;
      key.absorb(bytes.data(), bytes.size());
      std::optional<LibraryBinary> library = deserialize_library(bytes);
      if (!library) return false;
      image->libraries.push_back(std::move(*library));
      image->library_keys.push_back(key);
    }
    const Digest::Value value = key.value();
    stream.absorb_u64(size);
    stream.absorb_u64(value.hi);
    stream.absorb_u64(value.lo);
  }
  if (left != 0) return false;  // trailing bytes
  if (digest != nullptr)
    *digest = FirmwareDigest{stream.value(),
                             static_cast<std::uint64_t>(info.st_size)};
  return true;
}

/// walk_image over the file at `path`.
bool walk_file(const std::string& path, FirmwareImage* image,
               FirmwareDigest* digest) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = walk_image(fd, image, digest);
  ::close(fd);
  return ok;
}

}  // namespace

bool save_firmware(const FirmwareImage& image, const std::string& path) {
  blob::Bytes bytes;
  blob::append_u32(bytes, kFirmwareMagic);
  blob::append_u32(bytes, static_cast<std::uint32_t>(image.device.size()));
  blob::append_bytes(bytes, image.device.data(), image.device.size());
  blob::append_u32(bytes, static_cast<std::uint32_t>(image.libraries.size()));
  for (const LibraryBinary& library : image.libraries) {
    const blob::Bytes record = serialize_library(library);
    blob::append_u32(bytes, static_cast<std::uint32_t>(record.size()));
    blob::append_bytes(bytes, record.data(), record.size());
  }
  return blob::write_file(path, bytes);
}

std::optional<FirmwareImage> load_firmware(const std::string& path,
                                           FirmwareDigest* digest) {
  const obs::ScopedSpan span("setup.firmware");
  FirmwareImage image;
  if (!walk_file(path, &image, digest)) return std::nullopt;
  return image;
}

std::optional<FirmwareDigest> digest_firmware(const std::string& path) {
  FirmwareDigest digest;
  if (!walk_file(path, nullptr, &digest)) return std::nullopt;
  return digest;
}

std::vector<EvalLibrarySpec> standard_libraries() {
  // Function counts reproduce the per-CVE "Total" column of Table VI.
  return {
      {"libmediaextract", 1183}, {"libexif", 987},
      {"libmtp", 357},           {"libminijail", 116},
      {"libhevc", 1433},         {"libnfc", 1020},
      {"libdrmframework", 617},  {"libsonivox", 467},
      {"libskia", 2538},         {"libvorbis", 653},
      {"libbluetooth_gatt", 180}, {"libwebview", 13729},
      {"libopus", 735},          {"libmpeg2", 1181},
      {"libavc", 594},           {"libstagefright", 5646},
  };
}

std::vector<CveSpec> standard_cves() {
  // Host-library assignment groups CVEs that share a Table VI "Total".
  // Patch shapes: CVE-2018-9412 is the paper's case-study memmove removal
  // (Figure 6); CVE-2018-9470 is the one-integer patch the differential
  // engine misses; the rest cycle through the common bulletin patch shapes.
  // Explicit shape assignment. CVEs patched on Android Things carry small
  // patches (detectable from either reference) — except CVE-2017-13209,
  // whose patch restructures the function so much that the vulnerable-query
  // DL stage misses the patched target, reproducing the paper's single N/A
  // row of Table VI.
  struct Row {
    const char* id;
    const char* library;
    PatchKind kind;
  };
  const Row rows[] = {
      {"CVE-2018-9451", "libmediaextract", PatchKind::add_bounds_guard},
      {"CVE-2018-9340", "libmediaextract", PatchKind::off_by_one},
      {"CVE-2017-13232", "libexif", PatchKind::off_by_one},
      {"CVE-2018-9345", "libmtp", PatchKind::remove_memmove_loop},
      {"CVE-2018-9420", "libminijail", PatchKind::add_bounds_guard},
      {"CVE-2017-13210", "libminijail", PatchKind::add_skip_condition},
      {"CVE-2018-9470", "libhevc", PatchKind::constant_tweak},
      {"CVE-2017-13209", "libnfc", PatchKind::remove_memmove_loop},
      {"CVE-2018-9411", "libnfc", PatchKind::add_skip_condition},
      {"CVE-2017-13252", "libdrmframework", PatchKind::add_bounds_guard},
      {"CVE-2017-13253", "libdrmframework", PatchKind::off_by_one},
      {"CVE-2018-9499", "libdrmframework", PatchKind::remove_memmove_loop},
      {"CVE-2018-9424", "libdrmframework", PatchKind::add_bounds_guard},
      {"CVE-2018-9491", "libsonivox", PatchKind::off_by_one},
      {"CVE-2017-13278", "libskia", PatchKind::add_skip_condition},
      {"CVE-2018-9410", "libvorbis", PatchKind::remove_memmove_loop},
      {"CVE-2017-13208", "libbluetooth_gatt", PatchKind::off_by_one},
      {"CVE-2018-9498", "libwebview", PatchKind::add_bounds_guard},
      {"CVE-2017-13279", "libopus", PatchKind::add_bounds_guard},
      {"CVE-2018-9440", "libopus", PatchKind::add_skip_condition},
      {"CVE-2018-9427", "libmpeg2", PatchKind::remove_memmove_loop},
      {"CVE-2017-13178", "libavc", PatchKind::add_bounds_guard},
      {"CVE-2017-13180", "libavc", PatchKind::off_by_one},
      {"CVE-2018-9412", "libstagefright", PatchKind::remove_memmove_loop},
      {"CVE-2017-13182", "libstagefright", PatchKind::add_skip_condition},
  };
  std::vector<CveSpec> cves;
  for (const Row& row : rows) {
    CveSpec spec;
    spec.cve_id = row.id;
    spec.library = row.library;
    spec.kind = row.kind;
    cves.push_back(std::move(spec));
  }
  return cves;
}

DeviceSpec android_things_device() {
  DeviceSpec device;
  device.name = "Android Things 1.0";
  device.arch = Arch::arm32;
  device.opt = OptLevel::O2;
  device.patch_level = "2018-05";
  // Ground truth of Table VIII: ten CVEs patched at the 05/2018 level.
  device.patched_cves = {
      "CVE-2017-13232", "CVE-2017-13210", "CVE-2017-13209",
      "CVE-2017-13252", "CVE-2017-13253", "CVE-2017-13278",
      "CVE-2017-13208", "CVE-2017-13279", "CVE-2017-13180",
      "CVE-2017-13182",
  };
  return device;
}

DeviceSpec pixel2xl_device() {
  DeviceSpec device;
  device.name = "Google Pixel 2 XL";
  device.arch = Arch::arm64;
  device.opt = OptLevel::O2;
  device.patch_level = "2017-07";
  // The paper reports only the 07/2017 patch level for this device; we model
  // it as almost fully unpatched (documented substitution in DESIGN.md).
  device.patched_cves = {"CVE-2017-13208", "CVE-2017-13209"};
  return device;
}

namespace {

std::uint64_t uid_base_for(std::size_t library_index) {
  return (static_cast<std::uint64_t>(library_index) + 1) << 32;
}

}  // namespace

EvalCorpus::EvalCorpus(const EvalConfig& config) : config_(config) {
  const obs::ScopedSpan span("setup.corpus");
  library_specs_ = standard_libraries();
  for (EvalLibrarySpec& spec : library_specs_)
    spec.function_count = std::max<std::size_t>(
        24, static_cast<std::size_t>(std::llround(
                static_cast<double>(spec.function_count) * config.scale)));

  Rng rng(config.seed);
  sources_.reserve(library_specs_.size());
  for (std::size_t i = 0; i < library_specs_.size(); ++i) {
    const std::uint64_t lib_seed = rng.fork(i + 101)();
    sources_.push_back(generate_library(library_specs_[i].name, lib_seed,
                                        library_specs_[i].function_count));
  }

  // Plant the CVE pairs. Slots spread through the upper half of each
  // library, far enough in that dispatcher-style patches have callees.
  std::map<std::string, std::size_t> per_library_counter;
  for (const CveSpec& spec : standard_cves()) {
    const std::size_t lib = library_index(spec.library);
    const std::size_t k = per_library_counter[spec.library]++;
    const std::size_t n = sources_[lib].functions.size();
    // The slot's original function must not be callable by later
    // dispatchers (i.e. must have a ptr parameter), so swapping in a CVE
    // function of a different signature cannot corrupt any call site.
    std::size_t slot = (n / 2 + 7 * k) % n;
    for (std::size_t probe = 0; probe < n; ++probe) {
      const auto& types =
          sources_[lib].functions[(slot + probe) % n].param_types;
      const bool has_ptr =
          std::find(types.begin(), types.end(), ValueType::ptr) !=
          types.end();
      if (has_ptr) {
        slot = (slot + probe) % n;
        break;
      }
    }

    HostedCve hosted;
    hosted.spec = spec;
    hosted.library_index = lib;
    hosted.slot = slot;
    Rng pair_rng = rng.fork(0xCDE000 + hosted_.size());
    hosted.pair = generate_vuln_patch_pair(spec.kind, pair_rng,
                                           static_cast<int>(slot));
    // Pretty ground-truth symbol names (Table IV flavour).
    const std::string pretty =
        spec.cve_id == "CVE-2018-9412"
            ? "ZN7android3ID323removeUnsynchronizationEv"
            : "cve_" + spec.cve_id.substr(4) + "_target";
    hosted.pair.vulnerable.name = pretty;
    hosted.pair.patched.name = pretty;

    sources_[lib].functions[slot] = hosted.pair.vulnerable;
    hosted_.push_back(std::move(hosted));
  }
}

const HostedCve& EvalCorpus::hosted(const std::string& cve_id) const {
  for (const HostedCve& cve : hosted_)
    if (cve.spec.cve_id == cve_id) return cve;
  throw std::out_of_range("EvalCorpus: unknown CVE " + cve_id);
}

std::size_t EvalCorpus::library_index(const std::string& name) const {
  for (std::size_t i = 0; i < library_specs_.size(); ++i)
    if (library_specs_[i].name == name) return i;
  throw std::out_of_range("EvalCorpus: unknown library " + name);
}

SourceLibrary EvalCorpus::source_for_device(std::size_t index,
                                            const DeviceSpec& device) const {
  SourceLibrary source = sources_[index];
  for (const HostedCve& cve : hosted_) {
    if (cve.library_index != index) continue;
    if (device.is_patched(cve.spec.cve_id))
      source.functions[cve.slot] = cve.pair.patched;
  }
  return source;
}

LibraryBinary EvalCorpus::compile_for_device(std::size_t index,
                                             const DeviceSpec& device) const {
  const SourceLibrary source = source_for_device(index, device);
  LibraryBinary binary = compile_library(source, device.arch, device.opt,
                                         uid_base_for(index));
  binary.strip();
  return binary;
}

FirmwareImage EvalCorpus::build_firmware(const DeviceSpec& device) const {
  FirmwareImage image;
  image.device = device.name;
  image.libraries.reserve(sources_.size());
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    image.libraries.push_back(compile_for_device(i, device));
    image.library_keys.push_back(digest_library(image.libraries.back()));
  }
  return image;
}

LibraryBinary EvalCorpus::compile_reference(std::size_t index) const {
  return compile_library(sources_[index], config_.db_arch, config_.db_opt,
                         uid_base_for(index));
}

std::uint64_t EvalCorpus::target_uid(const HostedCve& cve) const {
  return uid_base_for(cve.library_index) + cve.slot;
}

std::uint64_t EvalCorpus::uid_base(std::size_t library_index) const {
  return uid_base_for(library_index);
}

}  // namespace patchecko
