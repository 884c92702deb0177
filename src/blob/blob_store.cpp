#include "blob/blob_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace patchecko {

namespace fs = std::filesystem;

namespace {

/// splitmix64 finalizer: avalanches a merged lane sum before printing so
/// that short inputs still flip high bits.
std::uint64_t finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Folds one lane into a merge accumulator; a bijection in both arguments,
/// so a difference in any one lane survives the merge.
std::uint64_t merge_lane(std::uint64_t acc, std::uint64_t lane) {
  acc ^= Digest::lane_step(0, lane);
  return acc * Digest::kPrime1 + 0x85ebca77c2b2ae63ULL;
}

std::uint64_t load_word(const std::uint8_t* bytes) {
  std::uint64_t word = 0;
  std::memcpy(&word, bytes, sizeof(word));
  return word;
}

constexpr std::uint8_t kContainerMagic[4] = {'P', 'K', 'C', 'S'};
// v2: the echo is an opaque length-prefixed byte string, so one container
// serves every store. v3: the payload digest and the object address use the
// word-at-a-time Digest. Older objects fail the version check and degrade to
// a miss; their owner rebuilds and overwrites them.
constexpr std::uint64_t kContainerVersion = 3;

Digest::Value payload_digest(const std::uint8_t* data, std::size_t size) {
  Digest digest;
  digest.absorb_u64(size);
  digest.absorb(data, size);
  return digest.value();
}

}  // namespace

// --- Digest ----------------------------------------------------------------

void Digest::absorb(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  // Whole words until the next word lands on lane 0...
  while (size >= 8 && (words & 3) != 0) {
    absorb_u64(load_word(bytes));
    bytes += 8;
    size -= 8;
  }
  // ...then four words per iteration, one per lane, with the lanes in
  // registers: four independent multiply chains.
  if (size >= 32) {
    std::uint64_t a = lane[0], b = lane[1], c = lane[2], d = lane[3];
    const std::size_t blocks = size / 32;
    for (std::size_t i = 0; i < blocks; ++i, bytes += 32) {
      a = lane_step(a, load_word(bytes));
      b = lane_step(b, load_word(bytes + 8));
      c = lane_step(c, load_word(bytes + 16));
      d = lane_step(d, load_word(bytes + 24));
    }
    lane[0] = a;
    lane[1] = b;
    lane[2] = c;
    lane[3] = d;
    words += 4 * blocks;
    size -= 32 * blocks;
  }
  for (; size >= 8; bytes += 8, size -= 8) absorb_u64(load_word(bytes));
  if (size == 0) return;
  // The 1-7 tail bytes share one word with their count in the top byte.
  std::uint64_t tail = 0;
  std::memcpy(&tail, bytes, size);
  absorb_u64(tail | (static_cast<std::uint64_t>(size) << 56));
}

Digest::Value Digest::value() const {
  // Two merges of the same lanes in opposite orders, seeded differently, so
  // the halves are independent functions of the whole state.
  std::uint64_t hi = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
                     std::rotl(lane[2], 12) + std::rotl(lane[3], 18);
  std::uint64_t lo = (words * kPrime2) ^ kSeed;
  for (int i = 0; i < 4; ++i) {
    hi = merge_lane(hi, lane[i]);
    lo = merge_lane(lo, lane[3 - i]);
  }
  return {finalize(hi + words), finalize(lo)};
}

std::string Digest::hex() const {
  const Value digest = value();
  char out[33] = {};
  std::snprintf(out, sizeof(out), "%016llx%016llx",
                static_cast<unsigned long long>(digest.hi),
                static_cast<unsigned long long>(digest.lo));
  return out;
}

namespace blob {

// --- container -------------------------------------------------------------

Bytes seal(const Bytes& echo, const Bytes& payload) {
  Bytes out;
  out.reserve(sizeof(kContainerMagic) + 5 * sizeof(std::uint64_t) +
              echo.size() + payload.size());
  append_bytes(out, kContainerMagic, sizeof(kContainerMagic));
  append_u64(out, kContainerVersion);
  append_u64(out, echo.size());
  append_bytes(out, echo.data(), echo.size());
  append_u64(out, payload.size());
  append_bytes(out, payload.data(), payload.size());
  const Digest::Value digest = payload_digest(payload.data(), payload.size());
  append_u64(out, digest.hi);
  append_u64(out, digest.lo);
  return out;
}

std::optional<Sealed> open(Bytes bytes, std::string* detail) {
  const auto fail = [detail](const char* reason) -> std::optional<Sealed> {
    if (detail != nullptr) *detail = reason;
    return std::nullopt;
  };
  Reader reader{bytes};
  std::uint8_t magic[4] = {};
  if (!reader.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kContainerMagic, sizeof(magic)) != 0)
    return fail("bad magic");
  if (reader.read_u64() != kContainerVersion)
    return fail("unsupported container version");
  Sealed sealed;
  const std::uint64_t echo_size = reader.read_u64();
  if (!reader.fits(echo_size, 1)) return fail("truncated header");
  sealed.echo.assign(bytes.begin() + reader.pos,
                     bytes.begin() + reader.pos + echo_size);
  reader.pos += echo_size;
  const std::uint64_t payload_size = reader.read_u64();
  if (!reader.fits(payload_size, 1)) return fail("truncated payload");
  const std::size_t payload_pos = reader.pos;
  reader.pos += payload_size;
  const std::uint64_t hi = reader.read_u64();
  const std::uint64_t lo = reader.read_u64();
  if (!reader.ok || reader.pos != bytes.size())
    return fail("truncated trailer");
  const Digest::Value digest = payload_digest(
      bytes.data() + payload_pos, static_cast<std::size_t>(payload_size));
  if (hi != digest.hi || lo != digest.lo)
    return fail("payload digest mismatch");
  // Reuse the file buffer for the payload rather than copying it out.
  bytes.erase(bytes.begin(), bytes.begin() + payload_pos);
  bytes.resize(static_cast<std::size_t>(payload_size));
  sealed.payload = std::move(bytes);
  return sealed;
}

// --- files -----------------------------------------------------------------

std::optional<Bytes> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  // Sized from the open descriptor, so a concurrent rename-over cannot mix
  // two files. Anything but a regular file (a directory reports a bogus
  // size) reads as missing.
  std::optional<Bytes> bytes;
  struct stat info {};
  if (::fstat(fd, &info) == 0 && S_ISREG(info.st_mode)) {
    bytes.emplace(static_cast<std::size_t>(info.st_size));
    std::size_t done = 0;
    while (done < bytes->size()) {
      const ssize_t got =
          ::read(fd, bytes->data() + done, bytes->size() - done);
      if (got <= 0) {
        bytes.reset();
        break;
      }
      done += static_cast<std::size_t>(got);
    }
  }
  ::close(fd);
  return bytes;
}

bool write_file(const std::string& path, const Bytes& bytes) {
  // The pid keeps writers in different processes apart, the counter keeps
  // concurrent writers of the same path in this process apart.
  static std::atomic<std::uint64_t> temp_counter{0};
  const std::string temp_path = path + ".tmp" + std::to_string(::getpid()) +
                                "-" +
                                std::to_string(temp_counter.fetch_add(1));
  {
    std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) return false;
  }
  std::error_code ec;
  fs::rename(temp_path, path, ec);
  if (ec) {
    fs::remove(temp_path, ec);
    return false;
  }
  return true;
}

// --- BlobStore -------------------------------------------------------------

BlobStore::BlobStore(std::string root) : root_(std::move(root)) {
  fs::create_directories(fs::path(root_) / "objects");
}

Digest BlobStore::address(const Bytes& echo) {
  Digest digest;
  digest.absorb_u64(echo.size());
  digest.absorb(echo.data(), echo.size());
  return digest;
}

std::string BlobStore::path(const std::string& hex) const {
  return (fs::path(root_) / "objects" / hex.substr(0, 2) / (hex + ".bin"))
      .string();
}

std::uint64_t BlobStore::put(const Bytes& echo, const Bytes& payload) const {
  const Bytes container = seal(echo, payload);
  const std::string target = path(address(echo).hex());
  std::error_code ec;
  fs::create_directories(fs::path(target).parent_path(), ec);
  return write_file(target, container) ? container.size() : 0;
}

std::optional<Bytes> BlobStore::get(const Bytes& echo,
                                    std::uint64_t* stored_bytes) const {
  auto bytes = read_file(path(address(echo).hex()));
  if (!bytes) return std::nullopt;
  const std::uint64_t size = bytes->size();
  auto sealed = open(std::move(*bytes));
  // The echo must be the key asked for: an object renamed or copied over
  // another key's address is rejected here, not served.
  if (!sealed || sealed->echo != echo) return std::nullopt;
  if (stored_bytes != nullptr) *stored_bytes = size;
  return std::move(sealed->payload);
}

std::vector<std::pair<std::string, std::string>> BlobStore::list() const {
  std::vector<std::pair<std::string, std::string>> found;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(fs::path(root_) / "objects", ec),
       end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const fs::path& object = it->path();
    if (object.extension() != ".bin") continue;
    found.emplace_back(object.stem().string(),
                       fs::relative(object, root_, ec).string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace blob
}  // namespace patchecko
