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

std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// splitmix64 finalizer: avalanches a lane before printing so that short
/// inputs still flip high bits.
std::uint64_t finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint8_t kContainerMagic[4] = {'P', 'K', 'C', 'S'};
// v2: the echo is an opaque length-prefixed byte string, so one container
// serves every store. v1 objects (a corpus-key-shaped echo) fail the version
// check and degrade to a miss; their owner rebuilds and overwrites them.
constexpr std::uint64_t kContainerVersion = 2;

Digest payload_digest(const std::uint8_t* data, std::size_t size) {
  Digest digest;
  digest.absorb_u64(size);
  digest.absorb(data, size);
  return digest;
}

}  // namespace

// --- Digest ----------------------------------------------------------------

void Digest::absorb(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = hi, l = lo;
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ bytes[i]) * 0x00000100000001b3ULL;            // FNV-1a lane
    l = rotl64(l ^ (bytes[i] * 0x9e3779b97f4a7c15ULL), 27) // mixed lane
        * 0xc2b2ae3d27d4eb4fULL;
  }
  hi = h;
  lo = l;
}

void Digest::absorb_u64(std::uint64_t value) { absorb(&value, sizeof(value)); }

void Digest::absorb_double(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  absorb_u64(bits);
}

void Digest::absorb_string(const std::string& text) {
  absorb_u64(text.size());
  absorb(text.data(), text.size());
}

std::string Digest::hex() const {
  char out[33] = {};
  std::snprintf(out, sizeof(out), "%016llx%016llx",
                static_cast<unsigned long long>(finalize(hi)),
                static_cast<unsigned long long>(finalize(lo)));
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
  const Digest digest = payload_digest(payload.data(), payload.size());
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
  const Digest digest = payload_digest(bytes.data() + payload_pos,
                                       static_cast<std::size_t>(payload_size));
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
