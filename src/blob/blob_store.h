// One verified, content-addressed blob layer under every on-disk store.
//
// The engine's result cache (engine/cache.h) and the prebuilt-corpus store
// (corpus/store.h) both persist bytes addressed by a key. Every decision on
// how those bytes sit on disk lives here, once: the byte codec (append_* and
// the bounds-checked Reader), the self-verifying "PKCS" container (magic,
// version, key echo, payload, payload digest), the sharded
// <root>/objects/<hh>/<hex>.bin layout (<hex> = Digest of the echo), the
// atomic temp+rename put and the verified read. A missing, truncated,
// bit-flipped or misfiled object reads as nullopt: a miss, never a wrong
// answer.
//
// Payloads are host-local native-endian artifacts, not an interchange format;
// every platform this repo targets (x86, amd64, arm64 hosts) is
// little-endian. The same codec writes the one layout of compiled code
// (binary/binary.h, "PKLB"), which firmware images and corpus payloads
// share; its u8/u32 fields are why append_u8/append_u32 exist here.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace patchecko {

/// 128-bit streaming content digest. Four independent 64-bit
/// multiply-rotate lanes take the input one 8-byte word per lane step,
/// round-robin, so a bulk absorb runs at memory speed. Not cryptographic:
/// collision resistance is only needed against accidental key clashes in a
/// cache namespace.
///
/// Field-stream semantics: the digest covers a sequence of absorb_* calls,
/// not a concatenated byte stream. absorb_u64 is one word. absorb(data, n)
/// is its whole words in order, then, when n is not a multiple of 8, one
/// word packing the tail bytes with their count. So absorb("ab") followed by
/// absorb("c") differs from absorb("abc"), and every variable-length field
/// needs its own length prefix (absorb_string writes one). A byte range of
/// whole words digests exactly like absorb_u64 of each word.
struct Digest {
  /// The finished 128-bit value.
  struct Value {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const Value&) const = default;
  };

  std::uint64_t lane[4] = {kSeed + kPrime1 + kPrime2, kSeed + kPrime2, kSeed,
                           kSeed - kPrime1};
  std::uint64_t words = 0;  ///< words absorbed; also the next lane's index

  void absorb(const void* data, std::size_t size);
  void absorb_u64(std::uint64_t value) {
    std::uint64_t& acc = lane[words & 3];
    acc = lane_step(acc, value);
    ++words;
  }
  void absorb_i64(std::int64_t value) {
    absorb_u64(static_cast<std::uint64_t>(value));
  }
  void absorb_double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    absorb_u64(bits);
  }
  void absorb_string(const std::string& text) {
    absorb_u64(text.size());
    absorb(text.data(), text.size());
  }

  /// Merges the lanes and the word count, then avalanches each half.
  Value value() const;
  /// value() as 32 hex characters, usable as a filename.
  std::string hex() const;

  static constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
  static constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
  static constexpr std::uint64_t kSeed = 0x5043484b44494731ULL;

  /// One lane step: add the multiplied word, rotate, multiply.
  static std::uint64_t lane_step(std::uint64_t acc, std::uint64_t word) {
    return std::rotl(acc + word * kPrime2, 31) * kPrime1;
  }
};

namespace blob {

using Bytes = std::vector<std::uint8_t>;

// --- byte codec ------------------------------------------------------------

inline void append_bytes(Bytes& out, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), bytes, bytes + size);
}
inline void append_u8(Bytes& out, std::uint8_t value) { out.push_back(value); }
inline void append_u32(Bytes& out, std::uint32_t value) {
  append_bytes(out, &value, sizeof(value));
}
inline void append_u64(Bytes& out, std::uint64_t value) {
  append_bytes(out, &value, sizeof(value));
}
inline void append_i64(Bytes& out, std::int64_t value) {
  append_bytes(out, &value, sizeof(value));
}
inline void append_double(Bytes& out, double value) {
  append_bytes(out, &value, sizeof(value));
}
inline void append_string(Bytes& out, const std::string& text) {
  append_u64(out, text.size());
  append_bytes(out, text.data(), text.size());
}

/// Cursor over a byte buffer; every read checks bounds and latches failure,
/// so a parser may read a whole record and test `ok` once at the end.
struct Reader {
  const Bytes& bytes;
  std::size_t pos = 0;
  bool ok = true;

  std::size_t remaining() const { return bytes.size() - pos; }

  bool read(void* out, std::size_t size) {
    if (!ok || size > remaining()) {
      ok = false;
      return false;
    }
    // An empty vector's data() may be null, which memcpy must not see.
    if (size != 0) std::memcpy(out, bytes.data() + pos, size);
    pos += size;
    return true;
  }
  template <typename T>
  T read_value() {
    T value{};
    read(&value, sizeof(value));
    return value;
  }
  std::uint8_t read_u8() { return read_value<std::uint8_t>(); }
  std::uint32_t read_u32() { return read_value<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_value<std::uint64_t>(); }
  std::int64_t read_i64() { return read_value<std::int64_t>(); }
  double read_double() { return read_value<double>(); }
  std::string read_string() {
    const std::uint64_t size = read_u64();
    if (!fits(size, 1)) return {};
    std::string text(reinterpret_cast<const char*>(bytes.data() + pos),
                     static_cast<std::size_t>(size));
    pos += static_cast<std::size_t>(size);
    return text;
  }
  /// Guards count-prefixed loops: a fabricated huge count must fail before
  /// any resize() tries to allocate it (and before count * element_size can
  /// wrap around).
  bool fits(std::uint64_t count, std::size_t element_size) {
    if (ok && count <= remaining() / element_size) return true;
    ok = false;
    return false;
  }
};

// --- container -------------------------------------------------------------

/// A container's two parts: the key it was filed under and its payload.
struct Sealed {
  Bytes echo;
  Bytes payload;
};

/// Builds the self-verifying container for (echo, payload).
Bytes seal(const Bytes& echo, const Bytes& payload);

/// Parses and verifies a container. nullopt on any structural problem or a
/// payload-digest mismatch; `detail` (when non-null) receives the reason.
std::optional<Sealed> open(Bytes bytes, std::string* detail = nullptr);

// --- files -----------------------------------------------------------------

/// Whole-file read sized by fstat; nullopt when missing, unreadable or not
/// a regular file.
std::optional<Bytes> read_file(const std::string& path);

/// Writes to a unique temp file beside `path`, then renames it into place,
/// so a reader never observes a half-written file. False on IO failure.
bool write_file(const std::string& path, const Bytes& bytes);

// --- store -----------------------------------------------------------------

/// Content-addressed object directory. Stateless apart from its root, so one
/// instance is safe to share across threads; objects are also safe across
/// processes (rename-into-place).
class BlobStore {
 public:
  /// Creates <root>/objects if needed.
  explicit BlobStore(std::string root);

  const std::string& root() const { return root_; }

  /// An object's address: the Digest of its echo bytes.
  static Digest address(const Bytes& echo);

  /// <root>/objects/<hh>/<hex>.bin
  std::string path(const std::string& hex) const;

  /// Seals (echo, payload) and renames it into place at address(echo).
  /// Returns the container's size in bytes, or 0 on IO failure.
  std::uint64_t put(const Bytes& echo, const Bytes& payload) const;

  /// The payload stored under `echo`, or nullopt when the object is missing,
  /// fails verification, or echoes another key. `stored_bytes` (when
  /// non-null) receives the container size of a hit.
  std::optional<Bytes> get(const Bytes& echo,
                           std::uint64_t* stored_bytes = nullptr) const;

  /// (hex, path relative to root) of every object, sorted. Leftover temp
  /// files from a crashed writer are not objects and are skipped.
  std::vector<std::pair<std::string, std::string>> list() const;

 private:
  std::string root_;
};

}  // namespace blob
}  // namespace patchecko
