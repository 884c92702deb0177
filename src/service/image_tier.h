// The daemon's image tier: decoded firmware images kept resident across
// requests, keyed by the digest of their file's exact bytes.
//
// A fleet re-sends the same shipped images over and over. Without the tier
// every request decodes the whole image (31,436 functions for the scale-1.0
// Things image). With it, a request reads and digests the file
// (digest_firmware: every byte, every request; no path, inode, mtime or
// size shortcut) and, on a hit, takes the decoded image from memory. The
// image carries the library keys its decode took from the record bytes
// (FirmwareImage::library_keys), and the file digest is built from those
// same keys: the decode digests each record once, and a scan none.
//
// On a miss the image is decoded with load_firmware and filed under the
// digest of the bytes that decode read, not the first pass's: a file
// rewritten between the two passes is never served under the old key. The
// tier depends on file content only, so a corpus reload leaves it alone.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "firmware/firmware.h"

namespace patchecko::service {

/// One decoded image as the tier keeps it.
struct ResidentImage {
  FirmwareDigest key;
  FirmwareImage image;
};

/// Process-lifetime totals for the `images` block of the state document.
struct ImageTierStats {
  std::size_t entries = 0;
  std::size_t capacity = 0;
  std::uint64_t bytes = 0;  ///< file bytes of the resident images
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

class ImageTier {
 public:
  /// Resident images, least recently used evicted first. A decoded
  /// scale-1.0 image takes about 40 MB (Things 46 MB, Pixel 37 MB RSS), so
  /// four bound the tier near 180 MB while a daemon scanning both devices
  /// keeps both.
  static constexpr std::size_t kCapacity = 4;

  /// The image at `path`, from the tier or freshly decoded (and filed);
  /// null when the file is not a loadable PKFW image. Digesting and
  /// decoding run outside the lock, which guards only lookup, insert and
  /// eviction; an evicted image lives on in every scan still holding it.
  std::shared_ptr<const ResidentImage> load(const std::string& path);

  ImageTierStats stats() const;

 private:
  /// The entry filed under `key`, counted as a hit or a miss.
  std::shared_ptr<const ResidentImage> find(const FirmwareDigest& key);
  /// Files `image`, or returns the entry a racing request filed first
  /// under the same key.
  std::shared_ptr<const ResidentImage> insert(
      std::shared_ptr<const ResidentImage> image);
  /// With mutex_ held: the entry filed under `key`, made most recently
  /// used; null when there is none.
  std::shared_ptr<const ResidentImage> touch_locked(const FirmwareDigest& key);

  mutable std::mutex mutex_;
  /// Most recently used first; at most kCapacity entries.
  std::vector<std::shared_ptr<const ResidentImage>> entries_;
  std::uint64_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace patchecko::service
