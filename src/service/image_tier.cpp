#include "service/image_tier.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace patchecko::service {

namespace {

/// Registry mirrors of ImageTierStats; like every registry metric they
/// count only while metrics are on.
struct ImageTierMetrics {
  obs::Counter& hits = obs::Registry::global().counter("service.image_hits");
  obs::Counter& misses =
      obs::Registry::global().counter("service.image_misses");
  obs::Counter& evictions =
      obs::Registry::global().counter("service.image_evictions");
  obs::Gauge& bytes = obs::Registry::global().gauge("service.image_bytes");

  static ImageTierMetrics& get() {
    static ImageTierMetrics metrics;
    return metrics;
  }
};

}  // namespace

std::shared_ptr<const ResidentImage> ImageTier::load(const std::string& path) {
  std::optional<FirmwareDigest> key;
  {
    const obs::ScopedSpan span("service.image_digest");
    key = digest_firmware(path);
  }
  if (!key) return nullptr;
  if (auto resident = find(*key)) return resident;

  auto decoded = std::make_shared<ResidentImage>();
  std::optional<FirmwareImage> image = load_firmware(path, &decoded->key);
  if (!image) return nullptr;
  decoded->image = std::move(*image);
  return insert(std::move(decoded));
}

std::shared_ptr<const ResidentImage> ImageTier::find(
    const FirmwareDigest& key) {
  ImageTierMetrics& metrics = ImageTierMetrics::get();
  const std::lock_guard<std::mutex> lock(mutex_);
  std::shared_ptr<const ResidentImage> resident = touch_locked(key);
  if (resident) {
    ++hits_;
    metrics.hits.add();
  } else {
    ++misses_;
    metrics.misses.add();
  }
  return resident;
}

std::shared_ptr<const ResidentImage> ImageTier::insert(
    std::shared_ptr<const ResidentImage> image) {
  ImageTierMetrics& metrics = ImageTierMetrics::get();
  // Declared before the lock, so an evicted image that no scan holds is
  // freed after the lock is released.
  std::shared_ptr<const ResidentImage> evicted;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (auto resident = touch_locked(image->key)) return resident;
  bytes_ += image->key.bytes;
  entries_.insert(entries_.begin(), std::move(image));
  if (entries_.size() > kCapacity) {
    evicted = std::move(entries_.back());
    entries_.pop_back();
    bytes_ -= evicted->key.bytes;
    ++evictions_;
    metrics.evictions.add();
  }
  metrics.bytes.set(static_cast<std::int64_t>(bytes_));
  return entries_.front();
}

std::shared_ptr<const ResidentImage> ImageTier::touch_locked(
    const FirmwareDigest& key) {
  const auto it =
      std::find_if(entries_.begin(), entries_.end(),
                   [&](const auto& entry) { return entry->key == key; });
  if (it == entries_.end()) return nullptr;
  std::rotate(entries_.begin(), it, it + 1);
  return entries_.front();
}

ImageTierStats ImageTier::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ImageTierStats{entries_.size(), kCapacity, bytes_,
                        hits_,           misses_,   evictions_};
}

}  // namespace patchecko::service
