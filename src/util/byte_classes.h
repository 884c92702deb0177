// Grouping of fixed-size values by their raw bytes.
//
// Stage 1 scores one function per distinct feature vector and the retrieval
// index clusters one point per distinct quantized code (DESIGN.md §22).
// Both need the same thing: which earlier element has exactly these bytes.
// Equality is memcmp, never operator==, so for doubles -0.0 and 0.0 are
// different values and a NaN equals only a NaN with the same bits.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace patchecko {

struct ByteClasses {
  /// Per element: its class, an index into `representatives`.
  std::vector<std::uint32_t> class_of;
  /// Per class: the index of its first element. Ascending, so classes are
  /// numbered in first-occurrence order.
  std::vector<std::uint32_t> representatives;
};

/// Classifies `items` by raw bytes with an open-addressing table (linear
/// probing, at most half full). T must have no padding: every byte is part
/// of the value.
template <typename T>
ByteClasses classify_by_bytes(const std::vector<T>& items) {
  static_assert(std::is_trivially_copyable_v<T>);
  constexpr std::uint32_t kEmpty = UINT32_MAX;
  ByteClasses out;
  out.class_of.resize(items.size());
  std::size_t capacity = 16;
  while (capacity < 2 * items.size()) capacity <<= 1;
  const std::size_t mask = capacity - 1;
  std::vector<std::uint32_t> slots(capacity, kEmpty);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&items[i]);
    std::uint64_t hash = 0x9e3779b97f4a7c15ULL;
    std::size_t at = 0;
    for (; at + 8 <= sizeof(T); at += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, bytes + at, 8);
      hash = (hash ^ word) * 0xbf58476d1ce4e5b9ULL;
      hash ^= hash >> 31;
    }
    for (; at < sizeof(T); ++at) hash = (hash ^ bytes[at]) * 0x100000001b3ULL;
    hash = (hash ^ (hash >> 29)) * 0x94d049bb133111ebULL;
    hash ^= hash >> 32;
    std::size_t slot = hash & mask;
    while (slots[slot] != kEmpty &&
           std::memcmp(&items[out.representatives[slots[slot]]], &items[i],
                       sizeof(T)) != 0)
      slot = (slot + 1) & mask;
    if (slots[slot] == kEmpty) {
      slots[slot] = static_cast<std::uint32_t>(out.representatives.size());
      out.representatives.push_back(static_cast<std::uint32_t>(i));
    }
    out.class_of[i] = slots[slot];
  }
  return out;
}

}  // namespace patchecko
