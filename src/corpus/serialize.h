// Payload serialization for prebuilt-corpus artifacts.
//
// Two artifact kinds live in the store (store.h):
//   * a LibraryArtifact — one compiled library plus the per-function static
//     features and quantizer codes the retrieval index consumes, so a warm
//     load skips compilation *and* feature extraction; and
//   * a CveEntry — everything the online pipeline reads for one CVE
//     (reference binaries, features, signatures, fuzzed environments,
//     dynamic profiles, per-arch reference sets).
//
// Deserializers return nullopt on any malformed or truncated input: a
// corrupt store object degrades to a cache miss and a rebuild, never UB.
// Payloads use the shared blob codec (blob/blob_store.h): host-local
// native-endian artifacts, not an interchange format. Compiled code inside
// them is written in its one layout (binary/binary.h): a library artifact
// embeds a length-prefixed PKLB record, read in place; a CveEntry writes
// each reference function as its arch, its opt, then the PKLB function
// record.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cve_database.h"
#include "retrieval/quantizer.h"

namespace patchecko::corpus {

/// A compiled library ready for index build: binaries + features + codes,
/// index-aligned with `library.functions`.
struct LibraryArtifact {
  LibraryBinary library;
  std::vector<StaticFeatureVector> features;
  std::vector<retrieval::QuantizedVector> codes;
};

std::vector<std::uint8_t> serialize_library_artifact(
    const LibraryArtifact& artifact);
std::optional<LibraryArtifact> deserialize_library_artifact(
    const std::vector<std::uint8_t>& bytes);

/// Builds the artifact for a compiled library (features + quantizer codes
/// extracted here so every store producer agrees on the derivation).
LibraryArtifact make_library_artifact(LibraryBinary library);

/// Version of the CveEntry payload layout. It is also part of every entry's
/// ArtifactKey (builder.cpp), so a layout change files entries under new
/// keys and `corpus build` rebuilds them instead of reusing unreadable ones.
inline constexpr std::uint64_t kEntryPayloadVersion = 2;

std::vector<std::uint8_t> serialize_cve_entry(const CveEntry& entry);
std::optional<CveEntry> deserialize_cve_entry(
    const std::vector<std::uint8_t>& bytes);

}  // namespace patchecko::corpus
