// Payload serialization for prebuilt-corpus artifacts.
//
// Two artifact kinds live in the store (store.h):
//   * a library artifact — one compiled library, so a warm load skips
//     compilation; and
//   * a CveEntry — everything the online pipeline reads for one CVE
//     (reference binaries, features, signatures, fuzzed environments,
//     dynamic profiles, per-arch reference sets).
//
// Deserializers return nullopt on any malformed or truncated input: a
// corrupt store object degrades to a cache miss and a rebuild, never UB.
// Payloads use the shared blob codec (blob/blob_store.h): host-local
// native-endian artifacts, not an interchange format. Compiled code inside
// them is written in its one layout (binary/binary.h): a library artifact
// is a header and one length-prefixed PKLB record, read in place; a
// CveEntry writes each reference function as its arch, its opt, then the
// PKLB function record.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cve_database.h"

namespace patchecko::corpus {

/// Version of the library artifact payload layout. Like
/// kEntryPayloadVersion it is part of every library's ArtifactKey, so
/// objects of an older layout are rebuilt, not reported as reused.
inline constexpr std::uint64_t kLibraryPayloadVersion = 2;

std::vector<std::uint8_t> serialize_library_artifact(
    const LibraryBinary& library);
std::optional<LibraryBinary> deserialize_library_artifact(
    const std::vector<std::uint8_t>& bytes);

/// Version of the CveEntry payload layout. It is also part of every entry's
/// ArtifactKey (builder.cpp), so a layout change files entries under new
/// keys and `corpus build` rebuilds them instead of reusing unreadable ones.
inline constexpr std::uint64_t kEntryPayloadVersion = 2;

std::vector<std::uint8_t> serialize_cve_entry(const CveEntry& entry);
std::optional<CveEntry> deserialize_cve_entry(
    const std::vector<std::uint8_t>& bytes);

}  // namespace patchecko::corpus
