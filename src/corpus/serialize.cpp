#include "corpus/serialize.h"

#include <type_traits>

#include "blob/blob_store.h"
#include "features/static_features.h"

namespace patchecko::corpus {

using namespace blob;

namespace {

// DynamicFeatures is 21 naturally-aligned 8-byte fields, so the raw object
// representation has no padding and round-trips bit-exactly.
static_assert(std::is_trivially_copyable_v<DynamicFeatures> &&
                  sizeof(DynamicFeatures) == DynamicFeatures::count * 8,
              "DynamicFeatures layout changed; bump kEntryPayloadVersion and "
              "serialize field-by-field");

constexpr std::uint64_t kLibraryTag = 0x4c4cu;  // 'LL'
constexpr std::uint64_t kEntryTag = 0x4545u;    // 'EE'

// --- field-group helpers ---------------------------------------------------

/// A reference function outside any library: its arch and opt, then the
/// shared per-function layout (binary/binary.h).
void append_reference(std::vector<std::uint8_t>& out,
                      const FunctionBinary& fn) {
  append_u8(out, static_cast<std::uint8_t>(fn.arch));
  append_u8(out, static_cast<std::uint8_t>(fn.opt));
  append_function(out, fn);
}

bool read_reference(Reader& reader, FunctionBinary& fn) {
  fn.arch = static_cast<Arch>(reader.read_u8());
  fn.opt = static_cast<OptLevel>(reader.read_u8());
  return read_function(reader, fn);
}

void append_features(std::vector<std::uint8_t>& out,
                     const StaticFeatureVector& features) {
  append_bytes(out, features.data(), features.size() * sizeof(double));
}

bool read_features(Reader& reader, StaticFeatureVector& features) {
  return reader.read(features.data(), features.size() * sizeof(double));
}

void append_signature(std::vector<std::uint8_t>& out,
                      const DiffSignature& signature) {
  for (const int count : signature.libcall_counts) append_i64(out, count);
  append_i64(out, signature.basic_blocks);
  append_i64(out, signature.edges);
  append_i64(out, signature.cyclomatic);
  append_i64(out, signature.params);
  append_i64(out, signature.frame_size);
  append_i64(out, signature.jump_tables);
  append_i64(out, signature.string_refs);
  append_i64(out, signature.conditional_branches);
}

bool read_signature(Reader& reader, DiffSignature& signature) {
  for (int& count : signature.libcall_counts)
    count = static_cast<int>(reader.read_i64());
  signature.basic_blocks = static_cast<int>(reader.read_i64());
  signature.edges = static_cast<int>(reader.read_i64());
  signature.cyclomatic = static_cast<long>(reader.read_i64());
  signature.params = static_cast<int>(reader.read_i64());
  signature.frame_size = reader.read_i64();
  signature.jump_tables = static_cast<int>(reader.read_i64());
  signature.string_refs = static_cast<int>(reader.read_i64());
  signature.conditional_branches = static_cast<int>(reader.read_i64());
  return reader.ok;
}

void append_profile(std::vector<std::uint8_t>& out,
                    const DynamicProfile& profile) {
  append_u64(out, profile.per_env.size());
  for (const auto& features : profile.per_env) {
    append_u64(out, features.has_value() ? 1 : 0);
    if (features) append_bytes(out, &*features, sizeof(DynamicFeatures));
  }
  append_u64(out, profile.effect_hash.size());
  for (const auto& hash : profile.effect_hash) {
    append_u64(out, hash.has_value() ? 1 : 0);
    if (hash) append_u64(out, *hash);
  }
}

bool read_profile(Reader& reader, DynamicProfile& profile) {
  const std::uint64_t env_count = reader.read_u64();
  if (!reader.fits(env_count, 8)) return false;
  profile.per_env.resize(static_cast<std::size_t>(env_count));
  for (auto& features : profile.per_env) {
    if (reader.read_u64() != 0) {
      DynamicFeatures value;
      if (!reader.read(&value, sizeof(value))) return false;
      features = value;
    }
  }
  const std::uint64_t hash_count = reader.read_u64();
  if (!reader.fits(hash_count, 8)) return false;
  profile.effect_hash.resize(static_cast<std::size_t>(hash_count));
  for (auto& hash : profile.effect_hash)
    if (reader.read_u64() != 0) hash = reader.read_u64();
  return reader.ok;
}

}  // namespace

// --- library artifact ------------------------------------------------------

std::vector<std::uint8_t> serialize_library_artifact(
    const LibraryBinary& library) {
  std::vector<std::uint8_t> out;
  append_u64(out, kLibraryTag);
  append_u64(out, kLibraryPayloadVersion);
  const std::vector<std::uint8_t> record = serialize_library(library);
  append_u64(out, record.size());
  append_bytes(out, record.data(), record.size());
  return out;
}

std::optional<LibraryBinary> deserialize_library_artifact(
    const std::vector<std::uint8_t>& bytes) {
  Reader reader{bytes};
  if (reader.read_u64() != kLibraryTag ||
      reader.read_u64() != kLibraryPayloadVersion)
    return std::nullopt;
  // The PKLB record is the rest of the payload.
  const std::uint64_t record_size = reader.read_u64();
  if (record_size != reader.remaining()) return std::nullopt;
  LibraryBinary library;
  if (!read_library(reader, library) || reader.pos != bytes.size())
    return std::nullopt;
  return library;
}

// --- CveEntry --------------------------------------------------------------

std::vector<std::uint8_t> serialize_cve_entry(const CveEntry& entry) {
  std::vector<std::uint8_t> out;
  append_u64(out, kEntryTag);
  append_u64(out, kEntryPayloadVersion);
  append_string(out, entry.spec.cve_id);
  append_string(out, entry.spec.library);
  append_u64(out, static_cast<std::uint64_t>(entry.spec.kind));
  append_u64(out, entry.library_index);
  append_u64(out, entry.slot);
  append_u64(out, entry.target_uid);
  append_reference(out, entry.vulnerable_binary);
  append_reference(out, entry.patched_binary);
  append_features(out, entry.vulnerable_features);
  append_features(out, entry.patched_features);
  append_signature(out, entry.vulnerable_signature);
  append_signature(out, entry.patched_signature);
  append_u64(out, entry.environments.size());
  for (const CallEnv& env : entry.environments) {
    append_u64(out, env.args.size());
    for (const Value& arg : env.args) {
      append_u64(out, static_cast<std::uint64_t>(arg.type));
      append_i64(out, arg.i);
      append_double(out, arg.f);
      append_i64(out, arg.buffer);
      append_i64(out, arg.offset);
    }
    append_u64(out, env.buffers.size());
    for (const std::vector<std::uint8_t>& buffer : env.buffers) {
      append_u64(out, buffer.size());
      append_bytes(out, buffer.data(), buffer.size());
    }
  }
  append_profile(out, entry.vulnerable_profile);
  append_profile(out, entry.patched_profile);
  append_u64(out, entry.arch_refs.size());
  for (const auto& [arch, refs] : entry.arch_refs) {
    append_u64(out, static_cast<std::uint64_t>(arch));
    append_features(out, refs.vulnerable_features);
    append_features(out, refs.patched_features);
    append_signature(out, refs.vulnerable_signature);
    append_signature(out, refs.patched_signature);
    append_profile(out, refs.vulnerable_profile);
    append_profile(out, refs.patched_profile);
  }
  return out;
}

std::optional<CveEntry> deserialize_cve_entry(
    const std::vector<std::uint8_t>& bytes) {
  Reader reader{bytes};
  if (reader.read_u64() != kEntryTag ||
      reader.read_u64() != kEntryPayloadVersion)
    return std::nullopt;
  CveEntry entry;
  entry.spec.cve_id = reader.read_string();
  entry.spec.library = reader.read_string();
  entry.spec.kind = static_cast<PatchKind>(reader.read_u64());
  entry.library_index = static_cast<std::size_t>(reader.read_u64());
  entry.slot = static_cast<std::size_t>(reader.read_u64());
  entry.target_uid = reader.read_u64();
  if (!read_reference(reader, entry.vulnerable_binary)) return std::nullopt;
  if (!read_reference(reader, entry.patched_binary)) return std::nullopt;
  if (!read_features(reader, entry.vulnerable_features)) return std::nullopt;
  if (!read_features(reader, entry.patched_features)) return std::nullopt;
  if (!read_signature(reader, entry.vulnerable_signature))
    return std::nullopt;
  if (!read_signature(reader, entry.patched_signature)) return std::nullopt;
  const std::uint64_t env_count = reader.read_u64();
  if (!reader.fits(env_count, 16)) return std::nullopt;
  entry.environments.resize(static_cast<std::size_t>(env_count));
  for (CallEnv& env : entry.environments) {
    const std::uint64_t arg_count = reader.read_u64();
    if (!reader.fits(arg_count, 40)) return std::nullopt;
    env.args.resize(static_cast<std::size_t>(arg_count));
    for (Value& arg : env.args) {
      arg.type = static_cast<ValueType>(reader.read_u64());
      arg.i = reader.read_i64();
      arg.f = reader.read_double();
      arg.buffer = static_cast<int>(reader.read_i64());
      arg.offset = reader.read_i64();
    }
    const std::uint64_t buffer_count = reader.read_u64();
    if (!reader.fits(buffer_count, 8)) return std::nullopt;
    env.buffers.resize(static_cast<std::size_t>(buffer_count));
    for (std::vector<std::uint8_t>& buffer : env.buffers) {
      const std::uint64_t size = reader.read_u64();
      if (!reader.fits(size, 1)) return std::nullopt;
      buffer.resize(static_cast<std::size_t>(size));
      if (!reader.read(buffer.data(), buffer.size())) return std::nullopt;
    }
  }
  if (!read_profile(reader, entry.vulnerable_profile)) return std::nullopt;
  if (!read_profile(reader, entry.patched_profile)) return std::nullopt;
  const std::uint64_t arch_count = reader.read_u64();
  if (!reader.fits(arch_count, 8)) return std::nullopt;
  for (std::uint64_t i = 0; i < arch_count; ++i) {
    const Arch arch = static_cast<Arch>(reader.read_u64());
    ArchRefs refs;
    if (!read_features(reader, refs.vulnerable_features))
      return std::nullopt;
    if (!read_features(reader, refs.patched_features)) return std::nullopt;
    if (!read_signature(reader, refs.vulnerable_signature))
      return std::nullopt;
    if (!read_signature(reader, refs.patched_signature)) return std::nullopt;
    if (!read_profile(reader, refs.vulnerable_profile)) return std::nullopt;
    if (!read_profile(reader, refs.patched_profile)) return std::nullopt;
    entry.arch_refs.emplace(arch, std::move(refs));
  }
  if (!reader.ok || reader.pos != bytes.size()) return std::nullopt;
  return entry;
}

}  // namespace patchecko::corpus
