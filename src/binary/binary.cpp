#include "binary/binary.h"

#include <cstring>

namespace patchecko {

std::int64_t FunctionBinary::byte_size() const {
  std::int64_t total = 0;
  for (const Instruction& inst : code) total += encoded_size(inst, arch);
  return total;
}

void LibraryBinary::strip() {
  for (FunctionBinary& fn : functions) fn.name.clear();
  stripped = true;
}

using namespace blob;

namespace {

constexpr std::uint32_t kLibraryMagic = 0x504b4c42;  // "PKLB"

// Each count is checked against the smallest encoding of what it counts:
// a u32-prefixed string or jump table, a function, an instruction.
constexpr std::size_t kPrefixBytes = 4;
constexpr std::size_t kMinFunctionBytes = 36;
constexpr std::size_t kInstructionBytes = 16;

static_assert(sizeof(ValueType) == 1 && sizeof(std::int32_t) == 4,
              "param types and jump-table entries are copied as raw bytes");

/// A u32 count, or 0 (with the reader failed) when `count * element_bytes`
/// exceeds what is left.
std::uint32_t read_count(Reader& reader, std::size_t element_bytes) {
  const std::uint32_t count = reader.read_u32();
  return reader.fits(count, element_bytes) ? count : 0;
}

void append_name(Bytes& out, const std::string& text) {
  append_u32(out, static_cast<std::uint32_t>(text.size()));
  append_bytes(out, text.data(), text.size());
}

std::string read_name(Reader& reader) {
  std::string text(read_count(reader, 1), '\0');
  reader.read(text.data(), text.size());
  return text;
}

/// A PKLB record up to its functions.
void append_library_header(Bytes& out, const LibraryBinary& library) {
  append_u32(out, kLibraryMagic);
  append_name(out, library.name);
  append_u8(out, static_cast<std::uint8_t>(library.arch));
  append_u8(out, static_cast<std::uint8_t>(library.opt));
  append_u8(out, library.stripped ? 1 : 0);
  append_u32(out, static_cast<std::uint32_t>(library.strings.size()));
  for (const std::string& text : library.strings) append_name(out, text);
  append_u32(out, static_cast<std::uint32_t>(library.functions.size()));
}

}  // namespace

void append_function(Bytes& out, const FunctionBinary& fn) {
  append_name(out, fn.name);
  append_u32(out, fn.id);
  append_i64(out, fn.frame_size);
  append_u64(out, fn.source_uid);
  append_u32(out, static_cast<std::uint32_t>(fn.param_types.size()));
  append_bytes(out, fn.param_types.data(), fn.param_types.size());
  append_u32(out, static_cast<std::uint32_t>(fn.jump_tables.size()));
  for (const std::vector<std::int32_t>& table : fn.jump_tables) {
    append_u32(out, static_cast<std::uint32_t>(table.size()));
    append_bytes(out, table.data(), table.size() * sizeof(table[0]));
  }
  append_u32(out, static_cast<std::uint32_t>(fn.code.size()));
  // Sized once: a per-instruction insert costs more than its 16 bytes.
  const std::size_t start = out.size();
  out.resize(start + fn.code.size() * kInstructionBytes);
  std::uint8_t* at = out.data() + start;
  for (const Instruction& inst : fn.code) {
    std::uint8_t record[kInstructionBytes] = {
        static_cast<std::uint8_t>(inst.op), inst.dst, inst.src1, inst.src2};
    std::memcpy(record + 4, &inst.imm, sizeof(inst.imm));
    std::memcpy(record + 12, &inst.target, sizeof(inst.target));
    std::memcpy(at, record, sizeof(record));
    at += sizeof(record);
  }
}

bool read_function(Reader& reader, FunctionBinary& fn) {
  fn.name = read_name(reader);
  fn.id = reader.read_u32();
  fn.frame_size = reader.read_i64();
  fn.source_uid = reader.read_u64();
  fn.param_types.resize(read_count(reader, 1));
  reader.read(fn.param_types.data(), fn.param_types.size());
  fn.jump_tables.resize(read_count(reader, kPrefixBytes));
  for (std::vector<std::int32_t>& table : fn.jump_tables) {
    table.resize(read_count(reader, sizeof(table[0])));
    reader.read(table.data(), table.size() * sizeof(table[0]));
  }
  fn.code.resize(read_count(reader, kInstructionBytes));
  for (Instruction& inst : fn.code) {
    std::uint8_t record[kInstructionBytes];
    if (!reader.read(record, sizeof(record))) return false;
    inst.op = static_cast<Opcode>(record[0]);
    inst.dst = record[1];
    inst.src1 = record[2];
    inst.src2 = record[3];
    std::memcpy(&inst.imm, record + 4, sizeof(inst.imm));
    std::memcpy(&inst.target, record + 12, sizeof(inst.target));
  }
  return reader.ok;
}

void append_library(Bytes& out, const LibraryBinary& library) {
  append_library_header(out, library);
  for (const FunctionBinary& fn : library.functions) append_function(out, fn);
}

bool read_library(Reader& reader, LibraryBinary& library) {
  if (reader.read_u32() != kLibraryMagic) reader.ok = false;
  library.name = read_name(reader);
  library.arch = static_cast<Arch>(reader.read_u8());
  library.opt = static_cast<OptLevel>(reader.read_u8());
  library.stripped = reader.read_u8() != 0;
  library.strings.resize(read_count(reader, kPrefixBytes));
  for (std::string& text : library.strings) text = read_name(reader);
  library.functions.resize(read_count(reader, kMinFunctionBytes));
  for (FunctionBinary& fn : library.functions) {
    fn.arch = library.arch;
    fn.opt = library.opt;
    if (!read_function(reader, fn)) return false;
  }
  return reader.ok;
}

std::vector<std::uint8_t> serialize_library(const LibraryBinary& library) {
  Bytes out;
  append_library(out, library);
  return out;
}

std::optional<LibraryBinary> deserialize_library(
    const std::vector<std::uint8_t>& bytes) {
  Reader reader{bytes};
  LibraryBinary library;
  if (!read_library(reader, library) || reader.remaining() != 0)
    return std::nullopt;
  return library;
}

Digest digest_library(const LibraryBinary& library) {
  // Whole words are absorbed after each function and the tail carries over:
  // a run of whole-word absorbs digests like one absorb of the record.
  Digest digest;
  Bytes buffer;
  append_library_header(buffer, library);
  for (const FunctionBinary& fn : library.functions) {
    append_function(buffer, fn);
    const std::size_t whole = buffer.size() & ~std::size_t{7};
    digest.absorb(buffer.data(), whole);
    buffer.erase(buffer.begin(),
                 buffer.begin() + static_cast<std::ptrdiff_t>(whole));
  }
  digest.absorb(buffer.data(), buffer.size());
  return digest;
}

}  // namespace patchecko
