// Binary containers: compiled functions, libraries, and symbol handling.
//
// Firmware in the paper is distributed as stripped COTS binaries; the only
// ground truth PATCHECKO may use at *analysis* time is the machine code
// itself. FunctionBinary therefore carries a `source_uid` that identifies the
// originating source function for *evaluation bookkeeping only* (computing
// TP/FP columns of Tables VI/VII) — no analysis stage reads it. This module
// also owns the one byte layout of compiled code ("PKLB", below).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "blob/blob_store.h"
#include "isa/isa.h"
#include "source/ast.h"

namespace patchecko {

/// One compiled function: the unit PATCHECKO compares.
struct FunctionBinary {
  std::string name;  ///< symbol; cleared by LibraryBinary::strip()
  Arch arch = Arch::amd64;
  OptLevel opt = OptLevel::O0;
  std::uint32_t id = 0;  ///< index within its library (call targets)

  std::vector<Instruction> code;
  std::vector<std::vector<std::int32_t>> jump_tables;
  std::int64_t frame_size = 0;  ///< bytes of spill slots / locals

  /// Export-signature metadata: the paper drives candidate functions through
  /// dlopen/dlsym with LibFuzzer-generated inputs, which requires knowing the
  /// exported prototype. We keep the same information.
  std::vector<ValueType> param_types;

  /// Evaluation-only ground-truth label (hash of library seed + source
  /// function index). Never consulted by any analysis stage.
  std::uint64_t source_uid = 0;

  /// Total encoded byte size under this function's architecture.
  std::int64_t byte_size() const;
};

/// A compiled shared library: functions + string pool + symbol visibility.
struct LibraryBinary {
  std::string name;
  Arch arch = Arch::amd64;
  OptLevel opt = OptLevel::O0;
  bool stripped = false;
  std::vector<FunctionBinary> functions;
  std::vector<std::string> strings;

  /// Removes all symbol names (the COTS condition the paper targets).
  void strip();

  std::size_t function_count() const { return functions.size(); }
};

// --- the one byte layout of compiled code ("PKLB") -------------------------
// Firmware images and prebuilt-corpus payloads encode compiled code only
// through these functions, on the blob codec. Strings and counts are
// u32-prefixed; an instruction is 16 bytes (op, dst, src1, src2, i64 imm,
// i32 target); a function record has no arch/opt (its library holds them).
// Readers check each count against the bytes left before sizing anything
// and latch failure into the reader: hostile input reads as false.

void append_function(blob::Bytes& out, const FunctionBinary& fn);
/// Leaves fn.arch and fn.opt as they are.
bool read_function(blob::Reader& reader, FunctionBinary& fn);
void append_library(blob::Bytes& out, const LibraryBinary& library);
bool read_library(blob::Reader& reader, LibraryBinary& library);

/// One standalone PKLB buffer; nullopt on malformed or trailing bytes.
std::vector<std::uint8_t> serialize_library(const LibraryBinary& library);
std::optional<LibraryBinary> deserialize_library(
    const std::vector<std::uint8_t>& bytes);

/// A library's content key: one Digest::absorb of its PKLB record, as
/// load_firmware takes it from the bytes it decodes. Streams the record a
/// function at a time through one reused buffer.
Digest digest_library(const LibraryBinary& library);

}  // namespace patchecko
