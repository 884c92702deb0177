// The dynamic-analysis execution engine.
//
// The paper instruments candidate functions on-device through GDB/gdbserver
// (Android) or debugserver (iOS) after exporting them as function-level
// executables via DLL injection + LIEF. Our Machine provides the same
// capability for the synthetic ISA: execute *one* function of a library,
// without loading anything else, on a caller-chosen execution environment,
// while tracing every instruction to produce the Table II dynamic features.
//
// Memory is a table of bounds-checked objects:
//   * lib   — the library string pool (read-only)
//   * anon  — the environment's byte buffers (the paper counts fuzzer-
//             provided inputs as anonymous mappings)
//   * heap  — malloc'd chunks
//   * stack — one contiguous region holding frames, spills and push/pop
// Any access outside an object traps, which matches the reference
// interpreter's per-buffer bounds exactly.
//
// The string pool is laid out once per Machine. Everything a run mutates
// (stack, buffers, heap, frames, per-site counters) lives in one image per
// thread that each run() resets instead of rebuilding; see DESIGN.md,
// "Stage-2 execution".
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "binary/binary.h"
#include "source/interp.h"  // CallEnv, ExecStatus
#include "vm/dynamic_features.h"

namespace patchecko {

struct MachineConfig {
  std::uint64_t step_limit = 1u << 20;
  std::int64_t stack_size = 1 << 16;
  int max_call_depth = 64;
};

struct RunResult {
  ExecStatus status = ExecStatus::ok;
  std::int64_t ret = 0;          ///< r0 on return (valid when status == ok)
  std::uint64_t steps = 0;
  DynamicFeatures features;
  /// Environment buffers after execution (writes persist), index-aligned
  /// with CallEnv::buffers. Used by the semantic-equivalence tests.
  std::vector<std::vector<std::uint8_t>> buffers_after;
};

/// The read-only string-pool objects of one library (defined in machine.cpp).
struct StringPool;

/// Executes functions of one library. Construction lays out the string pool;
/// each run() resets the calling thread's memory image for `env` and runs on
/// it, so run() is const and safe to call from many threads at once.
class Machine {
 public:
  explicit Machine(const LibraryBinary& library, MachineConfig config = {});

  /// Runs library.functions[function_index] on `env`. `env` is not modified;
  /// buffer mutations are returned in RunResult::buffers_after.
  RunResult run(std::size_t function_index, const CallEnv& env) const;

  const LibraryBinary& library() const { return *library_; }

 private:
  const LibraryBinary* library_;
  MachineConfig config_;
  std::shared_ptr<const StringPool> strings_;  ///< shared by copies
};

}  // namespace patchecko
