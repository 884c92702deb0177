// Public compiler interface: MiniC -> FunctionBinary / LibraryBinary.
//
// Reproduces the paper's build matrix: every (architecture, optimization
// level) pair yields a distinct binary from identical source. Differences
// come from register pressure (spills), O0 keeping locals in memory,
// constant folding / DCE / copy propagation at O1+, addressing-mode fusion
// and branch threading at O2+, loop unrolling at O3/Ofast, size-oriented
// selection at Oz, and deterministic instruction scheduling at Ofast.
#pragma once

#include <cstdint>

#include "binary/binary.h"
#include "source/ast.h"

namespace patchecko {

/// Code-generation version stamp, part of every prebuilt-corpus cache key
/// (src/corpus). Bump whenever a change to instruction selection, register
/// allocation or any optimization pass can alter emitted code for an
/// unchanged source: stale store entries then miss and rebuild instead of
/// silently serving binaries the current compiler would no longer produce.
inline constexpr std::uint64_t kCompilerVersion = 1;

/// Compiles `function` as slot `function_index` of its library. The code
/// depends only on the function itself and (arch, opt); the index names the
/// binary (`id`) and seeds its `source_uid` as `uid_base` + index, so
/// evaluation can identify same-source variants across the build matrix.
FunctionBinary compile_function(const SourceFunction& function,
                                std::size_t function_index, Arch arch,
                                OptLevel opt, std::uint64_t uid_base = 0);

/// Compiles function `function_index` of `library`, which must be valid.
FunctionBinary compile_function(const SourceLibrary& library,
                                std::size_t function_index, Arch arch,
                                OptLevel opt, std::uint64_t uid_base = 0);

/// Compiles a whole library for one (arch, opt) pair. Functions compile in
/// parallel on the shared pool; each lands in its own index slot, so the
/// output is byte-identical to a serial loop of compile_function.
LibraryBinary compile_library(const SourceLibrary& library, Arch arch,
                              OptLevel opt, std::uint64_t uid_base = 0);

}  // namespace patchecko
