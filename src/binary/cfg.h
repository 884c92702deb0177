// Control-flow-graph recovery (the disassembler stage).
//
// The paper builds on IDA Pro for function boundaries and CFGs; here the
// container gives us boundaries and this module reconstructs basic blocks
// and edges directly from the instruction stream, including indirect-jump
// (switch) successors via the function's jump tables.
#pragma once

#include <cstddef>
#include <vector>

#include "binary/binary.h"
#include "graph/digraph.h"

namespace patchecko {

/// Basic-block category flags, mirroring the fcb_* rows of Table I.
enum class BlockKind : std::uint8_t {
  normal = 0,  ///< falls through or ends in a direct jump
  indjump,     ///< ends with an indirect jump (switch dispatch)
  ret,         ///< ends with a return
  cndret,      ///< conditional branch whose taken target is a return block
  noret,       ///< ends in a call that never returns (unused by our ISA)
  enoret,      ///< external no-return block (block performing a syscall)
  external,    ///< external normal block (block performing a library call)
  error,       ///< execution passes beyond the function end
};

struct BasicBlock {
  std::size_t first = 0;  ///< index of first instruction
  std::size_t last = 0;   ///< index of last instruction (inclusive)
  BlockKind kind = BlockKind::normal;

  std::size_t instruction_count() const { return last - first + 1; }
};

struct Cfg {
  std::vector<BasicBlock> blocks;
  Digraph graph;                       ///< one node per block
  std::vector<std::size_t> block_of;   ///< instruction index -> block index

  std::size_t block_count() const { return blocks.size(); }
};

/// Recovers the CFG of a compiled function into `out`, reusing its storage:
/// rebuilding into a Cfg that already holds enough capacity (for example,
/// one that held the same function before) makes no heap allocation.
/// Handles empty functions (no blocks) gracefully.
void build_cfg(const FunctionBinary& function, Cfg& out);

/// Recovers the CFG of a compiled function into fresh storage.
Cfg build_cfg(const FunctionBinary& function);

}  // namespace patchecko
