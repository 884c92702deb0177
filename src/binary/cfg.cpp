#include "binary/cfg.h"

namespace patchecko {

void build_cfg(const FunctionBinary& function, Cfg& cfg) {
  const auto& code = function.code;
  const std::size_t n = code.size();
  cfg.blocks.clear();
  if (n == 0) {
    cfg.block_of.clear();
    cfg.graph.reset(0);
    return;
  }

  // --- Leaders: entry, branch targets, jump-table entries, fallthroughs of
  // control transfers. block_of doubles as the leader marker array (nonzero
  // = leader) until the block pass below overwrites it; the entry is always
  // a leader and needs no mark.
  std::vector<std::size_t>& leader = cfg.block_of;
  leader.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Instruction& inst = code[i];
    if (is_conditional_branch(inst.op) || inst.op == Opcode::jmp) {
      if (inst.target >= 0 && static_cast<std::size_t>(inst.target) < n)
        leader[static_cast<std::size_t>(inst.target)] = 1;
      if (i + 1 < n) leader[i + 1] = 1;
    } else if (inst.op == Opcode::jmpi) {
      const auto table_id = static_cast<std::size_t>(inst.imm);
      if (table_id < function.jump_tables.size())
        for (std::int32_t entry : function.jump_tables[table_id])
          if (entry >= 0 && static_cast<std::size_t>(entry) < n)
            leader[static_cast<std::size_t>(entry)] = 1;
      if (i + 1 < n) leader[i + 1] = 1;
    } else if (inst.op == Opcode::ret) {
      if (i + 1 < n) leader[i + 1] = 1;
    }
  }

  // --- Blocks: consecutive leader-to-leader ranges. Position i's marker is
  // read before block_of[i] is written, so one pass does both.
  cfg.blocks.push_back(BasicBlock{});
  cfg.block_of[0] = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (leader[i] != 0) {
      cfg.blocks.back().last = i - 1;
      BasicBlock block;
      block.first = i;
      cfg.blocks.push_back(block);
    }
    cfg.block_of[i] = cfg.blocks.size() - 1;
  }
  cfg.blocks.back().last = n - 1;
  cfg.graph.reset(cfg.blocks.size());

  // --- Edges + block kinds.
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    BasicBlock& block = cfg.blocks[b];
    const Instruction& last = code[block.last];
    const bool has_fallthrough = block.last + 1 < n;

    if (last.op == Opcode::ret) {
      block.kind = BlockKind::ret;
    } else if (last.op == Opcode::jmpi) {
      block.kind = BlockKind::indjump;
      const auto table_id = static_cast<std::size_t>(last.imm);
      if (table_id < function.jump_tables.size())
        for (std::int32_t entry : function.jump_tables[table_id])
          if (entry >= 0 && static_cast<std::size_t>(entry) < n)
            cfg.graph.add_edge(b, cfg.block_of[static_cast<std::size_t>(
                                      entry)]);
    } else if (last.op == Opcode::jmp) {
      if (last.target >= 0 && static_cast<std::size_t>(last.target) < n)
        cfg.graph.add_edge(b, cfg.block_of[static_cast<std::size_t>(
                                  last.target)]);
    } else if (is_conditional_branch(last.op)) {
      if (last.target >= 0 && static_cast<std::size_t>(last.target) < n)
        cfg.graph.add_edge(b, cfg.block_of[static_cast<std::size_t>(
                                  last.target)]);
      if (has_fallthrough)
        cfg.graph.add_edge(b, cfg.block_of[block.last + 1]);
    } else {
      // Plain fallthrough; a block running past the function end is the
      // paper's fcb_error category.
      if (has_fallthrough)
        cfg.graph.add_edge(b, cfg.block_of[block.last + 1]);
      else
        block.kind = BlockKind::error;
    }
  }

  // --- Refinement passes for the remaining Table I block categories.
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    BasicBlock& block = cfg.blocks[b];
    if (block.kind != BlockKind::normal) continue;
    const Instruction& last = code[block.last];
    if (is_conditional_branch(last.op) && last.target >= 0 &&
        static_cast<std::size_t>(last.target) < n) {
      const BasicBlock& taken =
          cfg.blocks[cfg.block_of[static_cast<std::size_t>(last.target)]];
      if (taken.kind == BlockKind::ret) {
        block.kind = BlockKind::cndret;
        continue;
      }
    }
    bool has_libcall = false;
    bool has_syscall = false;
    for (std::size_t i = block.first; i <= block.last; ++i) {
      if (code[i].op == Opcode::libcall) has_libcall = true;
      if (code[i].op == Opcode::syscall) has_syscall = true;
    }
    if (has_syscall)
      block.kind = BlockKind::enoret;
    else if (has_libcall)
      block.kind = BlockKind::external;
  }
}

Cfg build_cfg(const FunctionBinary& function) {
  Cfg cfg;
  build_cfg(function, cfg);
  return cfg;
}

}  // namespace patchecko
