// Tests for the binary container (serialization round-trip, stripping) and
// the CFG recovery pass (block partition, edges, Table I block kinds).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "binary/binary.h"
#include "binary/cfg.h"
#include "compiler/compiler.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "source/generator.h"

namespace patchecko {
namespace {

LibraryBinary compiled_fixture() {
  const SourceLibrary src = generate_library("bin", 0xB1B, 24);
  return compile_library(src, Arch::arm32, OptLevel::O2, 100);
}

TEST(Binary, SerializeRoundTrip) {
  const LibraryBinary original = compiled_fixture();
  const std::vector<std::uint8_t> bytes = serialize_library(original);
  const std::optional<LibraryBinary> decoded = deserialize_library(bytes);
  ASSERT_TRUE(decoded.has_value());
  const LibraryBinary& restored = *decoded;

  EXPECT_EQ(restored.name, original.name);
  EXPECT_EQ(restored.arch, original.arch);
  EXPECT_EQ(restored.opt, original.opt);
  EXPECT_EQ(restored.strings, original.strings);
  ASSERT_EQ(restored.functions.size(), original.functions.size());
  for (std::size_t f = 0; f < original.functions.size(); ++f) {
    const FunctionBinary& a = original.functions[f];
    const FunctionBinary& b = restored.functions[f];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.frame_size, b.frame_size);
    EXPECT_EQ(a.source_uid, b.source_uid);
    EXPECT_EQ(a.param_types, b.param_types);
    EXPECT_EQ(a.jump_tables, b.jump_tables);
    ASSERT_EQ(a.code.size(), b.code.size());
    for (std::size_t i = 0; i < a.code.size(); ++i)
      EXPECT_EQ(a.code[i], b.code[i]);
  }
}

TEST(Binary, DeserializeRejectsGarbage) {
  std::vector<std::uint8_t> garbage{1, 2, 3, 4, 5};
  EXPECT_FALSE(deserialize_library(garbage).has_value());
}

TEST(Binary, DeserializeRejectsTruncation) {
  const LibraryBinary original = compiled_fixture();
  std::vector<std::uint8_t> bytes = serialize_library(original);
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(deserialize_library(bytes).has_value());
}

/// The PKLB layout spelled out byte by byte in explicit little-endian: the
/// reference the blob-codec writer must match, so every image stays readable.
std::vector<std::uint8_t> reference_layout(const LibraryBinary& library) {
  std::vector<std::uint8_t> out;
  const auto le = [&](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) out.push_back((value >> (8 * i)) & 0xff);
  };
  const auto str = [&](const std::string& text) {
    le(text.size(), 4);
    out.insert(out.end(), text.begin(), text.end());
  };
  le(0x504b4c42, 4);
  str(library.name);
  le(static_cast<std::uint8_t>(library.arch), 1);
  le(static_cast<std::uint8_t>(library.opt), 1);
  le(library.stripped ? 1 : 0, 1);
  le(library.strings.size(), 4);
  for (const std::string& text : library.strings) str(text);
  le(library.functions.size(), 4);
  for (const FunctionBinary& fn : library.functions) {
    str(fn.name);
    le(fn.id, 4);
    le(static_cast<std::uint64_t>(fn.frame_size), 8);
    le(fn.source_uid, 8);
    le(fn.param_types.size(), 4);
    for (const ValueType type : fn.param_types)
      le(static_cast<std::uint8_t>(type), 1);
    le(fn.jump_tables.size(), 4);
    for (const auto& table : fn.jump_tables) {
      le(table.size(), 4);
      for (const std::int32_t entry : table)
        le(static_cast<std::uint32_t>(entry), 4);
    }
    le(fn.code.size(), 4);
    for (const Instruction& inst : fn.code) {
      le(static_cast<std::uint8_t>(inst.op), 1);
      le(inst.dst, 1);
      le(inst.src1, 1);
      le(inst.src2, 1);
      le(static_cast<std::uint64_t>(inst.imm), 8);
      le(static_cast<std::uint32_t>(inst.target), 4);
    }
  }
  return out;
}

TEST(Binary, SerializeKeepsThePklbLayout) {
  LibraryBinary library = compiled_fixture();
  library.strings = {"", "fmt %d", std::string(300, 'x')};
  library.functions[0].jump_tables = {{}, {-1, 7, 1 << 30}};
  library.functions[0].frame_size = -24;
  EXPECT_EQ(serialize_library(library), reference_layout(library));
}

// Hand-built PKLB buffers whose counts claim more than the buffer holds.
blob::Bytes library_header(std::uint32_t string_count) {
  blob::Bytes out;
  blob::append_u32(out, 0x504b4c42);  // "PKLB"
  blob::append_u32(out, 0);           // empty name
  blob::append_u8(out, static_cast<std::uint8_t>(Arch::arm32));
  blob::append_u8(out, static_cast<std::uint8_t>(OptLevel::O2));
  blob::append_u8(out, 1);
  blob::append_u32(out, string_count);
  return out;
}

/// One function, valid up to and including its (empty) param list.
blob::Bytes function_prefix() {
  blob::Bytes out = library_header(0);
  blob::append_u32(out, 1);  // one function
  blob::append_u32(out, 0);  // empty name
  blob::append_u32(out, 0);  // id
  blob::append_i64(out, 0);  // frame_size
  blob::append_u64(out, 0);  // source_uid
  blob::append_u32(out, 0);  // no params
  return out;
}

blob::Bytes with(blob::Bytes out, std::initializer_list<std::uint32_t> words,
                 std::size_t padding = 32) {
  for (const std::uint32_t word : words) blob::append_u32(out, word);
  out.resize(out.size() + padding);
  return out;
}

TEST(Binary, DeserializeRejectsHostileInputWithoutAllocatingForIt) {
  blob::Bytes trailing = serialize_library(compiled_fixture());
  trailing.push_back(0);
  const struct {
    const char* name;
    blob::Bytes bytes;
  } cases[] = {
      {"jump-table entry count 2^30", with(function_prefix(), {1, 1u << 30})},
      {"jump-table count 2^30", with(function_prefix(), {1u << 30})},
      {"code count 2^32-1", with(function_prefix(), {0, 0xffffffffu})},
      {"function count 2^32-1", with(library_header(0), {0xffffffffu})},
      {"string count past EOF", with(library_header(1000), {}, 0)},
      {"string length past EOF", with(library_header(1), {1u << 31})},
      {"function name length past EOF", with(library_header(0), {1, 1u << 20})},
      {"one trailing byte", trailing},
  };
  const bool counting = obs::allocation_counting_available();
  const obs::EnabledScope on(true);
  for (const auto& [name, bytes] : cases) {
    const std::uint64_t before = obs::thread_allocation_bytes();
    EXPECT_FALSE(deserialize_library(bytes).has_value()) << name;
    if (counting) {
      EXPECT_LE(obs::thread_allocation_bytes() - before,
                std::max<std::uint64_t>(16 * bytes.size(), 4096))
          << name;
    }
  }
}

TEST(Binary, StripRemovesEveryName) {
  LibraryBinary lib = compiled_fixture();
  lib.strip();
  EXPECT_TRUE(lib.stripped);
  for (const FunctionBinary& fn : lib.functions) EXPECT_TRUE(fn.name.empty());
}

TEST(Binary, StripPreservesCodeAndUids) {
  LibraryBinary lib = compiled_fixture();
  const auto code_before = lib.functions[0].code;
  const auto uid = lib.functions[0].source_uid;
  lib.strip();
  EXPECT_EQ(lib.functions[0].code.size(), code_before.size());
  EXPECT_EQ(lib.functions[0].source_uid, uid);
}

TEST(Binary, ByteSizePositiveAndArchDependent) {
  const SourceLibrary src = generate_library("bs", 0xE, 6);
  const FunctionBinary arm =
      compile_function(src, 0, Arch::arm32, OptLevel::O1);
  EXPECT_GT(arm.byte_size(), 0);
}

// --- CFG recovery --------------------------------------------------------------

TEST(Cfg, EmptyFunction) {
  FunctionBinary fn;
  const Cfg cfg = build_cfg(fn);
  EXPECT_EQ(cfg.block_count(), 0u);
}

TEST(Cfg, StraightLineSingleBlock) {
  FunctionBinary fn;
  Instruction ldi;
  ldi.op = Opcode::ldi;
  ldi.dst = 0;
  ldi.imm = 1;
  Instruction ret;
  ret.op = Opcode::ret;
  fn.code = {ldi, ldi, ret};
  const Cfg cfg = build_cfg(fn);
  ASSERT_EQ(cfg.block_count(), 1u);
  EXPECT_EQ(cfg.blocks[0].kind, BlockKind::ret);
  EXPECT_EQ(cfg.blocks[0].instruction_count(), 3u);
}

TEST(Cfg, ConditionalBranchMakesDiamondEdges) {
  // 0: cmp; 1: beq ->3; 2: ret; 3: ret
  FunctionBinary fn;
  Instruction cmp;
  cmp.op = Opcode::cmp;
  cmp.dst = 0;
  cmp.src1 = 0;
  cmp.src2 = 1;
  Instruction beq;
  beq.op = Opcode::beq;
  beq.src1 = 0;
  beq.target = 3;
  Instruction ret;
  ret.op = Opcode::ret;
  fn.code = {cmp, beq, ret, ret};
  const Cfg cfg = build_cfg(fn);
  ASSERT_EQ(cfg.block_count(), 3u);
  EXPECT_EQ(cfg.graph.edge_count(), 2u);  // taken + fallthrough
  EXPECT_EQ(cfg.blocks[0].kind, BlockKind::cndret);  // taken target returns
}

TEST(Cfg, BlockPartitionCoversAllInstructionsOnce) {
  const LibraryBinary lib = compiled_fixture();
  for (const FunctionBinary& fn : lib.functions) {
    const Cfg cfg = build_cfg(fn);
    ASSERT_EQ(cfg.block_of.size(), fn.code.size());
    std::vector<int> covered(fn.code.size(), 0);
    for (std::size_t b = 0; b < cfg.block_count(); ++b) {
      const BasicBlock& block = cfg.blocks[b];
      ASSERT_LE(block.first, block.last);
      ASSERT_LT(block.last, fn.code.size());
      for (std::size_t i = block.first; i <= block.last; ++i) {
        ++covered[i];
        EXPECT_EQ(cfg.block_of[i], b) << fn.name << " instr " << i;
      }
    }
    for (std::size_t i = 0; i < covered.size(); ++i)
      EXPECT_EQ(covered[i], 1) << fn.name << " instr " << i;
  }
}

TEST(Cfg, EntryBlockStartsAtZero) {
  const LibraryBinary lib = compiled_fixture();
  for (const FunctionBinary& fn : lib.functions) {
    const Cfg cfg = build_cfg(fn);
    ASSERT_GT(cfg.block_count(), 0u);
    EXPECT_EQ(cfg.blocks[0].first, 0u);
  }
}

TEST(Cfg, EdgesOnlyBetweenValidBlocks) {
  const LibraryBinary lib = compiled_fixture();
  for (const FunctionBinary& fn : lib.functions) {
    const Cfg cfg = build_cfg(fn);
    for (std::size_t b = 0; b < cfg.block_count(); ++b)
      for (std::size_t succ : cfg.graph.successors(b))
        EXPECT_LT(succ, cfg.block_count());
  }
}

TEST(Cfg, RetBlocksHaveNoSuccessors) {
  const LibraryBinary lib = compiled_fixture();
  for (const FunctionBinary& fn : lib.functions) {
    const Cfg cfg = build_cfg(fn);
    for (std::size_t b = 0; b < cfg.block_count(); ++b) {
      if (cfg.blocks[b].kind == BlockKind::ret) {
        EXPECT_TRUE(cfg.graph.successors(b).empty());
      }
    }
  }
}

TEST(Cfg, JumpTableEdgesPresent) {
  // Find a function with a switch (dispatcher archetype) and check the
  // indirect-jump block fans out to every table entry's block.
  const SourceLibrary src = generate_library("sw", 0x51, 40);
  const LibraryBinary lib = compile_library(src, Arch::amd64, OptLevel::O1);
  bool found_dispatch = false;
  for (const FunctionBinary& fn : lib.functions) {
    if (fn.jump_tables.empty()) continue;
    found_dispatch = true;
    const Cfg cfg = build_cfg(fn);
    for (std::size_t i = 0; i < fn.code.size(); ++i) {
      if (fn.code[i].op != Opcode::jmpi) continue;
      const std::size_t block = cfg.block_of[i];
      EXPECT_EQ(cfg.blocks[block].kind, BlockKind::indjump);
      const auto& table =
          fn.jump_tables[static_cast<std::size_t>(fn.code[i].imm)];
      EXPECT_EQ(cfg.graph.successors(block).size() <= table.size(), true);
      EXPECT_GE(cfg.graph.successors(block).size(), 1u);
    }
  }
  EXPECT_TRUE(found_dispatch);
}

TEST(Cfg, MostBlocksReachableFromEntry) {
  const LibraryBinary lib = compiled_fixture();
  for (const FunctionBinary& fn : lib.functions) {
    const Cfg cfg = build_cfg(fn);
    const auto reach = cfg.graph.reachable_from(0);
    std::size_t reachable = 0;
    for (bool r : reach)
      if (r) ++reachable;
    // The epilogue safety `ldi/ret` may be unreachable; everything else
    // should hang off the entry.
    EXPECT_GE(reachable + 2, cfg.block_count()) << fn.name;
  }
}

// Field-by-field equality of two recovered CFGs, successor order included.
void expect_same_cfg(const Cfg& actual, const Cfg& expected,
                     const std::string& label) {
  ASSERT_EQ(actual.block_count(), expected.block_count()) << label;
  for (std::size_t b = 0; b < expected.block_count(); ++b) {
    EXPECT_EQ(actual.blocks[b].first, expected.blocks[b].first) << label;
    EXPECT_EQ(actual.blocks[b].last, expected.blocks[b].last) << label;
    EXPECT_EQ(actual.blocks[b].kind, expected.blocks[b].kind) << label;
  }
  EXPECT_EQ(actual.block_of, expected.block_of) << label;
  ASSERT_EQ(actual.graph.node_count(), expected.graph.node_count()) << label;
  EXPECT_EQ(actual.graph.edge_count(), expected.graph.edge_count()) << label;
  for (std::size_t b = 0; b < expected.graph.node_count(); ++b)
    EXPECT_EQ(actual.graph.successors(b), expected.graph.successors(b))
        << label << " block " << b;
}

TEST(Cfg, ReusedCfgMatchesFresh) {
  const SourceLibrary src = generate_library("reuse", 0x5E5E, 40);
  const LibraryBinary lib = compile_library(src, Arch::amd64, OptLevel::O0);
  std::vector<const FunctionBinary*> by_size;
  for (const FunctionBinary& fn : lib.functions) by_size.push_back(&fn);
  std::sort(by_size.begin(), by_size.end(),
            [](const FunctionBinary* a, const FunctionBinary* b) {
              return a->code.size() < b->code.size();
            });
  const FunctionBinary empty;

  // Large, then small (leaving stale nodes and markers behind), then large
  // again, then empty, then every function in library order.
  std::vector<const FunctionBinary*> sequence = {
      by_size.back(), by_size.front(), by_size[by_size.size() - 2], &empty,
      by_size.back()};
  for (const FunctionBinary& fn : lib.functions) sequence.push_back(&fn);

  Cfg reused;
  for (std::size_t k = 0; k < sequence.size(); ++k) {
    build_cfg(*sequence[k], reused);
    expect_same_cfg(reused, build_cfg(*sequence[k]),
                    "step " + std::to_string(k));
  }
}

}  // namespace
}  // namespace patchecko
