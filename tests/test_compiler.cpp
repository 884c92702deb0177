// Tests for the compiler: optimization-pass behaviour, per-architecture
// codegen properties, register discipline, and O-level shape differences.
#include <gtest/gtest.h>

#include <set>

#include "compiler/compiler.h"
#include "compiler/lower.h"
#include "compiler/passes.h"
#include "firmware/firmware.h"
#include "source/generator.h"

namespace patchecko {
namespace {

SourceLibrary tiny_library() {
  return generate_library("cc", 0xC0DE, 16);
}

// --- pass-level tests ---------------------------------------------------------

VCode lower_simple_sum() {
  // return (3 + 4) * 2;
  SourceFunction fn;
  fn.body.push_back(make_ret(make_bin(
      BinOp::mul, make_bin(BinOp::add, make_int(3), make_int(4)),
      make_int(2))));
  return lower_function(fn);
}

TEST(Passes, ConstantFoldCollapsesArithmetic) {
  VCode code = lower_simple_sum();
  pass_constant_fold(code);
  pass_dead_code(code);
  // After folding, a single ldi 14 should feed the return.
  bool found = false;
  for (const VInst& inst : code.insts)
    if (inst.op == Opcode::ldi && inst.imm == 14) found = true;
  EXPECT_TRUE(found);
  // No arithmetic remains.
  for (const VInst& inst : code.insts)
    EXPECT_FALSE(inst.op == Opcode::add || inst.op == Opcode::mul);
}

TEST(Passes, ConstantFoldNeverFoldsDivByZero) {
  SourceFunction fn;
  fn.body.push_back(
      make_ret(make_bin(BinOp::divi, make_int(1), make_int(0))));
  VCode code = lower_function(fn);
  pass_constant_fold(code);
  bool div_remains = false;
  for (const VInst& inst : code.insts)
    if (inst.op == Opcode::divi) div_remains = true;
  EXPECT_TRUE(div_remains);  // the trap must survive to runtime
}

TEST(Passes, DeadCodeRemovesUnusedPureOps) {
  SourceFunction fn;
  fn.local_types = {ValueType::i64};
  fn.body.push_back(make_assign(0, make_bin(BinOp::add, make_int(1),
                                            make_int(2))));  // dead
  fn.body.push_back(make_ret(make_int(7)));
  VCode code = lower_function(fn);
  const std::size_t before = code.insts.size();
  pass_constant_fold(code);
  pass_dead_code(code);
  EXPECT_LT(code.insts.size(), before);
}

TEST(Passes, DeadCodeKeepsTrappingLoads) {
  // A dead load must survive DCE: removing it would remove an OOB trap.
  SourceFunction fn;
  fn.param_types = {ValueType::ptr};
  fn.local_types = {ValueType::i64};
  fn.body.push_back(make_assign(
      0, make_load(make_param(0, ValueType::ptr), make_int(5), true)));
  fn.body.push_back(make_ret(make_int(0)));
  VCode code = lower_function(fn);
  pass_dead_code(code);
  bool load_remains = false;
  for (const VInst& inst : code.insts)
    if (inst.op == Opcode::loadb) load_remains = true;
  EXPECT_TRUE(load_remains);
}

TEST(Passes, BranchThreadingShortensJumpChains) {
  SourceFunction fn;
  fn.param_types = {ValueType::i64};
  std::vector<StmtPtr> then_body;
  then_body.push_back(make_ret(make_int(1)));
  fn.body.push_back(make_if(
      make_bin(BinOp::lt, make_param(0, ValueType::i64), make_int(5)),
      std::move(then_body)));
  fn.body.push_back(make_ret(make_int(2)));
  VCode code = lower_function(fn);
  const auto count_jumps = [&] {
    std::size_t jumps = 0;
    for (const VInst& inst : code.insts)
      if (inst.op == Opcode::jmp) ++jumps;
    return jumps;
  };
  const std::size_t before = count_jumps();
  pass_branch_thread(code);
  EXPECT_LE(count_jumps(), before);
}

TEST(Passes, UnrollExpandsConstantLoops) {
  SourceFunction fn;
  fn.local_types = {ValueType::i64, ValueType::i64};
  std::vector<StmtPtr> loop_body;
  loop_body.push_back(make_assign(
      1, make_bin(BinOp::add, make_local(1, ValueType::i64),
                  make_local(0, ValueType::i64))));
  fn.body.push_back(make_for(0, make_int(0), make_int(4),
                             std::move(loop_body)));
  fn.body.push_back(make_ret(make_local(1, ValueType::i64)));

  SourceFunction unrolled = fn;
  unroll_constant_loops(unrolled, 8);
  // No loop remains and the assign count quadrupled.
  bool loop_remains = false;
  for (const auto& stmt : unrolled.body)
    if (stmt->kind == Stmt::Kind::for_loop) loop_remains = true;
  EXPECT_FALSE(loop_remains);
  EXPECT_GT(unrolled.node_count(), fn.node_count());
}

TEST(Passes, UnrollSkipsLargeTripCounts) {
  SourceFunction fn;
  fn.local_types = {ValueType::i64};
  fn.body.push_back(make_for(0, make_int(0), make_int(100), {}));
  fn.body.push_back(make_ret(make_int(0)));
  unroll_constant_loops(fn, 8);
  bool loop_remains = false;
  for (const auto& stmt : fn.body)
    if (stmt->kind == Stmt::Kind::for_loop) loop_remains = true;
  EXPECT_TRUE(loop_remains);
}

// --- whole-compiler properties --------------------------------------------------

TEST(Compiler, O0SpillsLocalsToFrame) {
  const SourceLibrary lib = tiny_library();
  const FunctionBinary o0 =
      compile_function(lib, 0, Arch::amd64, OptLevel::O0);
  const FunctionBinary o2 =
      compile_function(lib, 0, Arch::amd64, OptLevel::O2);
  EXPECT_GT(o0.frame_size, 0);
  EXPECT_GT(o0.code.size(), o2.code.size());
}

TEST(Compiler, RegistersStayWithinArchBounds) {
  const SourceLibrary lib = tiny_library();
  for (Arch arch : all_arches) {
    const int regs = register_count(arch);
    for (std::size_t f = 0; f < lib.functions.size(); ++f) {
      const FunctionBinary fn =
          compile_function(lib, f, arch, OptLevel::O2);
      for (const Instruction& inst : fn.code) {
        for (std::uint8_t r : {inst.dst, inst.src1, inst.src2}) {
          if (r == reg::none || r == reg::sp || r == reg::fp) continue;
          EXPECT_LT(static_cast<int>(r), regs)
              << arch_name(arch) << " " << to_string(inst);
        }
      }
    }
  }
}

TEST(Compiler, BranchTargetsResolveInRange) {
  const SourceLibrary lib = tiny_library();
  for (OptLevel opt : all_opt_levels) {
    for (std::size_t f = 0; f < lib.functions.size(); ++f) {
      const FunctionBinary fn = compile_function(lib, f, Arch::arm64, opt);
      const auto n = static_cast<std::int32_t>(fn.code.size());
      for (const Instruction& inst : fn.code) {
        if (is_conditional_branch(inst.op) || inst.op == Opcode::jmp) {
          EXPECT_GE(inst.target, 0) << to_string(inst);
          EXPECT_LT(inst.target, n) << to_string(inst);
        }
      }
      for (const auto& table : fn.jump_tables)
        for (std::int32_t entry : table) {
          EXPECT_GE(entry, 0);
          EXPECT_LT(entry, n);
        }
    }
  }
}

TEST(Compiler, EveryFunctionEndsWithRet) {
  const SourceLibrary lib = tiny_library();
  for (Arch arch : all_arches)
    for (OptLevel opt : all_opt_levels)
      for (std::size_t f = 0; f < lib.functions.size(); ++f) {
        const FunctionBinary fn = compile_function(lib, f, arch, opt);
        ASSERT_FALSE(fn.code.empty());
        EXPECT_EQ(fn.code.back().op, Opcode::ret);
      }
}

TEST(Compiler, PrologueStartsWithFrame) {
  const SourceLibrary lib = tiny_library();
  const FunctionBinary fn =
      compile_function(lib, 3, Arch::x86, OptLevel::O1);
  ASSERT_FALSE(fn.code.empty());
  EXPECT_EQ(fn.code.front().op, Opcode::frame);
}

TEST(Compiler, OptLevelsProduceDistinctBinaries) {
  const SourceLibrary lib = tiny_library();
  std::set<std::string> shapes;
  for (OptLevel opt : all_opt_levels) {
    const FunctionBinary fn = compile_function(lib, 1, Arch::amd64, opt);
    std::string shape;
    for (const Instruction& inst : fn.code)
      shape += to_string(inst) + ";";
    shapes.insert(shape);
  }
  // At least O0 / O1-family / O3-family should differ.
  EXPECT_GE(shapes.size(), 3u);
}

TEST(Compiler, ArchesProduceDistinctBinaries) {
  const SourceLibrary lib = tiny_library();
  std::set<std::size_t> sizes;
  std::set<std::string> shapes;
  for (Arch arch : all_arches) {
    const FunctionBinary fn = compile_function(lib, 1, arch, OptLevel::O2);
    std::string shape;
    for (const Instruction& inst : fn.code) shape += to_string(inst) + ";";
    shapes.insert(shape);
  }
  EXPECT_GE(shapes.size(), 2u);
}

TEST(Compiler, X86UsesMoreInstructionsThanArm64) {
  // Two-operand fixups + fewer registers => more instructions on average.
  const SourceLibrary lib = generate_library("arch", 0xF00D, 40);
  std::size_t x86_total = 0, arm64_total = 0;
  for (std::size_t f = 0; f < lib.functions.size(); ++f) {
    x86_total +=
        compile_function(lib, f, Arch::x86, OptLevel::O2).code.size();
    arm64_total +=
        compile_function(lib, f, Arch::arm64, OptLevel::O2).code.size();
  }
  EXPECT_GT(x86_total, arm64_total);
}

TEST(Compiler, UidAssignment) {
  const SourceLibrary lib = tiny_library();
  const LibraryBinary bin =
      compile_library(lib, Arch::amd64, OptLevel::O1, 5000);
  for (std::size_t f = 0; f < bin.functions.size(); ++f) {
    EXPECT_EQ(bin.functions[f].source_uid, 5000 + f);
    EXPECT_EQ(bin.functions[f].id, f);
  }
}

TEST(Compiler, DeterministicOutput) {
  const SourceLibrary lib = tiny_library();
  for (OptLevel opt : {OptLevel::O2, OptLevel::Ofast}) {
    const FunctionBinary a = compile_function(lib, 2, Arch::amd64, opt);
    const FunctionBinary b = compile_function(lib, 2, Arch::amd64, opt);
    ASSERT_EQ(a.code.size(), b.code.size());
    for (std::size_t i = 0; i < a.code.size(); ++i)
      EXPECT_EQ(a.code[i], b.code[i]);
  }
}

void expect_same_function(const FunctionBinary& a, const FunctionBinary& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.arch, b.arch);
  EXPECT_EQ(a.opt, b.opt);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.jump_tables, b.jump_tables);
  EXPECT_EQ(a.frame_size, b.frame_size);
  EXPECT_EQ(a.param_types, b.param_types);
  EXPECT_EQ(a.source_uid, b.source_uid);
}

TEST(Compiler, LibraryMatchesPerFunctionCompile) {
  // compile_library fans functions out over the shared pool; each slot must
  // hold exactly what a serial compile_function of that index produces.
  EvalConfig eval;
  eval.scale = 0.05;
  const EvalCorpus corpus(eval);
  const std::size_t index = corpus.library_index("libwebview");
  const SourceLibrary& lib = corpus.vulnerable_source(index);
  const std::uint64_t uid_base = corpus.uid_base(index);
  for (Arch arch : {Arch::arm32, Arch::amd64}) {
    for (OptLevel opt : {OptLevel::O0, OptLevel::O2, OptLevel::Ofast}) {
      const LibraryBinary bin = compile_library(lib, arch, opt, uid_base);
      EXPECT_EQ(bin.name, lib.name);
      EXPECT_EQ(bin.arch, arch);
      EXPECT_EQ(bin.opt, opt);
      EXPECT_FALSE(bin.stripped);
      EXPECT_EQ(bin.strings, lib.strings);
      ASSERT_EQ(bin.functions.size(), lib.functions.size());
      for (std::size_t f = 0; f < lib.functions.size(); ++f)
        expect_same_function(bin.functions[f],
                             compile_function(lib, f, arch, opt, uid_base));
    }
  }
}

TEST(Compiler, FunctionOverloadMatchesLibraryOverload) {
  const SourceLibrary lib = tiny_library();
  for (OptLevel opt : {OptLevel::O0, OptLevel::O2, OptLevel::Ofast}) {
    for (std::size_t f = 0; f < lib.functions.size(); ++f)
      expect_same_function(
          compile_function(lib.functions[f], f, Arch::arm64, opt, 700),
          compile_function(lib, f, Arch::arm64, opt, 700));
  }
  // A function compiled on its own as slot 3 (the patched reference) equals
  // the same function swapped into a copy of the library at slot 3.
  SourceLibrary swapped = lib;
  swapped.functions[3] = lib.functions[7];
  for (OptLevel opt : {OptLevel::O0, OptLevel::O2, OptLevel::Ofast})
    expect_same_function(
        compile_function(lib.functions[7], 3, Arch::amd64, opt, 700),
        compile_function(swapped, 3, Arch::amd64, opt, 700));
}

}  // namespace
}  // namespace patchecko
