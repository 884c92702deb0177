// Tests for the VM: trap semantics, the memory model, the runtime library,
// and exact dynamic-feature accounting on hand-assembled code.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "compiler/compiler.h"
#include "fuzz/fuzzer.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "source/generator.h"
#include "vm/machine.h"

namespace patchecko {
namespace {

// Hand-assembles a library with one function made of `code`.
LibraryBinary asm_lib(std::vector<Instruction> code,
                      std::vector<ValueType> params = {},
                      std::vector<std::string> strings = {}) {
  LibraryBinary lib;
  lib.name = "asm";
  lib.arch = Arch::amd64;
  lib.strings = std::move(strings);
  FunctionBinary fn;
  fn.name = "f";
  fn.arch = Arch::amd64;
  fn.code = std::move(code);
  fn.param_types = std::move(params);
  lib.functions.push_back(std::move(fn));
  return lib;
}

Instruction I(Opcode op, std::uint8_t dst = reg::none,
              std::uint8_t a = reg::none, std::uint8_t b = reg::none,
              std::int64_t imm = 0, std::int32_t target = -1) {
  Instruction inst;
  inst.op = op;
  inst.dst = dst;
  inst.src1 = a;
  inst.src2 = b;
  inst.imm = imm;
  inst.target = target;
  return inst;
}

TEST(Vm, ReturnsR0) {
  const auto lib = asm_lib({I(Opcode::ldi, 0, reg::none, reg::none, 99),
                            I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  ASSERT_EQ(r.status, ExecStatus::ok);
  EXPECT_EQ(r.ret, 99);
}

TEST(Vm, ArgumentsArriveInRegisters) {
  const auto lib = asm_lib({I(Opcode::add, 0, 0, 1), I(Opcode::ret)},
                           {ValueType::i64, ValueType::i64});
  const Machine machine(lib);
  CallEnv env;
  env.args = {Value::from_int(30), Value::from_int(12)};
  EXPECT_EQ(machine.run(0, env).ret, 42);
}

TEST(Vm, DivByZeroTraps) {
  const auto lib = asm_lib({I(Opcode::ldi, 0, reg::none, reg::none, 5),
                            I(Opcode::ldi, 1, reg::none, reg::none, 0),
                            I(Opcode::divi, 2, 0, 1), I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_div_zero);
}

TEST(Vm, RunningPastEndTraps) {
  const auto lib = asm_lib({I(Opcode::nop)});
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_type);
}

TEST(Vm, StepLimitStopsInfiniteLoop) {
  const auto lib =
      asm_lib({I(Opcode::jmp, reg::none, reg::none, reg::none, 0, 0)});
  MachineConfig config;
  config.step_limit = 500;
  const Machine machine(lib, config);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  EXPECT_EQ(r.status, ExecStatus::trap_step_limit);
  EXPECT_EQ(r.steps, 501u);
}

TEST(Vm, BufferAccessAndPersistence) {
  // storeb buf[2] = 7; return loadb buf[2].
  const auto lib = asm_lib(
      {I(Opcode::ldi, 1, reg::none, reg::none, 7),
       I(Opcode::storeb, reg::none, 0, 1, 2),
       I(Opcode::loadb, 0, 0, reg::none, 2), I(Opcode::ret)},
      {ValueType::ptr});
  const Machine machine(lib);
  CallEnv env;
  env.buffers.push_back({0, 0, 0, 0});
  env.args.push_back(Value::from_ptr(0));
  const RunResult r = machine.run(0, env);
  ASSERT_EQ(r.status, ExecStatus::ok);
  EXPECT_EQ(r.ret, 7);
  EXPECT_EQ(r.buffers_after[0][2], 7);
}

TEST(Vm, BufferOverrunTraps) {
  const auto lib = asm_lib(
      {I(Opcode::loadb, 0, 0, reg::none, 64), I(Opcode::ret)},
      {ValueType::ptr});
  const Machine machine(lib);
  CallEnv env;
  env.buffers.push_back({1, 2, 3});
  env.args.push_back(Value::from_ptr(0));
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_oob);
}

TEST(Vm, GuardGapBetweenBuffersTraps) {
  // Even with two buffers mapped, overrunning the first lands in a guard
  // gap, not in the second buffer.
  const auto lib = asm_lib(
      {I(Opcode::loadb, 0, 0, reg::none, 8), I(Opcode::ret)},
      {ValueType::ptr, ValueType::ptr});
  const Machine machine(lib);
  CallEnv env;
  env.buffers.push_back({1, 2, 3, 4, 5, 6, 7, 8});
  env.buffers.push_back({9, 9});
  env.args.push_back(Value::from_ptr(0));
  env.args.push_back(Value::from_ptr(1));
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_oob);
}

TEST(Vm, StringPoolIsReadOnly) {
  const auto lib = asm_lib(
      {I(Opcode::ldstr, 0, reg::none, reg::none, 0),
       I(Opcode::ldi, 1, reg::none, reg::none, 65),
       I(Opcode::storeb, reg::none, 0, 1, 0), I(Opcode::ret)},
      {}, {"const"});
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_oob);
}

TEST(Vm, StringPoolReadableWithNul) {
  const auto lib = asm_lib(
      {I(Opcode::ldstr, 0, reg::none, reg::none, 0),
       I(Opcode::loadb, 0, 0, reg::none, 2), I(Opcode::ret)},
      {}, {"abc"});
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).ret, 'c');
}

TEST(Vm, PushPopRoundTrip) {
  const auto lib = asm_lib({I(Opcode::ldi, 0, reg::none, reg::none, 314),
                            I(Opcode::push, reg::none, 0),
                            I(Opcode::ldi, 0, reg::none, reg::none, 0),
                            I(Opcode::pop, 0), I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).ret, 314);
}

TEST(Vm, StackOverflowTraps) {
  // frame larger than the whole stack, then a spill store.
  const auto lib = asm_lib(
      {I(Opcode::frame, reg::none, reg::none, reg::none, 1 << 20),
       I(Opcode::store, reg::none, reg::fp, 0, 0), I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_oob);
}

TEST(Vm, MallocGivesZeroedHeap) {
  const auto lib = asm_lib(
      {I(Opcode::ldi, 0, reg::none, reg::none, 32),
       I(Opcode::libcall, reg::none, reg::none, reg::none,
         static_cast<std::int64_t>(LibFn::malloc)),
       I(Opcode::loadb, 0, 0, reg::none, 31), I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  ASSERT_EQ(r.status, ExecStatus::ok);
  EXPECT_EQ(r.ret, 0);
  EXPECT_GT(r.features.mem_heap, 0u);
}

TEST(Vm, CallPreservesCallerRegisters) {
  // Callee (fn 1) clobbers its own r5; caller keeps its r5.
  LibraryBinary lib = asm_lib({});
  lib.functions.clear();
  FunctionBinary caller;
  caller.name = "caller";
  caller.code = {I(Opcode::ldi, 5, reg::none, reg::none, 111),
                 I(Opcode::call, reg::none, reg::none, reg::none, 1),
                 I(Opcode::mov, 0, 5), I(Opcode::ret)};
  FunctionBinary callee;
  callee.name = "callee";
  callee.code = {I(Opcode::ldi, 5, reg::none, reg::none, 222),
                 I(Opcode::ldi, 0, reg::none, reg::none, 0),
                 I(Opcode::ret)};
  lib.functions = {caller, callee};
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).ret, 111);
}

TEST(Vm, CallReturnsValueInR0) {
  LibraryBinary lib = asm_lib({});
  lib.functions.clear();
  FunctionBinary caller;
  caller.code = {I(Opcode::call, reg::none, reg::none, reg::none, 1),
                 I(Opcode::ret)};
  FunctionBinary callee;
  callee.code = {I(Opcode::ldi, 0, reg::none, reg::none, 77),
                 I(Opcode::ret)};
  lib.functions = {caller, callee};
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).ret, 77);
}

TEST(Vm, RecursionDepthBounded) {
  LibraryBinary lib = asm_lib({});
  lib.functions.clear();
  FunctionBinary self;
  self.code = {I(Opcode::call, reg::none, reg::none, reg::none, 0),
               I(Opcode::ret)};
  lib.functions = {self};
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_step_limit);
}

TEST(Vm, InvalidCalleeTraps) {
  const auto lib = asm_lib(
      {I(Opcode::call, reg::none, reg::none, reg::none, 42),
       I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_type);
}


TEST(Vm, CallrDispatchesThroughRegister) {
  LibraryBinary lib = asm_lib({});
  lib.functions.clear();
  FunctionBinary dispatcher;
  // r1 holds callee id (arg 1); callr r1.
  dispatcher.code = {I(Opcode::mov, 2, 1),
                     I(Opcode::callr, reg::none, 2),
                     I(Opcode::ret)};
  dispatcher.param_types = {ValueType::i64, ValueType::i64};
  FunctionBinary a, b;
  a.code = {I(Opcode::ldi, 0, reg::none, reg::none, 10), I(Opcode::ret)};
  b.code = {I(Opcode::ldi, 0, reg::none, reg::none, 20), I(Opcode::ret)};
  lib.functions = {dispatcher, a, b};
  const Machine machine(lib);
  CallEnv env;
  env.args = {Value::from_int(0), Value::from_int(1)};
  EXPECT_EQ(machine.run(0, env).ret, 10);
  env.args = {Value::from_int(0), Value::from_int(2)};
  EXPECT_EQ(machine.run(0, env).ret, 20);
  env.args = {Value::from_int(0), Value::from_int(99)};  // bad id
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_type);
}

// --- dynamic feature accounting --------------------------------------------------

TEST(VmFeatures, InstructionAndClassCounts) {
  const auto lib = asm_lib({I(Opcode::ldi, 0, reg::none, reg::none, 1),
                            I(Opcode::ldi, 1, reg::none, reg::none, 2),
                            I(Opcode::add, 2, 0, 1),
                            I(Opcode::mul, 2, 2, 1),
                            I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  EXPECT_EQ(r.features.instructions, 5u);
  EXPECT_EQ(r.features.unique_instructions, 5u);
  EXPECT_EQ(r.features.arith_instructions, 2u);
  EXPECT_EQ(r.features.branch_instructions, 0u);
}

TEST(VmFeatures, UniqueVsTotalInLoop) {
  // Loop body of 3 instructions executed 4 times.
  const auto lib = asm_lib({
      I(Opcode::ldi, 0, reg::none, reg::none, 4),    // 0: counter
      I(Opcode::ldi, 1, reg::none, reg::none, 1),    // 1
      I(Opcode::sub, 0, 0, 1),                       // 2
      I(Opcode::bne, reg::none, 0, reg::none, 0, 2), // 3: loop to 2
      I(Opcode::ret),                                // 4
  });
  const Machine machine(lib);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  EXPECT_EQ(r.features.unique_instructions, 5u);
  EXPECT_EQ(r.features.instructions, 2u + 4u * 2u + 1u);
  EXPECT_EQ(r.features.branch_instructions, 4u);
  EXPECT_EQ(r.features.max_branch_frequency, 4u);
  EXPECT_EQ(r.features.max_arith_frequency, 4u);  // the sub
}

TEST(VmFeatures, MemoryRegionAttribution) {
  const auto lib = asm_lib(
      {I(Opcode::loadb, 1, 0, reg::none, 0),         // anon
       I(Opcode::push, reg::none, 1),                // stack write
       I(Opcode::pop, 1),                            // stack read
       I(Opcode::ldstr, 2, reg::none, reg::none, 0),
       I(Opcode::loadb, 3, 2, reg::none, 0),         // lib
       I(Opcode::ret)},
      {ValueType::ptr}, {"s"});
  const Machine machine(lib);
  CallEnv env;
  env.buffers.push_back({42});
  env.args.push_back(Value::from_ptr(0));
  const RunResult r = machine.run(0, env);
  ASSERT_EQ(r.status, ExecStatus::ok);
  EXPECT_EQ(r.features.mem_anon, 1u);
  EXPECT_EQ(r.features.mem_stack, 2u);
  EXPECT_EQ(r.features.mem_lib, 1u);
  EXPECT_EQ(r.features.mem_heap, 0u);
  EXPECT_EQ(r.features.load_instructions, 3u);  // loadb + pop + loadb
  EXPECT_EQ(r.features.store_instructions, 1u); // push
}

TEST(VmFeatures, CallAndSyscallCounters) {
  LibraryBinary lib = asm_lib({});
  lib.functions.clear();
  FunctionBinary caller;
  caller.code = {
      I(Opcode::call, reg::none, reg::none, reg::none, 1),
      I(Opcode::libcall, reg::none, reg::none, reg::none,
        static_cast<std::int64_t>(LibFn::abs64)),
      I(Opcode::syscall, reg::none, reg::none, reg::none,
        static_cast<std::int64_t>(Sys::sys_getpid)),
      I(Opcode::ret)};
  FunctionBinary callee;
  callee.code = {I(Opcode::ret)};
  lib.functions = {caller, callee};
  const Machine machine(lib);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  EXPECT_EQ(r.features.binary_fun_calls, 1u);
  EXPECT_EQ(r.features.library_calls, 1u);
  EXPECT_EQ(r.features.syscalls, 1u);
  EXPECT_EQ(r.features.call_instructions, 3u);
}

TEST(VmFeatures, StackDepthBottomsAtTwo) {
  const auto lib = asm_lib({I(Opcode::ldi, 0, reg::none, reg::none, 0),
                            I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  EXPECT_DOUBLE_EQ(r.features.min_stack_depth, 2.0);
  EXPECT_DOUBLE_EQ(r.features.max_stack_depth, 2.0);
  EXPECT_DOUBLE_EQ(r.features.std_stack_depth, 0.0);
}

TEST(VmFeatures, NestedCallRaisesDepth) {
  LibraryBinary lib = asm_lib({});
  lib.functions.clear();
  FunctionBinary caller;
  caller.code = {I(Opcode::call, reg::none, reg::none, reg::none, 1),
                 I(Opcode::ret)};
  FunctionBinary callee;
  callee.code = {I(Opcode::nop), I(Opcode::ret)};
  lib.functions = {caller, callee};
  const Machine machine(lib);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  EXPECT_DOUBLE_EQ(r.features.min_stack_depth, 2.0);
  EXPECT_DOUBLE_EQ(r.features.max_stack_depth, 3.0);
}

// Sets the stack-depth features from hand-counted samples: `count`
// executed instructions at each `depth`.
void set_depths(DynamicFeatures& f,
                std::initializer_list<std::pair<int, int>> depth_counts) {
  double n = 0.0, sum = 0.0, squares = 0.0;
  f.min_stack_depth = 1e9;
  for (const auto& [depth, count] : depth_counts) {
    n += count;
    sum += double{1} * depth * count;
    squares += double{1} * depth * depth * count;
    f.min_stack_depth = std::min(f.min_stack_depth, double{1} * depth);
    f.max_stack_depth = std::max(f.max_stack_depth, double{1} * depth);
  }
  f.avg_stack_depth = sum / n;
  const double var = squares / n - f.avg_stack_depth * f.avg_stack_depth;
  f.std_stack_depth = var > 0.0 ? std::sqrt(var) : 0.0;
}

void expect_features(const DynamicFeatures& got, const DynamicFeatures& want,
                     const std::string& what) {
  const auto g = got.to_array();
  const auto w = want.to_array();
  for (std::size_t i = 0; i < DynamicFeatures::count; ++i)
    EXPECT_EQ(g[i], w[i]) << what << ": " << DynamicFeatures::name(i);
}

TEST(VmFeatures, TrapMidSegmentKeepsTableIICounters) {
  // Each program traps inside a callee with instructions of the current
  // depth already counted, so the open depth segment and every class
  // counter must include them.
  LibraryBinary lib = asm_lib({});
  lib.functions.clear();
  const auto fn = [&](std::vector<Instruction> code) {
    FunctionBinary f;
    f.arch = lib.arch;
    f.code = std::move(code);
    lib.functions.push_back(std::move(f));
  };
  const auto call = [](std::int64_t callee) {
    return I(Opcode::call, reg::none, reg::none, reg::none, callee);
  };
  const auto ldi = [](std::uint8_t dst, std::int64_t v) {
    return I(Opcode::ldi, dst, reg::none, reg::none, v);
  };
  // 0-1: step limit in a callee's loop.
  fn({ldi(1, 3), I(Opcode::push, reg::none, 1), call(1), I(Opcode::ret)});
  fn({I(Opcode::add, 0, 0, 1), I(Opcode::cmp, 2, 0, 1),
      I(Opcode::jmp, reg::none, reg::none, reg::none, 0, 0)});
  // 2-3: call depth overflow in a recursive callee.
  fn({ldi(1, 1), call(3), I(Opcode::ret)});
  fn({I(Opcode::add, 0, 0, 1), call(3), I(Opcode::ret)});
  // 4-5: out-of-bounds word load from a 4-byte buffer in a callee.
  fn({ldi(1, 8), call(5), I(Opcode::ret)});
  fn({I(Opcode::loadb, 2, 0, reg::none, 0),
      I(Opcode::storeb, reg::none, 0, 1, 1), I(Opcode::push, reg::none, 1),
      I(Opcode::load, 3, 0, reg::none, 0), I(Opcode::ret)});
  // 6-8: a callee divides by zero after its own callee returned.
  fn({ldi(1, 4), call(7), I(Opcode::ret)});
  fn({I(Opcode::mul, 0, 1, 1), call(8), ldi(1, 0), I(Opcode::divi, 2, 0, 1),
      I(Opcode::ret)});
  fn({ldi(0, 2),
      I(Opcode::syscall, reg::none, reg::none, reg::none,
        static_cast<std::int64_t>(Sys::sys_getpid)),
      I(Opcode::libcall, reg::none, reg::none, reg::none,
        static_cast<std::int64_t>(LibFn::abs64)),
      I(Opcode::ret)});

  {
    MachineConfig config;
    config.step_limit = 11;
    const RunResult r = Machine(lib, config).run(0, CallEnv{});
    EXPECT_EQ(r.status, ExecStatus::trap_step_limit);
    EXPECT_EQ(r.steps, 12u);  // the overrunning step, not counted below
    DynamicFeatures f;
    f.instructions = config.step_limit;  // 3 + add,cmp,jmp,add,cmp,jmp,add,cmp
    f.unique_instructions = 6;
    f.arith_instructions = 6;
    f.max_arith_frequency = 3;
    f.branch_instructions = 2;
    f.max_branch_frequency = 2;
    f.store_instructions = 1;
    f.binary_fun_calls = f.call_instructions = 1;
    f.mem_stack = 1;
    set_depths(f, {{2, 3}, {3, 8}});
    expect_features(r.features, f, "step limit");
  }
  {
    MachineConfig config;
    config.max_call_depth = 2;
    const RunResult r = Machine(lib, config).run(2, CallEnv{});
    EXPECT_EQ(r.status, ExecStatus::trap_step_limit);
    EXPECT_EQ(r.steps, 6u);
    DynamicFeatures f;
    f.instructions = 6;
    f.unique_instructions = 4;
    f.arith_instructions = 2;
    f.max_arith_frequency = 2;
    f.binary_fun_calls = f.call_instructions = 3;  // the last one traps
    set_depths(f, {{2, 2}, {3, 2}, {4, 2}});
    expect_features(r.features, f, "call depth");
  }
  {
    CallEnv env;
    env.buffers.push_back({1, 2, 3, 4});
    env.args.push_back(Value::from_ptr(0));
    const RunResult r = Machine(lib).run(4, env);
    EXPECT_EQ(r.status, ExecStatus::trap_oob);
    EXPECT_EQ(r.steps, 6u);
    DynamicFeatures f;
    f.instructions = f.unique_instructions = 6;
    f.load_instructions = 2;   // the trapping load counts, its access not
    f.store_instructions = 2;  // storeb + push
    f.binary_fun_calls = f.call_instructions = 1;
    f.mem_anon = 2;
    f.mem_stack = 1;
    set_depths(f, {{2, 2}, {3, 4}});
    expect_features(r.features, f, "bad address");
    EXPECT_EQ(r.buffers_after,
              (std::vector<std::vector<std::uint8_t>>{{1, 8, 3, 4}}));
  }
  {
    const RunResult r = Machine(lib).run(6, CallEnv{});
    EXPECT_EQ(r.status, ExecStatus::trap_div_zero);
    EXPECT_EQ(r.steps, 10u);
    DynamicFeatures f;
    f.instructions = f.unique_instructions = 10;
    f.arith_instructions = 2;  // mul + the trapping divi
    f.max_arith_frequency = 1;
    f.binary_fun_calls = 2;
    f.library_calls = 1;
    f.syscalls = 1;
    f.call_instructions = 4;
    // Depth 3 before and after the depth-4 callee: two segments.
    set_depths(f, {{2, 2}, {3, 2}, {4, 4}, {3, 2}});
    expect_features(r.features, f, "div by zero after ret");
  }
}

TEST(VmFeatures, DeterministicAcrossRuns) {
  const SourceLibrary src = generate_library("det", 0xD, 8);
  const LibraryBinary lib = compile_library(src, Arch::arm64, OptLevel::O2);
  const Machine machine(lib);
  CallEnv env;
  env.buffers.push_back(std::vector<std::uint8_t>(32, 5));
  env.args.push_back(Value::from_ptr(0));
  env.args.push_back(Value::from_int(32));
  env.args.push_back(Value::from_int(3));
  const RunResult a = machine.run(2, env);
  const RunResult b = machine.run(2, env);
  EXPECT_EQ(static_cast<int>(a.status), static_cast<int>(b.status));
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.features.to_vector(), b.features.to_vector());
}


// --- per-thread image reuse ------------------------------------------------

Instruction libcall(LibFn fn) {
  return I(Opcode::libcall, reg::none, reg::none, reg::none,
           static_cast<std::int64_t>(fn));
}

// Functions that dirty every part of a thread's reused image, and functions
// whose results would expose any state left behind: stale stack bytes, heap
// chunks, registers or site counters.
enum AsmFn : std::size_t {
  scribble,    // stack stores, push, memset and strcpy into its frame
  deep_memset, // only a memset, 2 KiB below the entry stack pointer
  deep_strcpy, // only a strcpy, 4 KiB below the entry stack pointer
  peek,        // sums the stack words the three above write
  heap_fill,   // mallocs four 64-byte chunks and fills them with 0xEE
  heap_peek,   // malloc(32): returns base + the chunk's last byte
  heap_stale,  // malloc(8), then reads 64 bytes past it (no chunk there)
  trap_caller, // stores into its frame, then calls trap_callee
  trap_callee, // stores into its frame, then divides by zero
};

LibraryBinary image_lib() {
  LibraryBinary lib = asm_lib({});
  lib.strings = {"hello, reused stack"};
  lib.functions.clear();
  auto fn = [&](std::vector<Instruction> code) {
    FunctionBinary f;
    f.arch = Arch::amd64;
    f.code = std::move(code);
    lib.functions.push_back(std::move(f));
  };
  const auto ldi = [](std::uint8_t r, std::int64_t v) {
    return I(Opcode::ldi, r, reg::none, reg::none, v);
  };
  fn({I(Opcode::frame, reg::none, reg::none, reg::none, 512),
      ldi(1, 0x5A5A5A5A5A),
      I(Opcode::store, reg::none, reg::fp, 1, 0),
      I(Opcode::store, reg::none, reg::fp, 1, 256),
      I(Opcode::push, reg::none, 1),
      I(Opcode::mov, 0, reg::fp), ldi(3, 64), I(Opcode::add, 0, 0, 3),
      ldi(1, 0xAB), ldi(2, 128), libcall(LibFn::memset),
      I(Opcode::mov, 0, reg::fp), ldi(3, 400), I(Opcode::add, 0, 0, 3),
      I(Opcode::ldstr, 1, reg::none, reg::none, 0), libcall(LibFn::strcpy),
      I(Opcode::ret)});
  fn({I(Opcode::mov, 0, reg::sp), ldi(3, 2048), I(Opcode::sub, 0, 0, 3),
      ldi(1, 0xCD), ldi(2, 64), libcall(LibFn::memset), I(Opcode::ret)});
  fn({I(Opcode::mov, 0, reg::sp), ldi(3, 4096), I(Opcode::sub, 0, 0, 3),
      I(Opcode::ldstr, 1, reg::none, reg::none, 0), libcall(LibFn::strcpy),
      I(Opcode::ret)});
  // peek's frame sits 512 bytes below the entry stack pointer.
  fn({I(Opcode::frame, reg::none, reg::none, reg::none, 512),
      I(Opcode::load, 0, reg::fp, reg::none, 0),
      I(Opcode::load, 1, reg::fp, reg::none, 256), I(Opcode::add, 0, 0, 1),
      I(Opcode::load, 1, reg::fp, reg::none, -8), I(Opcode::add, 0, 0, 1),
      I(Opcode::load, 1, reg::fp, reg::none, 64), I(Opcode::add, 0, 0, 1),
      I(Opcode::load, 1, reg::fp, reg::none, 400), I(Opcode::add, 0, 0, 1),
      I(Opcode::load, 1, reg::fp, reg::none, 512 - 2048),
      I(Opcode::add, 0, 0, 1),
      I(Opcode::load, 1, reg::fp, reg::none, 512 - 4096),
      I(Opcode::add, 0, 0, 1), I(Opcode::ret)});
  std::vector<Instruction> fill;
  for (int chunk = 0; chunk < 4; ++chunk) {
    fill.insert(fill.end(),
                {ldi(0, 64), libcall(LibFn::malloc), ldi(1, 0xEE),
                 ldi(2, 64), libcall(LibFn::memset)});
  }
  fill.push_back(I(Opcode::ret));
  fn(fill);
  fn({ldi(0, 32), libcall(LibFn::malloc),
      I(Opcode::loadb, 1, 0, reg::none, 31), I(Opcode::add, 0, 0, 1),
      I(Opcode::ret)});
  fn({ldi(0, 8), libcall(LibFn::malloc),
      I(Opcode::loadb, 0, 0, reg::none, 64), I(Opcode::ret)});
  fn({I(Opcode::frame, reg::none, reg::none, reg::none, 64), ldi(1, 17),
      I(Opcode::store, reg::none, reg::fp, 1, 0),
      I(Opcode::call, reg::none, reg::none, reg::none, trap_callee),
      I(Opcode::ret)});
  fn({I(Opcode::frame, reg::none, reg::none, reg::none, 128), ldi(2, 0),
      I(Opcode::store, reg::none, reg::fp, 1, 8),
      I(Opcode::divi, 3, 1, 2), I(Opcode::ret)});
  return lib;
}

void expect_same_run(const RunResult& got, const RunResult& fresh,
                     const std::string& what) {
  EXPECT_EQ(static_cast<int>(got.status), static_cast<int>(fresh.status))
      << what;
  EXPECT_EQ(got.ret, fresh.ret) << what;
  EXPECT_EQ(got.steps, fresh.steps) << what;
  static_assert(sizeof(DynamicFeatures) == 8 * DynamicFeatures::count);
  EXPECT_EQ(std::memcmp(&got.features, &fresh.features,
                        sizeof(DynamicFeatures)),
            0)
      << what;
  EXPECT_EQ(got.buffers_after, fresh.buffers_after) << what;
}

TEST(Vm, ReusedImageMatchesFreshThread) {
  const LibraryBinary lib = image_lib();
  const Machine machine(lib);
  MachineConfig small_stack;
  small_stack.stack_size = 1 << 12;
  const Machine small_machine(lib, small_stack);

  const SourceLibrary source = generate_library("reuse", 0x5EED, 12);
  const LibraryBinary compiled =
      compile_library(source, Arch::arm32, OptLevel::O2, 3);
  const Machine compiled_machine(compiled);
  const LibraryBinary other = compile_library(
      generate_library("other", 0x07E4, 6), Arch::arm64, OptLevel::O0, 5);
  const Machine other_machine(other);

  struct Pair {
    const Machine* machine;
    std::size_t function;
    CallEnv env;
  };
  std::vector<Pair> pairs;
  CallEnv empty;
  for (const std::size_t f :
       {peek, heap_peek, heap_stale, trap_caller, scribble, deep_memset,
        deep_strcpy})
    pairs.push_back({&machine, f, empty});
  pairs.push_back({&small_machine, peek, empty});
  Rng rng(0x15);
  FuzzConfig fuzz;
  fuzz.env_count = 2;
  for (std::size_t f = 0; f < 6; ++f)
    for (const CallEnv& env : generate_environments(compiled, f, rng, fuzz))
      pairs.push_back({&compiled_machine, f, env});
  ASSERT_GT(pairs.size(), 12u);

  std::vector<RunResult> fresh(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i)
    std::thread([&] {
      fresh[i] = pairs[i].machine->run(pairs[i].function, pairs[i].env);
    }).join();
  // A fresh image reads zeroed stack and has no heap chunk past a malloc.
  EXPECT_EQ(fresh[0].ret, 0);
  EXPECT_EQ(static_cast<int>(fresh[2].status),
            static_cast<int>(ExecStatus::trap_oob));
  EXPECT_EQ(static_cast<int>(fresh[3].status),
            static_cast<int>(ExecStatus::trap_div_zero));
  for (std::size_t i = 4; i < 7; ++i)  // the stack dirtiers run cleanly
    EXPECT_EQ(static_cast<int>(fresh[i].status),
              static_cast<int>(ExecStatus::ok));

  MachineConfig big_stack;
  big_stack.stack_size = 1 << 18;
  const Machine big_machine(lib, big_stack);
  CallEnv other_env;
  other_env.buffers.push_back(std::vector<std::uint8_t>(48, 0x33));
  other_env.args = {Value::from_ptr(0), Value::from_int(48),
                    Value::from_int(7)};
  const std::vector<std::pair<std::string, std::function<void()>>> dirtiers{
      {"stack", [&] { (void)machine.run(scribble, empty); }},
      {"memset", [&] { (void)machine.run(deep_memset, empty); }},
      {"strcpy", [&] { (void)machine.run(deep_strcpy, empty); }},
      {"malloc", [&] { (void)machine.run(heap_fill, empty); }},
      {"trap mid-call", [&] { (void)machine.run(trap_caller, empty); }},
      {"second library",
       [&] {
         for (std::size_t f = 0; f < other.functions.size(); ++f)
           (void)other_machine.run(f, other_env);
       }},
      {"small stack", [&] { (void)small_machine.run(scribble, empty); }},
      {"big stack", [&] { (void)big_machine.run(scribble, empty); }},
  };
  for (const auto& [name, dirty] : dirtiers)
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      dirty();
      expect_same_run(
          pairs[i].machine->run(pairs[i].function, pairs[i].env), fresh[i],
          "after " + name + ", pair " + std::to_string(i));
    }
}

TEST(Vm, WarmRunAllocatesOnlyItsResult) {
  if (!obs::allocation_counting_available())
    GTEST_SKIP() << "allocation hook compiled out (sanitizer build)";
  const obs::EnabledScope on(true);
  const LibraryBinary lib = image_lib();
  const Machine machine(lib);
  CallEnv env;
  env.buffers = {std::vector<std::uint8_t>(16, 1), {},
                 std::vector<std::uint8_t>(5, 2)};
  env.args = {Value::from_ptr(0), Value::from_ptr(2)};
  for (const std::size_t f : {scribble, deep_strcpy, peek, trap_caller}) {
    (void)machine.run(f, env);  // warm-up: the image grows to fit
    const std::uint64_t before = obs::thread_allocation_count();
    const RunResult result = machine.run(f, env);
    const std::uint64_t allocations = obs::thread_allocation_count() - before;
    // The buffers_after vector and one copy per non-empty buffer.
    EXPECT_EQ(allocations, 1u + 2u) << "function " << f;
    EXPECT_EQ(result.buffers_after.size(), 3u);
  }
}

}  // namespace
}  // namespace patchecko
