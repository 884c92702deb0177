// Synthetic instruction-set architecture.
//
// The paper's corpus is real Android libraries compiled by Clang for x86,
// amd64, ARM 32-bit and ARM 64-bit at six optimization levels. We reproduce
// that variation with a compact register-machine ISA that has per-architecture
// register files and per-architecture instruction encodings, so the same
// source function genuinely produces different binaries per target — the
// property the deep-learning stage must learn to see through.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace patchecko {

/// Target architectures, matching the paper's evaluation matrix.
enum class Arch : std::uint8_t { x86 = 0, amd64 = 1, arm32 = 2, arm64 = 3 };

constexpr std::array<Arch, 4> all_arches{Arch::x86, Arch::amd64, Arch::arm32,
                                         Arch::arm64};

std::string_view arch_name(Arch arch);

/// Compiler optimization levels, matching the paper's -O0..-Ofast sweep.
enum class OptLevel : std::uint8_t { O0 = 0, O1, O2, O3, Oz, Ofast };

constexpr std::array<OptLevel, 6> all_opt_levels{
    OptLevel::O0, OptLevel::O1, OptLevel::O2,
    OptLevel::O3, OptLevel::Oz, OptLevel::Ofast};

std::string_view opt_level_name(OptLevel level);

/// Number of allocatable general-purpose registers per architecture. The
/// spread drives realistic spill behaviour on register-poor targets.
int register_count(Arch arch);

/// Distinguished register indices understood by the VM; they are outside
/// every architecture's allocatable range.
namespace reg {
constexpr std::uint8_t sp = 254;    ///< stack pointer
constexpr std::uint8_t fp = 255;    ///< frame pointer
constexpr std::uint8_t none = 253;  ///< "no register" operand marker
}  // namespace reg

enum class Opcode : std::uint8_t {
  // Data movement
  mov,    ///< dst <- src1
  ldi,    ///< dst <- imm
  ldstr,  ///< dst <- address of string-pool entry imm
  load,   ///< dst <- mem64[src1 + imm]
  loadb,  ///< dst <- mem8[src1 + imm] (zero extended)
  store,  ///< mem64[src1 + imm] <- src2
  storeb, ///< mem8[src1 + imm] <- low byte of src2
  push,   ///< push src1
  pop,    ///< pop into dst
  // Integer arithmetic / logic
  add, sub, mul, divi, modi, neg,
  andi, ori, xori, shl, shr,
  // Comparison: dst <- (src1 ? src2) producing -1/0/1
  cmp,
  // Floating point (registers hold raw IEEE-754 bit patterns)
  fadd, fsub, fmul, fdiv, fneg, cvtif, cvtfi,
  // Control flow; `target` is an instruction index within the function
  jmp,
  beq, bne, blt, bge, bgt, ble,  ///< conditional on src1 (cmp result)
  jmpi,   ///< indirect jump via jump table `imm`, index in src1
  call,   ///< direct call, callee id in imm
  callr,  ///< indirect call through src1
  ret,    ///< return, value in r0
  // Runtime interface
  libcall,  ///< imm = LibFn, arguments in r0..r3, result in r0
  syscall,  ///< imm = Sys, arguments in r0..r1, result in r0
  // Misc
  frame,  ///< establish a stack frame of imm bytes
  nop,
};

std::string_view opcode_name(Opcode op);

/// Instruction classification used by both the static (Table I) and dynamic
/// (Table II) feature extractors. Inline so the per-instruction loops of the
/// extractors and the CFG builder fold them into range checks.
constexpr bool is_int_arith(Opcode op) {
  switch (op) {
    case Opcode::add: case Opcode::sub: case Opcode::mul:
    case Opcode::divi: case Opcode::modi: case Opcode::neg:
    case Opcode::andi: case Opcode::ori: case Opcode::xori:
    case Opcode::shl: case Opcode::shr: case Opcode::cmp:
      return true;
    default:
      return false;
  }
}
constexpr bool is_fp_arith(Opcode op) {
  switch (op) {
    case Opcode::fadd: case Opcode::fsub: case Opcode::fmul:
    case Opcode::fdiv: case Opcode::fneg: case Opcode::cvtif:
    case Opcode::cvtfi:
      return true;
    default:
      return false;
  }
}
/// Integer or floating point.
constexpr bool is_arith(Opcode op) {
  return is_int_arith(op) || is_fp_arith(op);
}
constexpr bool is_conditional_branch(Opcode op) {
  switch (op) {
    case Opcode::beq: case Opcode::bne: case Opcode::blt:
    case Opcode::bge: case Opcode::bgt: case Opcode::ble:
      return true;
    default:
      return false;
  }
}
/// Conditional branches + jmp + jmpi.
constexpr bool is_branch(Opcode op) {
  return is_conditional_branch(op) || op == Opcode::jmp || op == Opcode::jmpi;
}
/// call, callr (libcall/syscall are separate).
constexpr bool is_call(Opcode op) {
  return op == Opcode::call || op == Opcode::callr;
}
constexpr bool is_load(Opcode op) {
  return op == Opcode::load || op == Opcode::loadb || op == Opcode::pop;
}
constexpr bool is_store(Opcode op) {
  return op == Opcode::store || op == Opcode::storeb || op == Opcode::push;
}
/// True when control does not fall through to the next instruction.
constexpr bool is_terminator(Opcode op) {
  return op == Opcode::jmp || op == Opcode::jmpi || op == Opcode::ret;
}

/// Runtime library functions implemented by the VM (the paper's imported
/// libc symbols; e.g. the memmove that the CVE-2018-9412 patch removes).
enum class LibFn : std::uint8_t {
  memmove = 0, memcpy, memset, strlen, strcmp, strcpy,
  malloc, free, abs64, imin, imax, clamp,
  fsqrt, fpow, ffloor, crc32, byte_swap, checked_add,
  count,
};

std::string_view libfn_name(LibFn fn);
constexpr std::size_t libfn_count = static_cast<std::size_t>(LibFn::count);

/// Kernel interface reached through `syscall`.
enum class Sys : std::uint8_t {
  sys_write = 0, sys_read, sys_getpid, sys_time, sys_mmap, sys_log,
  count,
};

std::string_view sys_name(Sys sys);

/// One machine instruction. `dst/src1/src2` index the register file (or
/// reg::sp / reg::fp / reg::none); `imm` carries immediates, memory offsets,
/// string ids, jump-table ids, callee ids, LibFn/Sys ids; `target` carries
/// branch destinations as instruction indices.
struct Instruction {
  Opcode op = Opcode::nop;
  std::uint8_t dst = reg::none;
  std::uint8_t src1 = reg::none;
  std::uint8_t src2 = reg::none;
  std::int64_t imm = 0;
  std::int32_t target = -1;

  bool operator==(const Instruction&) const = default;
};

/// Byte size of `inst` when encoded for `arch`. ARM targets are fixed-width;
/// x86 targets are variable-width with immediates widening the encoding.
/// These sizes feed the size-based static features (size_fun, min/max/avg
/// size of basic block).
int encoded_size(const Instruction& inst, Arch arch);

/// Human-readable rendering for debugging and the example binaries.
std::string to_string(const Instruction& inst);

}  // namespace patchecko
