#include "isa/isa.h"

#include <sstream>

namespace patchecko {

std::string_view arch_name(Arch arch) {
  switch (arch) {
    case Arch::x86: return "x86";
    case Arch::amd64: return "amd64";
    case Arch::arm32: return "arm32";
    case Arch::arm64: return "arm64";
  }
  return "unknown";
}

std::string_view opt_level_name(OptLevel level) {
  switch (level) {
    case OptLevel::O0: return "O0";
    case OptLevel::O1: return "O1";
    case OptLevel::O2: return "O2";
    case OptLevel::O3: return "O3";
    case OptLevel::Oz: return "Oz";
    case OptLevel::Ofast: return "Ofast";
  }
  return "unknown";
}

int register_count(Arch arch) {
  switch (arch) {
    case Arch::x86: return 8;
    case Arch::amd64: return 16;
    case Arch::arm32: return 12;
    case Arch::arm64: return 28;
  }
  return 8;
}

std::string_view opcode_name(Opcode op) {
  switch (op) {
    case Opcode::mov: return "mov";
    case Opcode::ldi: return "ldi";
    case Opcode::ldstr: return "ldstr";
    case Opcode::load: return "load";
    case Opcode::loadb: return "loadb";
    case Opcode::store: return "store";
    case Opcode::storeb: return "storeb";
    case Opcode::push: return "push";
    case Opcode::pop: return "pop";
    case Opcode::add: return "add";
    case Opcode::sub: return "sub";
    case Opcode::mul: return "mul";
    case Opcode::divi: return "div";
    case Opcode::modi: return "mod";
    case Opcode::neg: return "neg";
    case Opcode::andi: return "and";
    case Opcode::ori: return "or";
    case Opcode::xori: return "xor";
    case Opcode::shl: return "shl";
    case Opcode::shr: return "shr";
    case Opcode::cmp: return "cmp";
    case Opcode::fadd: return "fadd";
    case Opcode::fsub: return "fsub";
    case Opcode::fmul: return "fmul";
    case Opcode::fdiv: return "fdiv";
    case Opcode::fneg: return "fneg";
    case Opcode::cvtif: return "cvtif";
    case Opcode::cvtfi: return "cvtfi";
    case Opcode::jmp: return "jmp";
    case Opcode::beq: return "beq";
    case Opcode::bne: return "bne";
    case Opcode::blt: return "blt";
    case Opcode::bge: return "bge";
    case Opcode::bgt: return "bgt";
    case Opcode::ble: return "ble";
    case Opcode::jmpi: return "jmpi";
    case Opcode::call: return "call";
    case Opcode::callr: return "callr";
    case Opcode::ret: return "ret";
    case Opcode::libcall: return "libcall";
    case Opcode::syscall: return "syscall";
    case Opcode::frame: return "frame";
    case Opcode::nop: return "nop";
  }
  return "unknown";
}

std::string_view libfn_name(LibFn fn) {
  switch (fn) {
    case LibFn::memmove: return "memmove";
    case LibFn::memcpy: return "memcpy";
    case LibFn::memset: return "memset";
    case LibFn::strlen: return "strlen";
    case LibFn::strcmp: return "strcmp";
    case LibFn::strcpy: return "strcpy";
    case LibFn::malloc: return "malloc";
    case LibFn::free: return "free";
    case LibFn::abs64: return "abs64";
    case LibFn::imin: return "imin";
    case LibFn::imax: return "imax";
    case LibFn::clamp: return "clamp";
    case LibFn::fsqrt: return "fsqrt";
    case LibFn::fpow: return "fpow";
    case LibFn::ffloor: return "ffloor";
    case LibFn::crc32: return "crc32";
    case LibFn::byte_swap: return "byte_swap";
    case LibFn::checked_add: return "checked_add";
    case LibFn::count: break;
  }
  return "unknown";
}

std::string_view sys_name(Sys sys) {
  switch (sys) {
    case Sys::sys_write: return "write";
    case Sys::sys_read: return "read";
    case Sys::sys_getpid: return "getpid";
    case Sys::sys_time: return "time";
    case Sys::sys_mmap: return "mmap";
    case Sys::sys_log: return "log";
    case Sys::count: break;
  }
  return "unknown";
}

namespace {

// Width in bytes of the smallest signed immediate encoding.
int imm_width(std::int64_t imm) {
  if (imm >= -128 && imm < 128) return 1;
  if (imm >= -32768 && imm < 32768) return 2;
  if (imm >= -(1LL << 31) && imm < (1LL << 31)) return 4;
  return 8;
}

}  // namespace

int encoded_size(const Instruction& inst, Arch arch) {
  switch (arch) {
    case Arch::arm32:
      // movw/movt pair for immediates beyond 16 bits.
      return imm_width(inst.imm) > 2 ? 8 : 4;
    case Arch::arm64:
      // Large immediates need a second move-wide instruction slot.
      return imm_width(inst.imm) > 2 ? 8 : 4;
    case Arch::x86:
    case Arch::amd64: {
      int size = 2;  // opcode + modrm
      if (arch == Arch::amd64) size += 1;  // REX-style prefix
      switch (inst.op) {
        case Opcode::ldi:
        case Opcode::ldstr:
        case Opcode::load:
        case Opcode::loadb:
        case Opcode::store:
        case Opcode::storeb:
        case Opcode::frame:
        case Opcode::libcall:
        case Opcode::syscall:
          size += imm_width(inst.imm);
          break;
        case Opcode::jmp:
        case Opcode::beq: case Opcode::bne: case Opcode::blt:
        case Opcode::bge: case Opcode::bgt: case Opcode::ble:
        case Opcode::call:
          size += 4;  // rel32 displacement
          break;
        default:
          break;
      }
      return size;
    }
  }
  return 4;
}

std::string to_string(const Instruction& inst) {
  std::ostringstream out;
  out << opcode_name(inst.op);
  auto reg_name = [](std::uint8_t r) -> std::string {
    if (r == reg::sp) return "sp";
    if (r == reg::fp) return "fp";
    if (r == reg::none) return "_";
    return "r" + std::to_string(static_cast<int>(r));
  };
  out << " d=" << reg_name(inst.dst) << " a=" << reg_name(inst.src1)
      << " b=" << reg_name(inst.src2);
  if (inst.imm != 0) out << " imm=" << inst.imm;
  if (inst.target >= 0) out << " ->" << inst.target;
  return out.str();
}

}  // namespace patchecko
