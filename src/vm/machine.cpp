#include "vm/machine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "isa/runtime_scalar.h"
#include "obs/metrics.h"

namespace patchecko {

std::array<double, DynamicFeatures::count> DynamicFeatures::to_array() const {
  return {
      static_cast<double>(binary_fun_calls),
      min_stack_depth,
      max_stack_depth,
      avg_stack_depth,
      std_stack_depth,
      static_cast<double>(instructions),
      static_cast<double>(unique_instructions),
      static_cast<double>(call_instructions),
      static_cast<double>(arith_instructions),
      static_cast<double>(branch_instructions),
      static_cast<double>(load_instructions),
      static_cast<double>(store_instructions),
      static_cast<double>(max_branch_frequency),
      static_cast<double>(max_arith_frequency),
      static_cast<double>(mem_heap),
      static_cast<double>(mem_stack),
      static_cast<double>(mem_lib),
      static_cast<double>(mem_anon),
      static_cast<double>(mem_others),
      static_cast<double>(library_calls),
      static_cast<double>(syscalls),
  };
}

std::vector<double> DynamicFeatures::to_vector() const {
  const auto arr = to_array();
  return {arr.begin(), arr.end()};
}

std::string_view DynamicFeatures::name(std::size_t index) {
  static constexpr std::array<std::string_view, DynamicFeatures::count> names{
      "binary_defined_fun_call_num", "min_stack_depth", "max_stack_depth",
      "avg_stack_depth", "std_stack_depth", "instruction_num",
      "unique_instruction_num", "call_instruction_num",
      "arithmetic_instruction_num", "branch_instruction_num",
      "load_instruction_num", "store_instruction_num",
      "max_branch_frequency", "max_arith_frequency", "mem_heap_access",
      "mem_stack_access", "mem_lib_access", "mem_anon_access",
      "mem_others_access", "library_call_num", "syscall_num"};
  return index < names.size() ? names[index] : "unknown";
}

namespace {

struct Trap {
  ExecStatus status;
};

enum class RegionKind : std::uint8_t { lib, anon, heap, stack };

struct MemObject {
  std::int64_t base = 0;
  std::int64_t size = 0;
  std::uint8_t* bytes = nullptr;  ///< `size` bytes of backing store
  bool writable = true;
  RegionKind kind = RegionKind::anon;
};

constexpr std::int64_t lib_base = 0x10000000;
constexpr std::int64_t heap_base = 0x50000000;
constexpr std::int64_t anon_base = 0x60000000;
constexpr std::int64_t stack_base = 0x70000000;

/// Table II instruction classes of each opcode, precomputed from the isa
/// predicates so finalize_features does one table load per executed site.
enum OpClass : std::uint8_t {
  op_arith = 1,
  op_branch = 2,
  op_load = 4,
  op_store = 8,
  op_call = 16,  ///< call/callr: binary-defined calls
  op_libcall = 32,
  op_syscall = 64,
};

const std::array<std::uint8_t, 256> op_classes = [] {
  std::array<std::uint8_t, 256> classes{};
  for (int i = 0; i <= static_cast<int>(Opcode::nop); ++i) {
    const auto op = static_cast<Opcode>(i);
    classes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
        (is_arith(op) ? op_arith : 0) | (is_branch(op) ? op_branch : 0) |
        (is_load(op) ? op_load : 0) | (is_store(op) ? op_store : 0) |
        (is_call(op) ? op_call : 0) |
        (op == Opcode::libcall ? op_libcall : 0) |
        (op == Opcode::syscall ? op_syscall : 0));
  }
  return classes;
}();

/// The object of `objects` containing `addr`, or null. Each region's objects
/// are laid out at strictly ascending bases without overlap, so at most one
/// matches and a binary search finds it.
const MemObject* find_object(const std::vector<MemObject>& objects,
                             std::int64_t addr) {
  if (objects.empty() || addr < objects.front().base ||
      addr >= objects.back().base + objects.back().size)
    return nullptr;
  const auto above = std::upper_bound(
      objects.begin(), objects.end(), addr,
      [](std::int64_t a, const MemObject& object) { return a < object.base; });
  const MemObject& object = *std::prev(above);
  return addr < object.base + object.size ? &object : nullptr;
}

}  // namespace

/// String pool: one read-only object per string, NUL included, each at a
/// 64-byte-aligned base.
struct StringPool {
  std::vector<std::uint8_t> bytes;
  std::vector<MemObject> objects;

  explicit StringPool(const std::vector<std::string>& strings) {
    std::size_t total = 0;
    for (const std::string& s : strings) total += s.size() + 1;
    bytes.reserve(total);  // never reallocates below: objects point into it
    std::int64_t cursor = lib_base;
    for (const std::string& s : strings) {
      const auto size = static_cast<std::int64_t>(s.size()) + 1;
      objects.push_back({cursor, size, bytes.data() + bytes.size(), false,
                         RegionKind::lib});
      bytes.insert(bytes.end(), s.begin(), s.end());
      bytes.push_back(0);
      cursor += size + 63;
      cursor &= ~std::int64_t{63};
    }
  }
};

namespace {

/// One thread's memory image and execution state. run() resets it for the
/// next (function, environment) pair instead of rebuilding it, so buffers
/// keep their capacity across runs and a warm run allocates only its result.
class Execution {
 public:
  RunResult run(const LibraryBinary& library, const MachineConfig& config,
                const StringPool& strings, std::size_t function_index,
                const CallEnv& env) {
    reset(library, config, strings, env);
    RunResult result;
    try {
      setup_entry(function_index, env);
      result.ret = execute();
      result.status = ExecStatus::ok;
    } catch (const Trap& trap) {
      result.status = trap.status;
    }
    result.steps = steps_;
    result.features = finalize_features();
    // Return mutated environment buffers (index-aligned with env.buffers).
    result.buffers_after.reserve(anon_.size());
    for (const MemObject& object : anon_)
      result.buffers_after.emplace_back(object.bytes,
                                        object.bytes + object.size);
    // Heap chunks never outlive their run, so an idle thread holds none.
    heap_.clear();
    heap_chunks_.clear();
    return result;
  }

 private:
  // --- reset -----------------------------------------------------------------

  void reset(const LibraryBinary& library, const MachineConfig& config,
             const StringPool& strings, const CallEnv& env) {
    library_ = &library;
    config_ = &config;
    strings_ = &strings;

    // Stack: zero the range the last run wrote, so the whole stack reads
    // zero again, then size it for this config.
    std::fill(stack_bytes_.begin() +
                  static_cast<std::ptrdiff_t>(stack_dirty_from_),
              stack_bytes_.end(), 0);
    stack_bytes_.resize(static_cast<std::size_t>(config.stack_size));
    stack_dirty_from_ = stack_bytes_.size();
    stack_ = {stack_base, config.stack_size, stack_bytes_.data(), true,
              RegionKind::stack};

    // Environment buffers: anonymous mappings with guard gaps.
    anon_.clear();
    if (anon_bytes_.size() < env.buffers.size())
      anon_bytes_.resize(env.buffers.size());
    std::int64_t cursor = anon_base;
    for (std::size_t i = 0; i < env.buffers.size(); ++i) {
      anon_bytes_[i].assign(env.buffers[i].begin(), env.buffers[i].end());
      const auto size = static_cast<std::int64_t>(env.buffers[i].size());
      anon_.push_back(
          {cursor, size, anon_bytes_[i].data(), true, RegionKind::anon});
      cursor += size + 4095;
      cursor &= ~std::int64_t{4095};
      if (size == 0) cursor += 4096;
    }
    const auto reaches_stack = [](const std::vector<MemObject>& objects) {
      return !objects.empty() &&
             objects.back().base + objects.back().size > stack_base;
    };
    stack_first_ = !reaches_stack(strings.objects) && !reaches_stack(anon_);

    // Already empty unless the last run threw something other than a Trap.
    heap_.clear();
    heap_chunks_.clear();
    heap_cursor_ = heap_base;
    if (staging_.capacity() > 4096) std::vector<std::uint8_t>().swap(staging_);

    frames_.clear();
    regs_.clear();
    reg_count_ = static_cast<std::size_t>(register_count(library.arch));

    for (const std::size_t fn : executed_) site_offset_[fn] = 0;
    executed_.clear();
    site_hits_.clear();
    if (site_offset_.size() < library.functions.size())
      site_offset_.resize(library.functions.size(), 0);

    steps_ = 0;
    accesses_ = {};
    depth_min_ = std::numeric_limits<std::uint64_t>::max();
    depth_max_ = depth_sum_ = depth_sq_sum_ = 0;
  }

  // --- memory ----------------------------------------------------------------

  /// The object holding `addr`. Checks the regions in the order the objects
  /// were mapped (strings, buffers, stack, heap), so an address that lies
  /// in two regions resolves to the same object a first-match scan over all
  /// objects in mapping order would return. When no string or buffer
  /// reaches the stack (`stack_first_`), a stack address can match nothing
  /// earlier, so the stack is tested first.
  const MemObject& object_at(std::int64_t addr) const {
    const bool in_stack = static_cast<std::uint64_t>(addr) -
                              static_cast<std::uint64_t>(stack_base) <
                          static_cast<std::uint64_t>(stack_.size);
    if (stack_first_ && in_stack) return stack_;
    if (const MemObject* object = find_object(strings_->objects, addr))
      return *object;
    if (const MemObject* object = find_object(anon_, addr)) return *object;
    if (in_stack) return stack_;
    if (const MemObject* object = find_object(heap_, addr)) return *object;
    throw Trap{ExecStatus::trap_oob};
  }

  void count_access(RegionKind kind, std::uint64_t n = 1) {
    accesses_[static_cast<std::size_t>(kind)] += n;
  }

  /// Records a write at `addr` so the next reset zeroes it.
  void note_write(const MemObject& object, std::int64_t addr) {
    if (object.kind == RegionKind::stack)
      stack_dirty_from_ = std::min(
          stack_dirty_from_, static_cast<std::size_t>(addr - object.base));
  }

  std::uint8_t read_byte(std::int64_t addr) {
    const MemObject& object = object_at(addr);
    count_access(object.kind);
    return object.bytes[addr - object.base];
  }

  void write_byte(std::int64_t addr, std::uint8_t byte) {
    const MemObject& object = object_at(addr);
    if (!object.writable) throw Trap{ExecStatus::trap_oob};
    count_access(object.kind);
    note_write(object, addr);
    object.bytes[addr - object.base] = byte;
  }

  std::int64_t read_word(std::int64_t addr) {
    const MemObject& object = object_at(addr);
    if (addr + 8 > object.base + object.size)
      throw Trap{ExecStatus::trap_oob};
    count_access(object.kind);
    std::uint64_t word = 0;
    const std::uint8_t* bytes = object.bytes + (addr - object.base);
    for (int b = 0; b < 8; ++b)
      word |= static_cast<std::uint64_t>(bytes[b]) << (8 * b);
    return static_cast<std::int64_t>(word);
  }

  void write_word(std::int64_t addr, std::int64_t value) {
    const MemObject& object = object_at(addr);
    if (!object.writable) throw Trap{ExecStatus::trap_oob};
    if (addr + 8 > object.base + object.size)
      throw Trap{ExecStatus::trap_oob};
    count_access(object.kind);
    note_write(object, addr);
    std::uint8_t* bytes = object.bytes + (addr - object.base);
    for (int b = 0; b < 8; ++b)
      bytes[b] = static_cast<std::uint8_t>(
          (static_cast<std::uint64_t>(value) >> (8 * b)) & 0xff);
  }

  // --- execution state --------------------------------------------------------

  struct Frame {
    std::size_t fn = 0;
    std::int64_t saved_sp = 0;
    std::int64_t saved_fp = 0;
    std::int64_t ret_pc = 0;
    std::size_t regs = 0;   ///< offset of this frame's registers in regs_
    std::size_t sites = 0;  ///< offset of fn's site counters in site_hits_
  };

  /// Pushes a frame for `fn` with zeroed registers.
  Frame& push_frame(std::size_t fn) {
    Frame frame;
    frame.fn = fn;
    frame.regs = regs_.size();
    regs_.resize(regs_.size() + reg_count_, 0);
    frame.sites = sites_of(fn);
    frames_.push_back(frame);
    return frames_.back();
  }

  void setup_entry(std::size_t function_index, const CallEnv& env) {
    if (function_index >= library_->functions.size())
      throw Trap{ExecStatus::trap_type};
    std::int64_t args[4] = {};
    for (std::size_t i = 0; i < env.args.size() && i < 4; ++i)
      args[i] = arg_value(env.args[i]);
    const Frame& frame = push_frame(function_index);
    std::copy_n(args, 4,
                regs_.begin() + static_cast<std::ptrdiff_t>(frame.regs));
  }

  std::int64_t arg_value(const Value& value) {
    switch (value.type) {
      case ValueType::i64:
        return value.i;
      case ValueType::f64:
        return std::bit_cast<std::int64_t>(value.f);
      case ValueType::ptr: {
        if (value.buffer <= -2) {
          const int sid = -2 - value.buffer;
          if (sid < 0 ||
              static_cast<std::size_t>(sid) >= strings_->objects.size())
            throw Trap{ExecStatus::trap_type};
          return strings_->objects[static_cast<std::size_t>(sid)].base +
                 value.offset;
        }
        if (value.buffer < 0 ||
            static_cast<std::size_t>(value.buffer) >= anon_.size())
          throw Trap{ExecStatus::trap_type};
        return anon_[static_cast<std::size_t>(value.buffer)].base +
               value.offset;
      }
    }
    throw Trap{ExecStatus::trap_type};
  }

  // --- feature bookkeeping ----------------------------------------------------

  /// Offset of `fn`'s per-site hit counters, allocated (zeroed) on first use
  /// in this run.
  std::size_t sites_of(std::size_t fn) {
    if (site_offset_[fn] == 0) {
      site_offset_[fn] = site_hits_.size() + 1;
      site_hits_.resize(site_hits_.size() + library_->functions[fn].code.size(),
                        0);
      executed_.push_back(fn);
    }
    return site_offset_[fn] - 1;
  }

  /// Adds `steps` depth samples of `depth`, the counted instructions of
  /// one frame segment. Depth changes only at a call, a return or the end
  /// of the run, so the segments cover every counted instruction. The
  /// paper's traces bottom out at 2 (debugger + target frame), which our
  /// single entry frame reproduces as frames+1.
  void add_depth_segment(std::uint64_t steps) {
    if (steps == 0) return;
    const std::uint64_t depth = frames_.size() + 1;
    depth_min_ = std::min(depth_min_, depth);
    depth_max_ = std::max(depth_max_, depth);
    depth_sum_ += steps * depth;
    depth_sq_sum_ += steps * depth * depth;
  }

  /// Derives the Table II counters from the per-site hits. A site holds
  /// exactly one opcode, so its hits count that opcode's classes, and a
  /// site's count is its branch or arithmetic frequency. Costs one pass
  /// over the code of the functions this run executed.
  DynamicFeatures finalize_features() const {
    DynamicFeatures f;
    for (const std::size_t fn : executed_) {
      const std::vector<Instruction>& code = library_->functions[fn].code;
      const std::uint64_t* hits = site_hits_.data() + site_offset_[fn] - 1;
      for (std::size_t pc = 0; pc < code.size(); ++pc) {
        const std::uint64_t h = hits[pc];
        if (h == 0) continue;
        ++f.unique_instructions;
        f.instructions += h;
        const std::uint8_t classes =
            op_classes[static_cast<std::uint8_t>(code[pc].op)];
        if (classes & op_arith) {
          f.arith_instructions += h;
          f.max_arith_frequency = std::max(f.max_arith_frequency, h);
        }
        if (classes & op_branch) {
          f.branch_instructions += h;
          f.max_branch_frequency = std::max(f.max_branch_frequency, h);
        }
        if (classes & op_load) f.load_instructions += h;
        if (classes & op_store) f.store_instructions += h;
        if (classes & op_call) f.binary_fun_calls += h;
        if (classes & op_libcall) f.library_calls += h;
        if (classes & op_syscall) f.syscalls += h;
      }
    }
    f.call_instructions = f.binary_fun_calls + f.library_calls + f.syscalls;
    f.mem_lib = accesses_[static_cast<std::size_t>(RegionKind::lib)];
    f.mem_anon = accesses_[static_cast<std::size_t>(RegionKind::anon)];
    f.mem_heap = accesses_[static_cast<std::size_t>(RegionKind::heap)];
    f.mem_stack = accesses_[static_cast<std::size_t>(RegionKind::stack)];

    // One depth sample per counted instruction. Integer sums, converted
    // once here. At the default limits (depth <= 66, 2^20 steps) both stay
    // below 2^53, where a running double sum is exact too.
    const std::uint64_t samples = f.instructions;
    if (samples == 0) return f;
    f.min_stack_depth = static_cast<double>(depth_min_);
    f.max_stack_depth = static_cast<double>(depth_max_);
    const double mean =
        static_cast<double>(depth_sum_) / static_cast<double>(samples);
    f.avg_stack_depth = mean;
    const double var =
        static_cast<double>(depth_sq_sum_) / static_cast<double>(samples) -
        mean * mean;
    f.std_stack_depth = var > 0.0 ? std::sqrt(var) : 0.0;
    return f;
  }

  // --- runtime library ----------------------------------------------------------

  std::int64_t strlen_at(std::int64_t addr) {
    const MemObject& object = object_at(addr);
    std::int64_t n = 0;
    std::int64_t off = addr - object.base;
    while (off < object.size && object.bytes[off] != 0) {
      ++n;
      ++off;
    }
    count_access(object.kind, static_cast<std::uint64_t>(n) + 1);
    return n;
  }

  /// memmove semantics: every source byte is read before any is written.
  void mem_copy(std::int64_t dst, std::int64_t src, std::int64_t n) {
    if (n < 0) throw Trap{ExecStatus::trap_oob};
    staging_.clear();
    for (std::int64_t i = 0; i < n; ++i) staging_.push_back(read_byte(src + i));
    for (std::int64_t i = 0; i < n; ++i)
      write_byte(dst + i, staging_[static_cast<std::size_t>(i)]);
  }

  std::int64_t run_libcall(const std::int64_t* regs, LibFn fn) {
    auto arg = [&](std::size_t i) { return regs[i]; };
    auto farg = [&](std::size_t i) { return std::bit_cast<double>(arg(i)); };
    auto fret = [](double v) { return std::bit_cast<std::int64_t>(v); };
    switch (fn) {
      case LibFn::memmove:
      case LibFn::memcpy:
        mem_copy(arg(0), arg(1), arg(2));
        return arg(0);
      case LibFn::memset: {
        const std::int64_t n = arg(2);
        if (n < 0) throw Trap{ExecStatus::trap_oob};
        const MemObject& object = object_at(arg(0));
        if (!object.writable) throw Trap{ExecStatus::trap_oob};
        if (arg(0) + n > object.base + object.size)
          throw Trap{ExecStatus::trap_oob};
        count_access(object.kind, static_cast<std::uint64_t>(n));
        note_write(object, arg(0));
        std::fill_n(object.bytes + (arg(0) - object.base), n,
                    static_cast<std::uint8_t>(arg(1) & 0xff));
        return arg(0);
      }
      case LibFn::strlen:
        return strlen_at(arg(0));
      case LibFn::strcmp: {
        const std::int64_t la = strlen_at(arg(0));
        const std::int64_t lb = strlen_at(arg(1));
        const std::int64_t n = rt::imin(la, lb);
        for (std::int64_t i = 0; i < n; ++i) {
          const int ca = read_byte(arg(0) + i);
          const int cb = read_byte(arg(1) + i);
          if (ca != cb) return ca < cb ? -1 : 1;
        }
        if (la == lb) return 0;
        return la < lb ? -1 : 1;
      }
      case LibFn::strcpy: {
        const std::int64_t n = strlen_at(arg(1));
        mem_copy(arg(0), arg(1), n + 1);
        return arg(0);
      }
      case LibFn::malloc: {
        const std::int64_t n = rt::clamp64(arg(0), 0, 1 << 16);
        // Chunks own separate buffers, so earlier chunks' bytes pointers
        // survive heap_chunks_ growing.
        heap_chunks_.emplace_back(static_cast<std::size_t>(n), 0);
        const std::int64_t base = heap_cursor_;
        heap_.push_back({base, n, heap_chunks_.back().data(), true,
                         RegionKind::heap});
        heap_cursor_ += n + 63;
        heap_cursor_ &= ~std::int64_t{63};
        if (n == 0) heap_cursor_ += 64;
        return base;
      }
      case LibFn::free:
        return 0;
      case LibFn::abs64: return rt::abs64(arg(0));
      case LibFn::imin: return rt::imin(arg(0), arg(1));
      case LibFn::imax: return rt::imax(arg(0), arg(1));
      case LibFn::clamp: return rt::clamp64(arg(0), arg(1), arg(2));
      case LibFn::fsqrt: return fret(rt::fsqrt(farg(0)));
      case LibFn::fpow: return fret(rt::fpow(farg(0), farg(1)));
      case LibFn::ffloor: return fret(rt::ffloor(farg(0)));
      case LibFn::crc32: {
        std::uint32_t crc = 0xffffffffu;
        const std::int64_t n = arg(1);
        for (std::int64_t i = 0; i < n; ++i)
          crc = rt::crc32_step(crc, read_byte(arg(0) + i));
        return static_cast<std::int64_t>(crc ^ 0xffffffffu);
      }
      case LibFn::byte_swap:
        return static_cast<std::int64_t>(
            rt::byte_swap(static_cast<std::uint64_t>(arg(0))));
      case LibFn::checked_add:
        return rt::checked_add(arg(0), arg(1));
      case LibFn::count:
        break;
    }
    throw Trap{ExecStatus::trap_type};
  }

  std::int64_t run_syscall(Sys sys) {
    switch (sys) {
      case Sys::sys_write: return 0;
      case Sys::sys_read: return 0;
      case Sys::sys_getpid: return 4242;
      case Sys::sys_time: return 0;  // fixed clock: determinism first
      case Sys::sys_mmap: return 0;
      case Sys::sys_log: return 0;
      case Sys::count: break;
    }
    throw Trap{ExecStatus::trap_type};
  }

  // --- main loop --------------------------------------------------------------

  /// Runs the entry frame to its return. The current frame's code, site
  /// counters, registers and pc live in locals that only a call or a return
  /// refreshes. A trap closes the open depth segment on its way out.
  std::int64_t execute() {
    const std::uint64_t step_limit = config_->step_limit;
    const int max_call_depth = config_->max_call_depth;
    const std::size_t reg_count = reg_count_;
    std::int64_t sp = stack_base + config_->stack_size;
    std::int64_t fp = sp;
    std::uint64_t steps = 0;          // counted instructions
    std::uint64_t segment_start = 0;  // `steps` when the depth last changed
    const auto close_segment = [&] {
      add_depth_segment(steps - segment_start);
      segment_start = steps;
    };

    const FunctionBinary* function = nullptr;
    const Instruction* code = nullptr;
    std::uint64_t code_size = 0;
    std::uint64_t* hits = nullptr;
    std::int64_t* regs = nullptr;
    std::int64_t pc = 0;
    const auto enter_top_frame = [&] {
      const Frame& frame = frames_.back();
      function = &library_->functions[frame.fn];
      code = function->code.data();
      code_size = function->code.size();
      hits = site_hits_.data() + frame.sites;
      regs = regs_.data() + frame.regs;
    };
    const auto rd = [&](std::uint8_t index) -> std::int64_t {
      if (index < reg_count) return regs[index];
      if (index == reg::sp) return sp;
      if (index == reg::fp) return fp;
      throw Trap{ExecStatus::trap_type};
    };
    const auto wr = [&](std::uint8_t index, std::int64_t value) {
      if (index >= reg_count) throw Trap{ExecStatus::trap_type};
      regs[index] = value;
    };

    enter_top_frame();
    try {
      while (true) {
        if (static_cast<std::uint64_t>(pc) >= code_size)
          throw Trap{ExecStatus::trap_type};  // fell past the function end
        if (steps == step_limit) break;      // this step is not counted
        ++steps;
        ++hits[pc];
        const Instruction& inst = code[pc];
        ++pc;

        switch (inst.op) {
          case Opcode::nop:
            break;
          case Opcode::mov:
            wr(inst.dst, rd(inst.src1));
            break;
          case Opcode::ldi:
            wr(inst.dst, inst.imm);
            break;
          case Opcode::ldstr: {
            const auto sid = static_cast<std::size_t>(inst.imm);
            if (sid >= strings_->objects.size())
              throw Trap{ExecStatus::trap_type};
            wr(inst.dst, strings_->objects[sid].base);
            break;
          }
          case Opcode::load:
            wr(inst.dst, read_word(rd(inst.src1) + inst.imm));
            break;
          case Opcode::loadb:
            wr(inst.dst, read_byte(rd(inst.src1) + inst.imm));
            break;
          case Opcode::store:
            write_word(rd(inst.src1) + inst.imm, rd(inst.src2));
            break;
          case Opcode::storeb:
            write_byte(rd(inst.src1) + inst.imm,
                       static_cast<std::uint8_t>(rd(inst.src2) & 0xff));
            break;
          case Opcode::push:
            sp -= 8;
            write_word(sp, rd(inst.src1));
            break;
          case Opcode::pop:
            wr(inst.dst, read_word(sp));
            sp += 8;
            break;
          case Opcode::add:
            wr(inst.dst, rt::wrap_add(rd(inst.src1), rd(inst.src2)));
            break;
          case Opcode::sub:
            wr(inst.dst, rt::wrap_sub(rd(inst.src1), rd(inst.src2)));
            break;
          case Opcode::mul:
            wr(inst.dst, rt::wrap_mul(rd(inst.src1), rd(inst.src2)));
            break;
          case Opcode::divi: {
            const std::int64_t a = rd(inst.src1);
            const std::int64_t b = rd(inst.src2);
            if (b == 0) throw Trap{ExecStatus::trap_div_zero};
            if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
              wr(inst.dst, a);
            else
              wr(inst.dst, a / b);
            break;
          }
          case Opcode::modi: {
            const std::int64_t a = rd(inst.src1);
            const std::int64_t b = rd(inst.src2);
            if (b == 0) throw Trap{ExecStatus::trap_div_zero};
            if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
              wr(inst.dst, 0);
            else
              wr(inst.dst, a % b);
            break;
          }
          case Opcode::neg:
            wr(inst.dst, rt::wrap_sub(0, rd(inst.src1)));
            break;
          case Opcode::andi:
            wr(inst.dst, rd(inst.src1) & rd(inst.src2));
            break;
          case Opcode::ori:
            wr(inst.dst, rd(inst.src1) | rd(inst.src2));
            break;
          case Opcode::xori:
            wr(inst.dst, rd(inst.src1) ^ rd(inst.src2));
            break;
          case Opcode::shl:
            wr(inst.dst, rt::wrap_shl(rd(inst.src1), rd(inst.src2)));
            break;
          case Opcode::shr:
            wr(inst.dst, rt::wrap_shr(rd(inst.src1), rd(inst.src2)));
            break;
          case Opcode::cmp: {
            const std::int64_t a = rd(inst.src1);
            const std::int64_t b = rd(inst.src2);
            std::int64_t c;
            if (inst.imm != 0) {  // fp-compare flag (see lower.cpp)
              const double fa = std::bit_cast<double>(a);
              const double fb = std::bit_cast<double>(b);
              c = fa < fb ? -1 : (fa > fb ? 1 : 0);
            } else {
              c = a < b ? -1 : (a > b ? 1 : 0);
            }
            wr(inst.dst, c);
            break;
          }
          case Opcode::fadd:
          case Opcode::fsub:
          case Opcode::fmul:
          case Opcode::fdiv: {
            const double a = std::bit_cast<double>(rd(inst.src1));
            const double b = std::bit_cast<double>(rd(inst.src2));
            double r = 0.0;
            switch (inst.op) {
              case Opcode::fadd: r = a + b; break;
              case Opcode::fsub: r = a - b; break;
              case Opcode::fmul: r = a * b; break;
              case Opcode::fdiv: r = b == 0.0 ? 0.0 : a / b; break;
              default: break;
            }
            wr(inst.dst, std::bit_cast<std::int64_t>(r));
            break;
          }
          case Opcode::fneg:
            wr(inst.dst, std::bit_cast<std::int64_t>(
                             -std::bit_cast<double>(rd(inst.src1))));
            break;
          case Opcode::cvtif:
            wr(inst.dst, std::bit_cast<std::int64_t>(
                             static_cast<double>(rd(inst.src1))));
            break;
          case Opcode::cvtfi: {
            const double v = std::bit_cast<double>(rd(inst.src1));
            std::int64_t r = 0;
            if (v >= -9.0e18 && v <= 9.0e18) r = static_cast<std::int64_t>(v);
            wr(inst.dst, r);
            break;
          }
          case Opcode::jmp:
            pc = inst.target;
            break;
          case Opcode::beq: case Opcode::bne: case Opcode::blt:
          case Opcode::bge: case Opcode::bgt: case Opcode::ble: {
            const std::int64_t c = rd(inst.src1);
            bool taken = false;
            switch (inst.op) {
              case Opcode::beq: taken = c == 0; break;
              case Opcode::bne: taken = c != 0; break;
              case Opcode::blt: taken = c < 0; break;
              case Opcode::bge: taken = c >= 0; break;
              case Opcode::bgt: taken = c > 0; break;
              case Opcode::ble: taken = c <= 0; break;
              default: break;
            }
            if (taken) pc = inst.target;
            break;
          }
          case Opcode::jmpi: {
            const auto table_id = static_cast<std::size_t>(inst.imm);
            if (table_id >= function->jump_tables.size())
              throw Trap{ExecStatus::trap_type};
            const auto& table = function->jump_tables[table_id];
            const std::int64_t idx = rd(inst.src1);
            if (idx < 0 || idx >= static_cast<std::int64_t>(table.size()))
              throw Trap{ExecStatus::trap_type};
            pc = table[static_cast<std::size_t>(idx)];
            break;
          }
          case Opcode::frame:
            sp -= inst.imm;
            fp = sp;
            break;
          case Opcode::call:
          case Opcode::callr: {
            const std::int64_t callee =
                inst.op == Opcode::call ? inst.imm : rd(inst.src1);
            if (callee < 0 ||
                callee >= static_cast<std::int64_t>(
                              library_->functions.size()))
              throw Trap{ExecStatus::trap_type};
            if (static_cast<int>(frames_.size()) > max_call_depth)
              throw Trap{ExecStatus::trap_step_limit};
            close_segment();
            const std::size_t caller_regs = frames_.back().regs;
            Frame& callee_frame = push_frame(static_cast<std::size_t>(callee));
            callee_frame.saved_sp = sp;
            callee_frame.saved_fp = fp;
            callee_frame.ret_pc = pc;
            std::copy_n(regs_.data() + caller_regs, 4,
                        regs_.data() + callee_frame.regs);
            enter_top_frame();
            pc = 0;
            break;
          }
          case Opcode::libcall:
            regs[0] = run_libcall(regs, static_cast<LibFn>(inst.imm));
            break;
          case Opcode::syscall:
            regs[0] = run_syscall(static_cast<Sys>(inst.imm));
            break;
          case Opcode::ret: {
            const std::int64_t value = regs[0];
            close_segment();
            if (frames_.size() == 1) {
              steps_ = steps;
              return value;
            }
            const Frame& frame = frames_.back();
            sp = frame.saved_sp;
            fp = frame.saved_fp;
            pc = frame.ret_pc;
            regs_.resize(frame.regs);
            frames_.pop_back();
            enter_top_frame();
            regs[0] = value;
            break;
          }
        }
      }
    } catch (const Trap&) {
      close_segment();
      steps_ = steps;
      throw;
    }
    close_segment();
    steps_ = steps + 1;  // the step that overran the limit
    throw Trap{ExecStatus::trap_step_limit};
  }

  const LibraryBinary* library_ = nullptr;
  const MachineConfig* config_ = nullptr;
  const StringPool* strings_ = nullptr;

  // Memory image. The stack stays all-zero between runs except for
  // [stack_dirty_from_, size), the range the current run has written.
  std::vector<std::uint8_t> stack_bytes_;
  std::size_t stack_dirty_from_ = 0;
  MemObject stack_;
  std::vector<std::vector<std::uint8_t>> anon_bytes_;  ///< per env buffer
  std::vector<MemObject> anon_;
  std::vector<std::vector<std::uint8_t>> heap_chunks_;
  std::vector<MemObject> heap_;
  std::int64_t heap_cursor_ = heap_base;
  std::vector<std::uint8_t> staging_;  ///< mem_copy's read-before-write copy
  bool stack_first_ = false;  ///< no string or buffer reaches the stack

  // Call stack: frame registers are concatenated in regs_.
  std::vector<Frame> frames_;
  std::vector<std::int64_t> regs_;
  std::size_t reg_count_ = 0;

  // Features. site_offset_[fn] is 1 + the offset of fn's counters in
  // site_hits_, or 0 when fn has not executed in this run.
  std::uint64_t steps_ = 0;
  std::array<std::uint64_t, 4> accesses_{};  ///< by RegionKind
  std::vector<std::uint64_t> site_hits_;
  std::vector<std::size_t> site_offset_;
  std::vector<std::size_t> executed_;  ///< functions with site counters
  std::uint64_t depth_min_ = 0, depth_max_ = 0, depth_sum_ = 0,
                depth_sq_sum_ = 0;
};

}  // namespace

Machine::Machine(const LibraryBinary& library, MachineConfig config)
    : library_(&library),
      config_(config),
      strings_(std::make_shared<const StringPool>(library.strings)) {}

RunResult Machine::run(std::size_t function_index, const CallEnv& env) const {
  thread_local Execution execution;
  RunResult result =
      execution.run(*library_, config_, *strings_, function_index, env);
  // Published per run, not per instruction: one relaxed add amortized over
  // thousands of interpreted steps keeps the interpreter loop untouched.
  static obs::Counter& runs = obs::Registry::global().counter("vm.runs");
  static obs::Counter& instructions =
      obs::Registry::global().counter("vm.instructions");
  static obs::Counter& traps = obs::Registry::global().counter("vm.traps");
  runs.add();
  instructions.add(result.steps);
  if (result.status != ExecStatus::ok) traps.add();
  return result;
}

}  // namespace patchecko
