#include "compiler/compiler.h"

#include "compiler/lower.h"
#include "compiler/passes.h"
#include "compiler/regalloc.h"
#include "util/parallel.h"

namespace patchecko {

namespace {

// Stable per-function seed so Ofast scheduling is deterministic across runs.
std::uint64_t schedule_seed(const SourceFunction& fn, Arch arch) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : fn.name) h = (h ^ static_cast<std::uint8_t>(c)) * 1099511628211ULL;
  h ^= static_cast<std::uint64_t>(arch) << 32;
  return h;
}

}  // namespace

FunctionBinary compile_function(const SourceFunction& function,
                                std::size_t function_index, Arch arch,
                                OptLevel opt, std::uint64_t uid_base) {
  SourceFunction working = function;  // deep copy: unrolling mutates
  if (opt == OptLevel::O3 || opt == OptLevel::Ofast)
    unroll_constant_loops(working, /*max_trip=*/8);

  VCode vcode = lower_function(working);
  run_passes(vcode, arch, opt, schedule_seed(working, arch));

  FunctionBinary fn =
      allocate_and_emit(vcode, arch, opt, /*spill_all=*/opt == OptLevel::O0);
  fn.name = function.name;
  fn.id = static_cast<std::uint32_t>(function_index);
  fn.param_types = function.param_types;
  fn.source_uid = uid_base + function_index;
  return fn;
}

FunctionBinary compile_function(const SourceLibrary& library,
                                std::size_t function_index, Arch arch,
                                OptLevel opt, std::uint64_t uid_base) {
  return compile_function(library.functions.at(function_index),
                          function_index, arch, opt, uid_base);
}

LibraryBinary compile_library(const SourceLibrary& library, Arch arch,
                              OptLevel opt, std::uint64_t uid_base) {
  LibraryBinary out;
  out.name = library.name;
  out.arch = arch;
  out.opt = opt;
  out.strings = library.strings;
  out.functions.resize(library.functions.size());
  parallel_for(out.functions.size(), default_worker_threads(),
               [&](std::size_t i) {
                 out.functions[i] = compile_function(library.functions[i], i,
                                                     arch, opt, uid_base);
               });
  return out;
}

}  // namespace patchecko
