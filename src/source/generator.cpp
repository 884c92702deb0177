#include "source/generator.h"

#include <algorithm>
#include <sstream>

namespace patchecko {

std::string_view archetype_name(Archetype a) {
  switch (a) {
    case Archetype::byte_transform: return "byte_transform";
    case Archetype::checksum: return "checksum";
    case Archetype::scanner: return "scanner";
    case Archetype::copy_shift: return "copy_shift";
    case Archetype::dispatcher: return "dispatcher";
    case Archetype::scalar_math: return "scalar_math";
    case Archetype::fp_kernel: return "fp_kernel";
    case Archetype::string_op: return "string_op";
    case Archetype::validator: return "validator";
    case Archetype::mixed: return "mixed";
    case Archetype::count: break;
  }
  return "unknown";
}

Archetype pick_archetype(Rng& rng) {
  // Buffer-processing shapes dominate, as in media/parser libraries.
  static const std::vector<double> weights{
      2.0,  // byte_transform
      1.6,  // checksum
      1.4,  // scanner
      1.2,  // copy_shift
      1.0,  // dispatcher
      1.6,  // scalar_math
      0.9,  // fp_kernel
      1.0,  // string_op
      1.2,  // validator
      1.1,  // mixed
  };
  return static_cast<Archetype>(rng.weighted_pick(weights));
}

namespace {

// Shared state while generating one function.
struct Ctx {
  Rng& rng;
  const GeneratorConfig& cfg;
  SourceFunction& fn;
  int function_index = 0;
  /// Earlier all-i64 functions. A reference: a library's list grows with
  /// every function, so a copy per function would be quadratic.
  const std::vector<CallableFn>& callables;
  int data_param = -1;          // ptr parameter, if any
  std::vector<int> int_params;  // i64 parameters
  int fp_param = -1;            // f64 parameter, if any
};

std::int64_t pick_mask(Rng& rng) {
  static const std::vector<std::int64_t> masks{15, 31, 63};
  return rng.pick(masks);
}

int add_local(Ctx& c, ValueType type) {
  c.fn.local_types.push_back(type);
  return static_cast<int>(c.fn.local_types.size()) - 1;
}

// Leaf of an integer expression: constant, parameter, or a visible local.
ExprPtr int_leaf(Ctx& c, const std::vector<int>& live_locals) {
  const double roll = c.rng.uniform01();
  if (roll < 0.40 || (c.int_params.empty() && live_locals.empty()))
    return make_int(c.rng.uniform(1, 64));
  if (roll < 0.75 && !c.int_params.empty())
    return make_param(c.rng.pick(c.int_params), ValueType::i64);
  if (!live_locals.empty())
    return make_local(c.rng.pick(live_locals), ValueType::i64);
  return make_int(c.rng.uniform(1, 255));
}

// Random integer arithmetic tree over the given leaves.
ExprPtr arith_expr(Ctx& c, const std::vector<int>& live_locals, int depth) {
  if (depth <= 0 || c.rng.chance(0.35)) return int_leaf(c, live_locals);
  static const std::vector<BinOp> ops{
      BinOp::add, BinOp::add, BinOp::sub, BinOp::mul,
      BinOp::band, BinOp::bor, BinOp::bxor, BinOp::shl, BinOp::shr};
  BinOp op = c.rng.pick(ops);
  ExprPtr lhs = arith_expr(c, live_locals, depth - 1);
  ExprPtr rhs;
  if (op == BinOp::shl || op == BinOp::shr) {
    rhs = make_int(c.rng.uniform(1, 7));  // keep shifts meaningful
  } else {
    rhs = arith_expr(c, live_locals, depth - 1);
  }
  // Occasionally divide by a nonzero constant (exercises div traps never).
  if (c.rng.chance(0.08))
    return make_bin(c.rng.chance(0.5) ? BinOp::divi : BinOp::modi,
                    std::move(lhs), make_int(c.rng.uniform(2, 9)));
  return make_bin(op, std::move(lhs), std::move(rhs));
}

// Comparison usable as an if/loop condition.
ExprPtr cond_expr(Ctx& c, const std::vector<int>& live_locals) {
  static const std::vector<BinOp> cmps{BinOp::lt, BinOp::le, BinOp::gt,
                                       BinOp::ge, BinOp::eq, BinOp::ne};
  ExprPtr lhs = arith_expr(c, live_locals, 1);
  ExprPtr rhs = c.rng.chance(0.6) ? make_int(c.rng.uniform(0, 200))
                                  : arith_expr(c, live_locals, 1);
  ExprPtr cmp = make_bin(c.rng.pick(cmps), std::move(lhs), std::move(rhs));
  if (c.rng.chance(0.18))
    return make_bin(c.rng.chance(0.5) ? BinOp::land : BinOp::lor,
                    std::move(cmp), cond_expr(c, live_locals));
  return cmp;
}

// `size & mask` loop bound expression (terminating by construction).
ExprPtr bounded_size(Ctx& c, std::int64_t mask) {
  if (c.int_params.empty()) return make_int(c.rng.uniform(4, mask));
  return make_bin(BinOp::band, make_param(c.int_params[0], ValueType::i64),
                  make_int(mask));
}

ExprPtr data_load(Ctx& c, ExprPtr index) {
  return make_load(make_param(c.data_param, ValueType::ptr), std::move(index),
                   /*byte_access=*/true);
}

StmtPtr data_store(Ctx& c, ExprPtr index, ExprPtr value) {
  return make_store(make_param(c.data_param, ValueType::ptr),
                    std::move(index), std::move(value), /*byte_access=*/true);
}

// Optional trailing log syscall; adds string refs + syscall features.
void maybe_syscall(Ctx& c, std::vector<StmtPtr>& body) {
  if (!c.rng.chance(0.22)) return;
  const int string_id = static_cast<int>(
      c.rng.uniform(0, c.cfg.string_count - 1));
  if (c.rng.chance(0.5)) {
    body.push_back(make_syscall(
        Sys::sys_log,
        make_libcall(LibFn::strlen, [&] {
          std::vector<ExprPtr> args;
          args.push_back(make_strref(string_id));
          return args;
        }(), ValueType::i64)));
  } else {
    body.push_back(make_syscall(Sys::sys_write, make_int(string_id)));
  }
}

// ---- archetype builders ---------------------------------------------------

void build_byte_transform(Ctx& c) {
  c.fn.param_types = {ValueType::ptr, ValueType::i64, ValueType::i64};
  c.data_param = 0;
  c.int_params = {1, 2};
  const int i = add_local(c, ValueType::i64);
  const int t = add_local(c, ValueType::i64);

  std::vector<StmtPtr> loop_body;
  loop_body.push_back(make_assign(t, data_load(c, make_local(i, ValueType::i64))));
  // Variable-size per-iteration work, mostly behind data-dependent guards.
  const int transform_steps = static_cast<int>(c.rng.uniform(1, 3));
  for (int step = 0; step < transform_steps; ++step) {
    if (c.rng.chance(c.cfg.embellish_prob)) {
      std::vector<StmtPtr> then_body;
      then_body.push_back(make_assign(t, arith_expr(c, {i, t}, 2)));
      std::vector<StmtPtr> else_body;
      if (c.rng.chance(0.5))
        else_body.push_back(make_assign(t, arith_expr(c, {i, t}, 1)));
      loop_body.push_back(make_if(cond_expr(c, {i, t}), std::move(then_body),
                                  std::move(else_body)));
    } else {
      loop_body.push_back(make_assign(t, arith_expr(c, {i, t}, 2)));
    }
  }
  loop_body.push_back(data_store(
      c, make_local(i, ValueType::i64),
      make_bin(BinOp::band, make_local(t, ValueType::i64), make_int(0xff))));

  std::vector<StmtPtr>& body = c.fn.body;
  body.push_back(make_for(i, make_int(0), bounded_size(c, pick_mask(c.rng)),
                          std::move(loop_body)));
  maybe_syscall(c, body);
  body.push_back(make_ret(arith_expr(c, {t}, 1)));
}

void build_checksum(Ctx& c) {
  c.fn.param_types = {ValueType::ptr, ValueType::i64};
  c.data_param = 0;
  c.int_params = {1};
  const int i = add_local(c, ValueType::i64);
  const int acc = add_local(c, ValueType::i64);

  std::vector<StmtPtr>& body = c.fn.body;
  body.push_back(make_assign(acc, make_int(c.rng.uniform(0, 0xffff))));
  std::vector<StmtPtr> loop_body;
  static const std::vector<BinOp> folds{BinOp::add, BinOp::bxor, BinOp::add,
                                        BinOp::sub};
  // One to three fold steps per iteration: structural diversity between
  // same-archetype siblings must exceed a one-line patch's trace delta.
  const int fold_steps = static_cast<int>(c.rng.uniform(1, 3));
  for (int step = 0; step < fold_steps; ++step) {
    ExprPtr folded = make_bin(
        c.rng.pick(folds),
        make_bin(c.rng.chance(0.5) ? BinOp::shl : BinOp::mul,
                 make_local(acc, ValueType::i64),
                 make_int(c.rng.uniform(1, 5))),
        step == 0 ? data_load(c, make_local(i, ValueType::i64))
                  : arith_expr(c, {acc, i}, 1));
    loop_body.push_back(make_assign(acc, std::move(folded)));
  }
  if (c.rng.chance(c.cfg.embellish_prob)) {
    // Data-dependent extra fold: distinguishes same-shape checksums by the
    // values they process, not just by instruction counts.
    std::vector<StmtPtr> extra;
    extra.push_back(make_assign(acc, arith_expr(c, {acc, i}, 1)));
    loop_body.push_back(make_if(
        make_bin(BinOp::eq,
                 make_bin(BinOp::band, data_load(c, make_local(i, ValueType::i64)),
                          make_int(c.rng.uniform(1, 7))),
                 make_int(0)),
        std::move(extra)));
  }
  body.push_back(make_for(i, make_int(0), bounded_size(c, pick_mask(c.rng)),
                          std::move(loop_body)));
  if (c.rng.chance(0.35)) {
    std::vector<ExprPtr> args;
    args.push_back(make_local(acc, ValueType::i64));
    body.push_back(make_assign(
        acc, make_libcall(c.rng.chance(0.5) ? LibFn::byte_swap : LibFn::abs64,
                          std::move(args), ValueType::i64)));
  }
  maybe_syscall(c, body);
  body.push_back(make_ret(make_local(acc, ValueType::i64)));
}

void build_scanner(Ctx& c) {
  c.fn.param_types = {ValueType::ptr, ValueType::i64, ValueType::i64};
  c.data_param = 0;
  c.int_params = {1, 2};
  const int i = add_local(c, ValueType::i64);

  ExprPtr needle = make_bin(BinOp::band, make_param(2, ValueType::i64),
                            make_int(0xff));
  std::vector<StmtPtr> found;
  found.push_back(make_ret(c.rng.chance(0.5)
                               ? make_local(i, ValueType::i64)
                               : arith_expr(c, {i}, 1)));
  std::vector<StmtPtr> loop_body;
  loop_body.push_back(make_if(
      make_bin(c.rng.chance(0.75) ? BinOp::eq : BinOp::gt,
               data_load(c, make_local(i, ValueType::i64)),
               std::move(needle)),
      std::move(found)));
  std::vector<StmtPtr>& body = c.fn.body;
  body.push_back(make_for(i, make_int(0), bounded_size(c, pick_mask(c.rng)),
                          std::move(loop_body)));
  body.push_back(make_ret(make_int(-1)));
}

// The removeUnsynchronization-style kernel (Figure 6): a compaction loop.
// With `with_memmove`, the body contains the vulnerable shifted memmove;
// otherwise it is already in the (patched) two-offset form.
void build_copy_shift(Ctx& c, bool with_memmove) {
  c.fn.param_types = {ValueType::ptr, ValueType::i64};
  c.data_param = 0;
  c.int_params = {1};
  const std::int64_t mask = pick_mask(c.rng);
  const std::int64_t marker1 = c.rng.uniform(1, 255);
  const std::int64_t marker2 = c.rng.uniform(0, 255);
  const int n = add_local(c, ValueType::i64);
  std::vector<StmtPtr>& body = c.fn.body;
  body.push_back(make_assign(n, bounded_size(c, mask)));

  auto match_cond = [&](ExprPtr idx_a, ExprPtr idx_b) {
    return make_bin(
        BinOp::land,
        make_bin(BinOp::eq, data_load(c, std::move(idx_a)),
                 make_int(marker1)),
        make_bin(BinOp::eq, data_load(c, std::move(idx_b)),
                 make_int(marker2)));
  };

  if (with_memmove) {
    // for (i = 0; i + 1 < n; ++i)
    //   if (data[i]==m1 && data[i+1]==m2) { memmove(&data[i+1], &data[i+2],
    //                                              n - i - 2); n = n - 1; }
    const int i = add_local(c, ValueType::i64);
    std::vector<StmtPtr> then_body;
    std::vector<ExprPtr> mm_args;
    mm_args.push_back(make_ptr_offset(
        make_param(0, ValueType::ptr),
        make_bin(BinOp::add, make_local(i, ValueType::i64), make_int(1))));
    mm_args.push_back(make_ptr_offset(
        make_param(0, ValueType::ptr),
        make_bin(BinOp::add, make_local(i, ValueType::i64), make_int(2))));
    mm_args.push_back(make_bin(
        BinOp::sub,
        make_bin(BinOp::sub, make_local(n, ValueType::i64),
                 make_local(i, ValueType::i64)),
        make_int(2)));
    then_body.push_back(make_expr_stmt(
        make_libcall(LibFn::memmove, std::move(mm_args), ValueType::ptr)));
    then_body.push_back(make_assign(
        n, make_bin(BinOp::sub, make_local(n, ValueType::i64), make_int(1))));

    std::vector<StmtPtr> loop_body;
    loop_body.push_back(make_if(
        match_cond(make_local(i, ValueType::i64),
                   make_bin(BinOp::add, make_local(i, ValueType::i64),
                            make_int(1))),
        std::move(then_body)));
    // Bound n-1 is re-derived up front; traces shrink when n shrinks, which
    // is exactly the behavioural tell the dynamic engine keys on.
    body.push_back(make_for(
        i, make_int(0),
        make_bin(BinOp::sub, make_local(n, ValueType::i64), make_int(1)),
        std::move(loop_body)));
    body.push_back(make_ret(make_local(n, ValueType::i64)));
  } else {
    // w = 1; for (r = 1; r < n; ++r) { if !(data[r-1]==m1 && data[r]==m2)
    //   { data[w] = data[r]; w = w + 1; } }  return w;
    const int w = add_local(c, ValueType::i64);
    const int r = add_local(c, ValueType::i64);
    body.push_back(make_assign(w, make_int(1)));
    std::vector<StmtPtr> copy_body;
    copy_body.push_back(data_store(c, make_local(w, ValueType::i64),
                                   data_load(c, make_local(r, ValueType::i64))));
    copy_body.push_back(make_assign(
        w, make_bin(BinOp::add, make_local(w, ValueType::i64), make_int(1))));
    std::vector<StmtPtr> loop_body;
    loop_body.push_back(make_if(
        make_un(UnOp::lnot,
                match_cond(make_bin(BinOp::sub, make_local(r, ValueType::i64),
                                    make_int(1)),
                           make_local(r, ValueType::i64))),
        std::move(copy_body)));
    body.push_back(make_for(r, make_int(1), make_local(n, ValueType::i64),
                            std::move(loop_body)));
    std::vector<StmtPtr> shrink;
    shrink.push_back(make_assign(n, make_local(w, ValueType::i64)));
    body.push_back(make_if(
        make_bin(BinOp::lt, make_local(w, ValueType::i64),
                 make_local(n, ValueType::i64)),
        std::move(shrink)));
    body.push_back(make_ret(make_local(n, ValueType::i64)));
  }
}

void build_dispatcher(Ctx& c) {
  c.fn.param_types = {ValueType::i64, ValueType::i64, ValueType::i64};
  c.int_params = {0, 1, 2};
  const int case_count = static_cast<int>(c.rng.uniform(3, 5));
  std::vector<std::vector<StmtPtr>> cases;
  for (int k = 0; k < case_count; ++k) {
    std::vector<StmtPtr> body;
    const double roll = c.rng.uniform01();
    if (roll < 0.35) {
      body.push_back(make_ret(arith_expr(c, {}, 2)));
    } else if (roll < 0.6) {
      static const std::vector<LibFn> fns{LibFn::imin, LibFn::imax,
                                          LibFn::abs64, LibFn::checked_add};
      std::vector<ExprPtr> args;
      args.push_back(make_param(1, ValueType::i64));
      args.push_back(make_param(2, ValueType::i64));
      body.push_back(make_ret(
          make_libcall(c.rng.pick(fns), std::move(args), ValueType::i64)));
    } else if (roll < 0.8 && !c.callables.empty()) {
      // Type- and arity-correct intra-library call: the callee's declared
      // parameter count is matched exactly.
      const CallableFn callee = c.rng.pick(c.callables);
      auto args_for = [&](int count) {
        std::vector<ExprPtr> args;
        for (int a = 0; a < count; ++a) {
          if (a < 2 && c.rng.chance(0.8))
            args.push_back(make_param(a + 1, ValueType::i64));
          else
            args.push_back(make_int(c.rng.uniform(0, 64)));
        }
        return args;
      };
      // Function-pointer (indirect) dispatch when a second callable of the
      // same arity exists: `(sel odd ? g : f)(args)` compiles to callr.
      const CallableFn* partner = nullptr;
      if (c.rng.chance(0.5)) {
        for (const CallableFn& other : c.callables)
          if (other.param_count == callee.param_count &&
              other.index != callee.index) {
            partner = &other;
            break;
          }
      }
      if (partner != nullptr) {
        body.push_back(make_ret(make_indirect_call(
            make_param(2, ValueType::i64), callee.index, partner->index,
            args_for(callee.param_count))));
      } else {
        body.push_back(make_ret(
            make_call(callee.index, args_for(callee.param_count))));
      }
    } else {
      maybe_syscall(c, body);
      body.push_back(make_ret(make_int(c.rng.uniform(-4, 16))));
    }
    cases.push_back(std::move(body));
  }
  c.fn.body.push_back(
      make_switch(make_param(0, ValueType::i64), std::move(cases)));
  c.fn.body.push_back(make_ret(make_int(0)));
}

void build_scalar_math(Ctx& c) {
  c.fn.param_types = {ValueType::i64, ValueType::i64, ValueType::i64};
  c.int_params = {0, 1, 2};
  const int t0 = add_local(c, ValueType::i64);
  const int t1 = add_local(c, ValueType::i64);
  std::vector<StmtPtr>& body = c.fn.body;
  body.push_back(make_assign(t0, arith_expr(c, {}, 3)));
  std::vector<StmtPtr> then_body;
  then_body.push_back(make_assign(t1, arith_expr(c, {t0}, 2)));
  std::vector<StmtPtr> else_body;
  {
    static const std::vector<LibFn> fns{LibFn::abs64, LibFn::clamp,
                                        LibFn::checked_add, LibFn::imax};
    const LibFn fn = c.rng.pick(fns);
    std::vector<ExprPtr> args;
    args.push_back(make_local(t0, ValueType::i64));
    args.push_back(make_param(1, ValueType::i64));
    if (fn == LibFn::clamp) args.push_back(make_int(c.rng.uniform(64, 512)));
    else_body.push_back(
        make_assign(t1, make_libcall(fn, std::move(args), ValueType::i64)));
  }
  body.push_back(
      make_if(cond_expr(c, {t0}), std::move(then_body), std::move(else_body)));
  if (c.rng.chance(c.cfg.embellish_prob)) {
    std::vector<StmtPtr> extra;
    extra.push_back(make_assign(t0, arith_expr(c, {t0, t1}, 2)));
    body.push_back(make_if(cond_expr(c, {t0, t1}), std::move(extra)));
  }
  body.push_back(make_ret(make_bin(BinOp::add, make_local(t0, ValueType::i64),
                                   make_local(t1, ValueType::i64))));
}

void build_fp_kernel(Ctx& c) {
  c.fn.param_types = {ValueType::ptr, ValueType::i64, ValueType::f64};
  c.data_param = 0;
  c.int_params = {1};
  c.fp_param = 2;
  const int i = add_local(c, ValueType::i64);
  const int acc = add_local(c, ValueType::f64);
  std::vector<StmtPtr>& body = c.fn.body;
  body.push_back(make_assign(acc, make_fp(c.rng.uniform_real(0.0, 4.0))));
  std::vector<StmtPtr> loop_body;
  ExprPtr sample = make_un(UnOp::to_f64,
                           data_load(c, make_local(i, ValueType::i64)));
  ExprPtr term = make_bin(c.rng.chance(0.7) ? BinOp::fmul : BinOp::fadd,
                          std::move(sample),
                          make_param(2, ValueType::f64));
  loop_body.push_back(make_assign(
      acc, make_bin(BinOp::fadd, make_local(acc, ValueType::f64),
                    std::move(term))));
  body.push_back(make_for(i, make_int(0), bounded_size(c, pick_mask(c.rng)),
                          std::move(loop_body)));
  if (c.rng.chance(0.5)) {
    std::vector<ExprPtr> args;
    args.push_back(make_local(acc, ValueType::f64));
    body.push_back(make_assign(
        acc, make_libcall(c.rng.chance(0.6) ? LibFn::fsqrt : LibFn::ffloor,
                          std::move(args), ValueType::f64)));
  }
  body.push_back(make_ret(make_un(UnOp::to_i64,
                                  make_bin(BinOp::fmul,
                                           make_local(acc, ValueType::f64),
                                           make_fp(16.0)))));
}

void build_string_op(Ctx& c) {
  c.fn.param_types = {ValueType::ptr, ValueType::i64};
  c.data_param = 0;
  c.int_params = {1};
  const int len = add_local(c, ValueType::i64);
  std::vector<StmtPtr>& body = c.fn.body;
  {
    std::vector<ExprPtr> args;
    args.push_back(make_param(0, ValueType::ptr));
    body.push_back(make_assign(
        len, make_libcall(LibFn::strlen, std::move(args), ValueType::i64)));
  }
  const int string_id = static_cast<int>(
      c.rng.uniform(0, c.cfg.string_count - 1));
  std::vector<StmtPtr> match;
  match.push_back(make_ret(make_int(c.rng.uniform(1, 8))));
  {
    std::vector<ExprPtr> args;
    args.push_back(make_param(0, ValueType::ptr));
    args.push_back(make_strref(string_id));
    body.push_back(make_if(
        make_bin(BinOp::eq,
                 make_libcall(LibFn::strcmp, std::move(args), ValueType::i64),
                 make_int(0)),
        std::move(match)));
  }
  if (c.rng.chance(c.cfg.embellish_prob)) {
    std::vector<StmtPtr> clip;
    clip.push_back(make_assign(
        len, make_bin(BinOp::band, make_local(len, ValueType::i64),
                      make_int(pick_mask(c.rng)))));
    body.push_back(make_if(
        make_bin(BinOp::gt, make_local(len, ValueType::i64),
                 make_int(c.rng.uniform(8, 48))),
        std::move(clip)));
  }
  body.push_back(make_ret(arith_expr(c, {len}, 1)));
}

void build_validator(Ctx& c) {
  c.fn.param_types = {ValueType::ptr, ValueType::i64, ValueType::i64};
  c.data_param = 0;
  c.int_params = {1, 2};
  std::vector<StmtPtr>& body = c.fn.body;
  auto reject = [&] {
    std::vector<StmtPtr> r;
    r.push_back(make_ret(make_int(0)));
    return r;
  };
  body.push_back(make_if(
      make_bin(BinOp::lt, make_param(1, ValueType::i64),
               make_int(c.rng.uniform(1, 4))),
      reject()));
  body.push_back(make_if(
      make_bin(BinOp::gt, make_param(1, ValueType::i64),
               c.rng.chance(0.5)
                   ? make_param(2, ValueType::i64)
                   : make_int(c.rng.uniform(64, 4096))),
      reject()));
  const std::int64_t magic = c.rng.uniform(0, 255);
  body.push_back(make_if(
      make_bin(BinOp::ne, data_load(c, make_int(0)), make_int(magic)),
      reject()));
  if (c.rng.chance(c.cfg.embellish_prob)) {
    body.push_back(make_if(
        make_bin(BinOp::ne,
                 make_bin(BinOp::band, data_load(c, make_int(1)),
                          make_int(c.rng.uniform(1, 15))),
                 make_int(0)),
        reject()));
  }
  maybe_syscall(c, body);
  body.push_back(make_ret(make_int(1)));
}

void build_mixed(Ctx& c) {
  c.fn.param_types = {ValueType::ptr, ValueType::i64, ValueType::i64};
  c.data_param = 0;
  c.int_params = {1, 2};
  const int i = add_local(c, ValueType::i64);
  const int j = add_local(c, ValueType::i64);
  const int acc = add_local(c, ValueType::i64);
  std::vector<StmtPtr>& body = c.fn.body;
  body.push_back(make_assign(acc, make_int(0)));

  std::vector<StmtPtr> inner_body;
  inner_body.push_back(make_assign(
      acc, make_bin(BinOp::add, make_local(acc, ValueType::i64),
                    arith_expr(c, {i, j}, 1))));
  std::vector<StmtPtr> guarded;
  guarded.push_back(make_for(j, make_int(0),
                             make_int(c.rng.uniform(2, 6)),
                             std::move(inner_body)));
  if (c.rng.chance(0.4)) {
    std::vector<ExprPtr> args;
    args.push_back(make_local(acc, ValueType::i64));
    args.push_back(make_int(0));
    args.push_back(make_int(c.rng.uniform(256, 1 << 16)));
    guarded.push_back(make_assign(
        acc, make_libcall(LibFn::clamp, std::move(args), ValueType::i64)));
  }
  std::vector<StmtPtr> loop_body;
  loop_body.push_back(make_if(
      make_bin(BinOp::eq,
               make_bin(BinOp::band,
                        data_load(c, make_local(i, ValueType::i64)),
                        make_int(c.rng.uniform(1, 7))),
               make_int(0)),
      std::move(guarded)));
  body.push_back(make_for(i, make_int(0), bounded_size(c, pick_mask(c.rng)),
                          std::move(loop_body)));
  body.push_back(make_ret(make_local(acc, ValueType::i64)));
}

}  // namespace

SourceFunction generate_function(Rng& rng, Archetype archetype,
                                 int function_index,
                                 const GeneratorConfig& config,
                                 const std::vector<CallableFn>& callables) {
  SourceFunction fn;
  Ctx c{rng, config, fn, function_index, callables, -1, {}, -1};
  switch (archetype) {
    case Archetype::byte_transform: build_byte_transform(c); break;
    case Archetype::checksum: build_checksum(c); break;
    case Archetype::scanner: build_scanner(c); break;
    case Archetype::copy_shift:
      build_copy_shift(c, /*with_memmove=*/rng.chance(0.5));
      break;
    case Archetype::dispatcher: build_dispatcher(c); break;
    case Archetype::scalar_math: build_scalar_math(c); break;
    case Archetype::fp_kernel: build_fp_kernel(c); break;
    case Archetype::string_op: build_string_op(c); break;
    case Archetype::validator: build_validator(c); break;
    case Archetype::mixed: build_mixed(c); break;
    case Archetype::count: build_scalar_math(c); break;
  }
  std::ostringstream name;
  name << "fn_" << function_index << "_" << archetype_name(archetype);
  fn.name = name.str();
  return fn;
}

SourceFunction generate_copy_shift(Rng& rng, int function_index,
                                   bool with_memmove,
                                   const GeneratorConfig& config) {
  SourceFunction fn;
  Ctx c{rng, config, fn, function_index, {}, -1, {}, -1};
  build_copy_shift(c, with_memmove);
  std::ostringstream name;
  name << "fn_" << function_index << "_copy_shift";
  fn.name = name.str();
  return fn;
}

SourceLibrary generate_library(const std::string& name, std::uint64_t seed,
                               std::size_t function_count,
                               const GeneratorConfig& config) {
  SourceLibrary library;
  library.name = name;
  Rng root(seed);
  for (int s = 0; s < config.string_count; ++s) {
    std::string text = "str_" + name + "_";
    const int len = static_cast<int>(root.uniform(3, 10));
    for (int i = 0; i < len; ++i)
      text.push_back(static_cast<char>('a' + root.uniform(0, 25)));
    library.strings.push_back(std::move(text));
  }
  library.functions.reserve(function_count);
  std::vector<CallableFn> callables;
  for (std::size_t i = 0; i < function_count; ++i) {
    Rng fn_rng = root.fork(i + 1);
    const Archetype archetype = pick_archetype(fn_rng);
    library.functions.push_back(generate_function(
        fn_rng, archetype, static_cast<int>(i), config, callables));
    // All-i64 signatures become callable by later dispatchers.
    const SourceFunction& fn = library.functions.back();
    const bool all_i64 =
        !fn.param_types.empty() &&
        std::all_of(fn.param_types.begin(), fn.param_types.end(),
                    [](ValueType t) { return t == ValueType::i64; });
    if (all_i64 && fn.param_types.size() <= 3)
      callables.push_back(
          {static_cast<int>(i), static_cast<int>(fn.param_types.size())});
  }
  return library;
}

}  // namespace patchecko
