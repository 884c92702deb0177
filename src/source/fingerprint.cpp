#include "source/fingerprint.h"

#include <algorithm>
#include <cstring>

namespace patchecko {

namespace {

// A multiply-xorshift chain over explicit field tags, one 64-bit word per
// step. Every absorbed word is mixed into the running hash, so field order
// matters and (a, b) never collides with (b, a) for swapped siblings. Both
// steps are bijective in the running hash. One multiply per word keeps the
// largest library's fingerprint a small part of a warm store load.
constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kMultiplier = 0xbf58476d1ce4e5b9ULL;

std::uint64_t mix(std::uint64_t hash, std::uint64_t word) {
  hash = (hash ^ word) * kMultiplier;
  return hash ^ (hash >> 31);
}

std::uint64_t mix_double(std::uint64_t hash, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return mix(hash, bits);
}

std::uint64_t mix_string(std::uint64_t hash, const std::string& text) {
  hash = mix(hash, text.size());
  for (std::size_t at = 0; at < text.size(); at += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, text.data() + at,
                std::min<std::size_t>(8, text.size() - at));
    hash = mix(hash, word);
  }
  return hash;
}

std::uint64_t absorb_expr(std::uint64_t hash, const Expr& expr) {
  hash = mix(hash, static_cast<std::uint64_t>(expr.kind));
  hash = mix(hash, static_cast<std::uint64_t>(expr.type));
  hash = mix(hash, static_cast<std::uint64_t>(expr.int_value));
  hash = mix_double(hash, expr.fp_value);
  hash = mix(hash, static_cast<std::uint64_t>(expr.bin_op));
  hash = mix(hash, static_cast<std::uint64_t>(expr.un_op));
  hash = mix(hash, static_cast<std::uint64_t>(expr.lib_fn));
  hash = mix(hash, static_cast<std::uint64_t>(expr.callee));
  hash = mix(hash, expr.byte_access ? 1 : 0);
  hash = mix(hash, expr.args.size());
  for (const ExprPtr& arg : expr.args) hash = absorb_expr(hash, *arg);
  return hash;
}

std::uint64_t absorb_opt_expr(std::uint64_t hash, const ExprPtr& expr) {
  hash = mix(hash, expr ? 1 : 0);
  return expr ? absorb_expr(hash, *expr) : hash;
}

std::uint64_t absorb_stmt(std::uint64_t hash, const Stmt& stmt);

std::uint64_t absorb_body(std::uint64_t hash,
                          const std::vector<StmtPtr>& body) {
  hash = mix(hash, body.size());
  for (const StmtPtr& stmt : body) hash = absorb_stmt(hash, *stmt);
  return hash;
}

std::uint64_t absorb_stmt(std::uint64_t hash, const Stmt& stmt) {
  hash = mix(hash, static_cast<std::uint64_t>(stmt.kind));
  hash = mix(hash, static_cast<std::uint64_t>(stmt.local_index));
  hash = absorb_opt_expr(hash, stmt.expr);
  hash = absorb_opt_expr(hash, stmt.base);
  hash = absorb_opt_expr(hash, stmt.index);
  hash = absorb_opt_expr(hash, stmt.value);
  hash = absorb_opt_expr(hash, stmt.init);
  hash = absorb_opt_expr(hash, stmt.bound);
  hash = mix(hash, static_cast<std::uint64_t>(stmt.step_value));
  hash = mix(hash, stmt.byte_access ? 1 : 0);
  hash = mix(hash, static_cast<std::uint64_t>(stmt.sys));
  hash = absorb_body(hash, stmt.then_body);
  hash = absorb_body(hash, stmt.else_body);
  hash = mix(hash, stmt.cases.size());
  for (const auto& body : stmt.cases) hash = absorb_body(hash, body);
  return hash;
}

std::uint64_t absorb_function(std::uint64_t hash,
                              const SourceFunction& function) {
  hash = mix_string(hash, function.name);
  hash = mix(hash, function.param_types.size());
  for (const ValueType type : function.param_types)
    hash = mix(hash, static_cast<std::uint64_t>(type));
  hash = mix(hash, function.local_types.size());
  for (const ValueType type : function.local_types)
    hash = mix(hash, static_cast<std::uint64_t>(type));
  return absorb_body(hash, function.body);
}

}  // namespace

std::uint64_t fingerprint_expr(const Expr& expr) {
  return absorb_expr(kOffset, expr);
}

std::uint64_t fingerprint_stmt(const Stmt& stmt) {
  return absorb_stmt(kOffset, stmt);
}

std::uint64_t fingerprint_function(const SourceFunction& function) {
  return absorb_function(kOffset, function);
}

std::uint64_t fingerprint_library(const SourceLibrary& library) {
  std::uint64_t hash = kOffset;
  hash = mix_string(hash, library.name);
  hash = mix(hash, library.functions.size());
  for (const SourceFunction& function : library.functions)
    hash = absorb_function(hash, function);
  hash = mix(hash, library.strings.size());
  for (const std::string& text : library.strings)
    hash = mix_string(hash, text);
  return hash;
}

}  // namespace patchecko
