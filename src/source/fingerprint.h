// Deterministic structural fingerprints of MiniC ASTs.
//
// The prebuilt-corpus store (src/corpus) keys artifacts by the *source* that
// produced them, not by the generator parameters alone: a generator change
// that alters even one emitted statement must miss the cache, while a pure
// refactor that reproduces identical ASTs keeps every entry warm. The
// fingerprint is a 64-bit structural hash over every node kind, operator,
// constant, type and string of a library — order-sensitive and
// collision-resistant enough for cache addressing (the store additionally
// folds the fingerprint into a 128-bit key digest).
//
// The result is a plain 64-bit word, not a blob/blob_store.h Digest; callers
// absorb it into whatever wider digest they maintain.
#pragma once

#include <cstdint>

#include "source/ast.h"

namespace patchecko {

std::uint64_t fingerprint_expr(const Expr& expr);
std::uint64_t fingerprint_stmt(const Stmt& stmt);
std::uint64_t fingerprint_function(const SourceFunction& function);
std::uint64_t fingerprint_library(const SourceLibrary& library);

}  // namespace patchecko
