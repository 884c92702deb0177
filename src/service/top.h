// `patchecko top` rendering: a deterministic text dashboard over one
// `stats` response.
//
// Rendering is a pure function of the parsed stats JSON — no wall clock, no
// terminal queries — so `top --once` output is scriptable and the CI smoke
// can assert on exact lines. Quantiles are derived from the rollup latency
// buckets (upper-bound semantics: pNN reports the smallest bucket bound
// whose cumulative count covers the quantile; the overflow bucket reports
// the observed window maximum).
#pragma once

#include <string>

#include "obs/json.h"

namespace patchecko::service {

/// Structural check run before rendering: the payload must be a stats
/// response with its load-bearing blocks present and well-typed (type tag,
/// schema_version, corpus/queue objects, rollup with bounds + endpoint
/// table). Returns false with *error naming the first missing piece — the
/// CLI exits non-zero on that instead of painting a dashboard of zeros
/// from a truncated or mis-addressed response. Optional extras (process
/// RSS, profile block) stay optional: older daemons must still validate.
bool validate_stats(const obs::json::Value& stats, std::string* error);

/// Renders the dashboard (trailing newline included). `stats` is the parsed
/// `{"type":"stats",...}` response; missing *optional* fields render as
/// zeros/dashes rather than failing, so a newer client degrades gracefully
/// against an older daemon (run validate_stats first for the hard shape
/// check).
std::string render_top(const obs::json::Value& stats);

}  // namespace patchecko::service
