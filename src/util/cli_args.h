// Command-line option parsing for the patchecko CLI.
//
// Extracted from tools/patchecko_cli.cpp so option semantics are unit-
// testable: every command validates its full option set (names *and*
// values) up front, before any expensive corpus/model work starts — a
// typo'd flag or malformed value must fail in milliseconds, not after a
// minute of database building.
//
// Syntax: `--key value`, `--key=value`, and value-less `--key` (a following
// token that starts with "--" begins the next option). Unknown options are
// rejected per command via require_known_options.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace patchecko::cli {

/// Bad command-line input; the CLI prints the message and exits with the
/// usage status.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::map<std::string, std::string> options;
  std::string command;

  bool has(const std::string& key) const {
    return options.find(key) != options.end();
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }

  /// Strict numeric parsing: "12x", "", overflow, and missing digits are
  /// errors instead of atol's silent 0/prefix fallback.
  long get_long(const std::string& key, long fallback) const;
  double get_double(const std::string& key, double fallback) const;

  /// A strictly positive integer (thread/job counts, sizes).
  long get_count(const std::string& key, long fallback) const;
};

/// `argv` is the raw token list after the program name: the command first,
/// then options.
Args parse_args(const std::vector<std::string>& argv);
Args parse_args(int argc, char** argv);

/// Reject options a command does not understand; a typo'd flag must not
/// silently fall back to defaults.
void require_known_options(const Args& args,
                           std::initializer_list<const char*> known);

/// Parsed `--KEY[=FILE]` output option: absent = disabled; bare `--KEY` =
/// enabled, written to stdout; `--KEY=FILE` = enabled, written to FILE.
struct OutputSpec {
  bool enabled = false;
  std::string file;  ///< empty = stdout
};

/// `--metrics[=FILE]` keeps its historical name at call sites.
using MetricsSpec = OutputSpec;

/// Validates an output option up front (with the other option checks):
/// values that look like a flag ("-...") are rejected before any work runs.
/// With `value_required`, bare `--KEY` is also an error (e.g. --trace-out
/// has no sensible stdout mode — the Chrome trace would interleave with the
/// report).
OutputSpec output_spec_from(const Args& args, const std::string& key,
                            bool value_required = false);

/// Validates `--metrics[=FILE]`; equivalent to output_spec_from("metrics").
MetricsSpec metrics_spec_from(const Args& args);

/// Parsed `--heartbeat[=FILE][:interval_ms]` option. Accepted value forms:
/// bare `--heartbeat` (stderr, default interval), `FILE`, `FILE:MS`, and
/// `:MS` (stderr at MS). The interval splits at the *last* ':'; once a ':'
/// is present the suffix must be a strictly positive integer millisecond
/// count — 0, negative, and non-numeric values are usage errors.
struct HeartbeatSpec {
  bool enabled = false;
  std::string file;               ///< empty = stderr
  double interval_seconds = 1.0;  ///< default 1000ms
};

HeartbeatSpec heartbeat_spec_from(const Args& args,
                                  const std::string& key = "heartbeat");

/// Parsed `--profile[=FILE]` option: bare `--profile` prints the top table
/// only; `FILE` (its whole value, colons included) also receives the folded
/// stacks.
struct ProfileSpec {
  bool enabled = false;
  std::string file;  ///< folded-stack output path; empty = not written
};

ProfileSpec profile_spec_from(const Args& args,
                              const std::string& key = "profile");

/// Derives a per-request output path from an OutputSpec/HeartbeatSpec file:
/// ".req<index>" is inserted before the extension ("ev.jsonl", 7 ->
/// "ev.req7.jsonl"; extension-less "ev" -> "ev.req7"). The scan service
/// uses this so `--events`/`--heartbeat` keep the exact one-shot CLI syntax
/// (and validation) while each admitted request gets its own file.
std::string indexed_output_file(const std::string& file, std::uint64_t index);

}  // namespace patchecko::cli
