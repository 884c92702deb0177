#include "util/cli_args.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace patchecko::cli {

long Args::get_long(const std::string& key, long fallback) const {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE)
    throw UsageError("--" + key + " expects an integer, got '" + it->second +
                     "'");
  return value;
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE)
    throw UsageError("--" + key + " expects a number, got '" + it->second +
                     "'");
  return value;
}

long Args::get_count(const std::string& key, long fallback) const {
  const long value = get_long(key, fallback);
  if (value <= 0)
    throw UsageError("--" + key + " must be >= 1, got " +
                     std::to_string(value));
  return value;
}

Args parse_args(const std::vector<std::string>& argv) {
  Args args;
  if (!argv.empty()) args.command = argv[0];
  for (std::size_t i = 1; i < argv.size(); ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0)
      throw UsageError("unexpected argument '" + key + "'");
    key = key.substr(2);
    if (key.empty()) throw UsageError("empty option name '--'");
    // `--key=value` binds in one token; an empty value (`--key=`) is kept
    // distinct from the value-less `--key` only in that both store "".
    if (const auto eq = key.find('='); eq != std::string::npos) {
      args.options[key.substr(0, eq)] = key.substr(eq + 1);
      if (key.substr(0, eq).empty())
        throw UsageError("empty option name '--='");
      continue;
    }
    // Value-less options (e.g. --no-cache) are stored as empty strings; a
    // following token starting with "--" begins the next option.
    if (i + 1 < argv.size() && argv[i + 1].rfind("--", 0) != 0)
      args.options[key] = argv[++i];
    else
      args.options[key] = "";
  }
  return args;
}

Args parse_args(int argc, char** argv) {
  std::vector<std::string> tokens;
  tokens.reserve(argc > 1 ? static_cast<std::size_t>(argc - 1) : 0);
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  return parse_args(tokens);
}

void require_known_options(const Args& args,
                           std::initializer_list<const char*> known) {
  for (const auto& [key, value] : args.options) {
    bool ok = false;
    for (const char* candidate : known) ok = ok || key == candidate;
    if (!ok)
      throw UsageError("unknown option '--" + key + "' for " + args.command);
  }
}

OutputSpec output_spec_from(const Args& args, const std::string& key,
                            bool value_required) {
  OutputSpec spec;
  if (!args.has(key)) return spec;
  spec.enabled = true;
  spec.file = args.get(key, "");
  // "-something" is almost certainly a mistyped flag, not an output path;
  // reject it now, before the scan runs for minutes and then fails to save.
  if (!spec.file.empty() && spec.file.front() == '-')
    throw UsageError("--" + key + " expects an output file path, got '" +
                     spec.file + "'" +
                     (value_required ? "" : " (use bare --" + key +
                                               " for stdout)"));
  if (value_required && spec.file.empty())
    throw UsageError("--" + key + " requires an output file path (--" + key +
                     "=FILE)");
  return spec;
}

MetricsSpec metrics_spec_from(const Args& args) {
  return output_spec_from(args, "metrics");
}

HeartbeatSpec heartbeat_spec_from(const Args& args, const std::string& key) {
  HeartbeatSpec spec;
  if (!args.has(key)) return spec;
  spec.enabled = true;
  std::string value = args.get(key, "");
  if (const auto colon = value.rfind(':'); colon != std::string::npos) {
    const std::string interval = value.substr(colon + 1);
    value = value.substr(0, colon);
    errno = 0;
    char* end = nullptr;
    const long ms = std::strtol(interval.c_str(), &end, 10);
    if (end == interval.c_str() || *end != '\0' || errno == ERANGE)
      throw UsageError("--" + key +
                       " interval expects an integer millisecond count, "
                       "got '" + interval + "'");
    if (ms <= 0)
      throw UsageError("--" + key + " interval must be >= 1 ms, got " +
                       std::to_string(ms));
    spec.interval_seconds = static_cast<double>(ms) / 1000.0;
  }
  spec.file = value;
  if (!spec.file.empty() && spec.file.front() == '-')
    throw UsageError("--" + key + " expects an output file path, got '" +
                     spec.file + "' (use bare --" + key + " for stderr)");
  return spec;
}

ProfileSpec profile_spec_from(const Args& args, const std::string& key) {
  ProfileSpec spec;
  if (!args.has(key)) return spec;
  spec.enabled = true;
  spec.file = args.get(key, "");
  if (!spec.file.empty() && spec.file.front() == '-')
    throw UsageError("--" + key + " expects an output file path, got '" +
                     spec.file + "' (use bare --" + key +
                     " for the top table only)");
  return spec;
}

std::string indexed_output_file(const std::string& file, std::uint64_t index) {
  const std::string tag = ".req" + std::to_string(index);
  // The extension starts at the last '.' inside the basename; a dot in a
  // parent directory ("out.d/ev") must not split the path.
  const auto slash = file.find_last_of('/');
  const auto dot = file.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash) || dot == 0 ||
      (slash != std::string::npos && dot == slash + 1))
    return file + tag;
  return file.substr(0, dot) + tag + file.substr(dot);
}

}  // namespace patchecko::cli
