#include "obs/decision.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "obs/json.h"

namespace patchecko::obs {

namespace {

using json::append_all;
using json::append_double;
using json::append_string;

void append_stage(std::string& out, const StageRecord& stage) {
  out += "{\"threshold\":";
  append_double(out, stage.threshold);
  out += ",\"minkowski_p\":";
  append_double(out, stage.minkowski_p);
  append_all(out, ",\"total\":", stage.total, ",\"executed\":", stage.executed,
             ",\"prefilter\":", stage.prefilter, ",\"prefilter_shortlist\":",
             stage.prefilter_shortlist, ",\"candidates\":[");
  for (std::size_t i = 0; i < stage.candidates.size(); ++i) {
    const CandidateRecord& candidate = stage.candidates[i];
    if (i != 0) out += ',';
    append_all(out, "{\"function\":", candidate.function_index,
               ",\"dl_score\":");
    append_double(out, candidate.dl_score);
    append_all(out, ",\"validated\":", candidate.validated ? "true" : "false",
               ",\"crash_env\":", candidate.crash_env, ",\"env_distances\":[");
    for (std::size_t e = 0; e < candidate.env_distances.size(); ++e) {
      if (e != 0) out += ',';
      append_double(out, candidate.env_distances[e]);
    }
    out += "],\"distance\":";
    append_double(out, candidate.distance);
    append_all(out, ",\"rank\":", candidate.rank, '}');
  }
  out += "]}";
}

double number_or(const json::Value& value, double non_finite) {
  return value.is_null() ? non_finite : value.as_number();
}

CandidateRecord parse_candidate(const json::Value& value) {
  CandidateRecord candidate;
  candidate.function_index =
      static_cast<std::uint64_t>(value.get("function").as_number());
  candidate.dl_score = value.get("dl_score").as_number();
  candidate.validated = value.get("validated").as_bool();
  candidate.crash_env =
      static_cast<std::int64_t>(value.get("crash_env").as_number(-1.0));
  for (const json::Value& d : value.get("env_distances").as_array())
    candidate.env_distances.push_back(
        number_or(d, std::numeric_limits<double>::quiet_NaN()));
  candidate.distance = number_or(value.get("distance"),
                                 std::numeric_limits<double>::infinity());
  candidate.rank = static_cast<std::int64_t>(value.get("rank").as_number(-1.0));
  return candidate;
}

std::optional<StageRecord> parse_stage(const json::Value& value) {
  StageRecord stage;
  const double prefilter = value.get("prefilter").as_number(0.0);
  if (prefilter != 0.0 && prefilter != 1.0) return std::nullopt;
  stage.threshold = value.get("threshold").as_number();
  stage.minkowski_p = value.get("minkowski_p").as_number();
  stage.total = static_cast<std::uint64_t>(value.get("total").as_number());
  stage.executed =
      static_cast<std::uint64_t>(value.get("executed").as_number());
  stage.prefilter = static_cast<std::uint8_t>(prefilter);
  stage.prefilter_shortlist = static_cast<std::uint64_t>(
      value.get("prefilter_shortlist").as_number(0.0));
  for (const json::Value& candidate : value.get("candidates").as_array())
    stage.candidates.push_back(parse_candidate(candidate));
  return stage;
}

/// Short human-friendly number for explain output (provenance JSON keeps
/// the exact %.17g form).
std::string fmt_short(double value) {
  if (std::isnan(value)) return "n/a";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

void explain_stage(std::string& out, const char* query,
                   const StageRecord& stage) {
  out += "  query ";
  out += query;
  out += " (DL threshold " + fmt_short(stage.threshold) + ", Minkowski p=" +
         fmt_short(stage.minkowski_p) + "):\n";
  out += "    stage 1 scanned " + std::to_string(stage.total) + " functions, " +
         std::to_string(stage.candidates.size()) + " candidates; stage 2 executed " +
         std::to_string(stage.executed) + "\n";
  if (stage.prefilter != 0)
    out += "    prefilter on: shortlist kept " +
           std::to_string(stage.prefilter_shortlist) + " of " +
           std::to_string(stage.total) + " functions\n";
  for (const CandidateRecord& candidate : stage.candidates) {
    out += "    function " + std::to_string(candidate.function_index) +
           ": dl_score=" + fmt_short(candidate.dl_score);
    if (!candidate.validated) {
      out += candidate.crash_env >= 0
                 ? "  pruned: crashed in environment " +
                       std::to_string(candidate.crash_env)
                 : "  pruned: failed execution validation";
      out += '\n';
      continue;
    }
    out += "  env_distances=[";
    for (std::size_t e = 0; e < candidate.env_distances.size(); ++e) {
      if (e != 0) out += ", ";
      out += fmt_short(candidate.env_distances[e]);
    }
    out += "]  aggregate=" + fmt_short(candidate.distance);
    out += candidate.rank > 0 ? "  rank=" + std::to_string(candidate.rank)
                              : "  unranked";
    out += '\n';
  }
}

}  // namespace

std::string decision_jsonl_line(const DecisionRecord& record) {
  std::string out = "{\"type\":\"decision\",\"cve\":";
  append_string(out, record.cve_id);
  out += ",\"library\":";
  append_string(out, record.library);
  out += ",\"library_missing\":";
  out += record.library_missing ? "true" : "false";
  out += ",\"stalled\":";
  out += record.stalled ? "true" : "false";
  out += ",\"from_vulnerable\":";
  append_stage(out, record.from_vulnerable);
  out += ",\"from_patched\":";
  append_stage(out, record.from_patched);
  out += ",\"pool\":[";
  for (std::size_t i = 0; i < record.pool.size(); ++i) {
    const PatchCandidateRecord& member = record.pool[i];
    if (i != 0) out += ',';
    append_all(out, "{\"function\":", member.function_index,
               ",\"dist_vulnerable\":");
    append_double(out, member.distance_vulnerable);
    out += ",\"dist_patched\":";
    append_double(out, member.distance_patched);
    append_all(out, ",\"effects_vulnerable\":",
               member.effect_matches_vulnerable, ",\"effects_patched\":",
               member.effect_matches_patched,
               ",\"chosen\":", member.chosen ? "true}" : "false}");
  }
  out += "],\"matched_function\":";
  out += record.matched_function ? std::to_string(*record.matched_function)
                                 : "null";
  out += ",\"verdict\":";
  if (!record.has_verdict) {
    out += "null}";
    return out;
  }
  out += "{\"patched\":";
  out += record.verdict_patched ? "true" : "false";
  out += ",\"votes_vulnerable\":";
  append_double(out, record.votes_vulnerable);
  out += ",\"votes_patched\":";
  append_double(out, record.votes_patched);
  out += ",\"dyn_dist_vulnerable\":";
  append_double(out, record.dynamic_distance_vulnerable);
  out += ",\"dyn_dist_patched\":";
  append_double(out, record.dynamic_distance_patched);
  out += ",\"evidence\":[";
  for (std::size_t i = 0; i < record.evidence.size(); ++i) {
    if (i != 0) out += ',';
    append_string(out, record.evidence[i]);
  }
  out += "]}}";
  return out;
}

bool is_decision_line(std::string_view line) {
  const std::optional<json::Value> parsed = json::parse(line);
  return parsed && parsed->get("type").as_string() == "decision";
}

std::optional<DecisionRecord> parse_decision_line(std::string_view line) {
  const std::optional<json::Value> parsed = json::parse(line);
  if (!parsed || parsed->get("type").as_string() != "decision")
    return std::nullopt;
  DecisionRecord record;
  record.cve_id = parsed->get("cve").as_string();
  record.library = parsed->get("library").as_string();
  record.library_missing = parsed->get("library_missing").as_bool();
  record.stalled = parsed->get("stalled").as_bool();
  std::optional<StageRecord> from_vulnerable =
      parse_stage(parsed->get("from_vulnerable"));
  std::optional<StageRecord> from_patched =
      parse_stage(parsed->get("from_patched"));
  if (!from_vulnerable || !from_patched) return std::nullopt;
  record.from_vulnerable = std::move(*from_vulnerable);
  record.from_patched = std::move(*from_patched);
  for (const json::Value& member : parsed->get("pool").as_array()) {
    PatchCandidateRecord pool_member;
    pool_member.function_index =
        static_cast<std::uint64_t>(member.get("function").as_number());
    pool_member.distance_vulnerable =
        number_or(member.get("dist_vulnerable"),
                  std::numeric_limits<double>::infinity());
    pool_member.distance_patched =
        number_or(member.get("dist_patched"),
                  std::numeric_limits<double>::infinity());
    pool_member.effect_matches_vulnerable = static_cast<std::uint64_t>(
        member.get("effects_vulnerable").as_number());
    pool_member.effect_matches_patched =
        static_cast<std::uint64_t>(member.get("effects_patched").as_number());
    pool_member.chosen = member.get("chosen").as_bool();
    record.pool.push_back(pool_member);
  }
  const json::Value& matched = parsed->get("matched_function");
  if (!matched.is_null())
    record.matched_function = static_cast<std::uint64_t>(matched.as_number());
  const json::Value& verdict = parsed->get("verdict");
  if (!verdict.is_null()) {
    record.has_verdict = true;
    record.verdict_patched = verdict.get("patched").as_bool();
    record.votes_vulnerable = verdict.get("votes_vulnerable").as_number();
    record.votes_patched = verdict.get("votes_patched").as_number();
    record.dynamic_distance_vulnerable =
        number_or(verdict.get("dyn_dist_vulnerable"),
                  std::numeric_limits<double>::infinity());
    record.dynamic_distance_patched =
        number_or(verdict.get("dyn_dist_patched"),
                  std::numeric_limits<double>::infinity());
    for (const json::Value& note : verdict.get("evidence").as_array())
      record.evidence.push_back(note.as_string());
  }
  return record;
}

std::string explain_text(const DecisionRecord& record) {
  std::string out = record.cve_id + " in " + record.library + "\n";
  if (record.library_missing) {
    out += "  library not present in the firmware image\n";
    return out;
  }
  if (record.stalled)
    out += "  STALLED: cancelled by the watchdog hard deadline; partial "
           "record\n";
  explain_stage(out, "vulnerable", record.from_vulnerable);
  explain_stage(out, "patched", record.from_patched);
  out += "  differential pool (top candidates of both rankings):\n";
  if (record.pool.empty()) out += "    empty — no candidate survived\n";
  for (const PatchCandidateRecord& member : record.pool) {
    out += "    function " + std::to_string(member.function_index) +
           ": dist(vulnerable)=" + fmt_short(member.distance_vulnerable) +
           " dist(patched)=" + fmt_short(member.distance_patched) +
           " effect_matches=" +
           std::to_string(member.effect_matches_vulnerable) + ":" +
           std::to_string(member.effect_matches_patched);
    if (member.chosen) out += "  <= chosen";
    out += '\n';
  }
  if (!record.has_verdict) {
    out += "  verdict: none — no matched function\n";
    return out;
  }
  out += "  verdict: ";
  out += record.verdict_patched ? "PATCHED" : "VULNERABLE";
  if (record.matched_function)
    out += " (function " + std::to_string(*record.matched_function) + ")";
  out += "\n    votes: vulnerable=" + fmt_short(record.votes_vulnerable) +
         " patched=" + fmt_short(record.votes_patched) + "\n";
  out += "    dynamic distance: to vulnerable reference=" +
         fmt_short(record.dynamic_distance_vulnerable) +
         ", to patched reference=" +
         fmt_short(record.dynamic_distance_patched) + "\n";
  if (record.evidence.empty()) {
    out += "    evidence: none (indistinguishable sources default to patched)\n";
  } else {
    out += "    evidence:\n";
    for (const std::string& note : record.evidence)
      out += "      - " + note + "\n";
  }
  return out;
}

}  // namespace patchecko::obs
