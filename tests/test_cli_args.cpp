// Tests for CLI option parsing (src/util/cli_args): token syntax, strict
// numeric values, unknown-option rejection, and --metrics validation. The
// point of the extraction is that bad input fails up front — before any
// corpus or model work — so these tests pin the exact failure behavior.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/cli_args.h"

namespace patchecko {
namespace {

using cli::Args;
using cli::MetricsSpec;
using cli::UsageError;
using cli::metrics_spec_from;
using cli::parse_args;
using cli::require_known_options;

TEST(CliArgs, ParsesCommandAndOptionPairs) {
  const Args args = parse_args(
      {"batch-scan", "--model", "m.bin", "--jobs", "8", "--verbose"});
  EXPECT_EQ(args.command, "batch-scan");
  EXPECT_EQ(args.get("model", ""), "m.bin");
  EXPECT_EQ(args.get_count("jobs", 1), 8);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose", "x"), "");  // value-less option stores ""
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
}

TEST(CliArgs, SplitsKeyEqualsValueTokens) {
  const Args args =
      parse_args({"scan", "--metrics=out.json", "--scale=0.25", "--jobs=4"});
  EXPECT_EQ(args.get("metrics", ""), "out.json");
  EXPECT_EQ(args.get_double("scale", 1.0), 0.25);
  EXPECT_EQ(args.get_long("jobs", 1), 4);
  // `--key=` keeps an explicit empty value.
  EXPECT_EQ(parse_args({"scan", "--metrics="}).get("metrics", "x"), "");
}

TEST(CliArgs, OptionFollowedByOptionIsValueLess) {
  const Args args = parse_args({"scan", "--metrics", "--jobs", "2"});
  EXPECT_TRUE(args.has("metrics"));
  EXPECT_EQ(args.get("metrics", "x"), "");
  EXPECT_EQ(args.get_long("jobs", 1), 2);
}

TEST(CliArgs, RejectsMalformedTokens) {
  EXPECT_THROW(parse_args({"scan", "stray"}), UsageError);
  EXPECT_THROW(parse_args({"scan", "--"}), UsageError);
  EXPECT_THROW(parse_args({"scan", "--=value"}), UsageError);
}

TEST(CliArgs, NumericGettersAreStrict) {
  const Args args = parse_args(
      {"scan", "--jobs", "12x", "--scale", "abc", "--count", "0"});
  EXPECT_THROW(args.get_long("jobs", 1), UsageError);
  EXPECT_THROW(args.get_double("scale", 1.0), UsageError);
  EXPECT_THROW(args.get_count("count", 1), UsageError);  // must be >= 1
  EXPECT_THROW(parse_args({"s", "--jobs", "99999999999999999999"})
                   .get_long("jobs", 1),
               UsageError);  // overflow
}

TEST(CliArgs, RequireKnownOptionsRejectsTypos) {
  const Args ok = parse_args({"scan", "--jobs", "2", "--metrics"});
  EXPECT_NO_THROW(require_known_options(ok, {"jobs", "metrics"}));
  const Args typo = parse_args({"scan", "--jbos", "2"});
  EXPECT_THROW(require_known_options(typo, {"jobs", "metrics"}), UsageError);
}

TEST(CliArgs, MetricsSpecParsesAllForms) {
  const MetricsSpec absent = metrics_spec_from(parse_args({"scan"}));
  EXPECT_FALSE(absent.enabled);

  const MetricsSpec bare =
      metrics_spec_from(parse_args({"scan", "--metrics"}));
  EXPECT_TRUE(bare.enabled);
  EXPECT_TRUE(bare.file.empty());  // stdout

  const MetricsSpec to_file =
      metrics_spec_from(parse_args({"scan", "--metrics=out.json"}));
  EXPECT_TRUE(to_file.enabled);
  EXPECT_EQ(to_file.file, "out.json");

  const MetricsSpec spaced =
      metrics_spec_from(parse_args({"scan", "--metrics", "out.json"}));
  EXPECT_TRUE(spaced.enabled);
  EXPECT_EQ(spaced.file, "out.json");
}

TEST(CliArgs, MetricsSpecRejectsFlagLikeValues) {
  // "--metrics -out.json" is almost certainly a typo'd flag, not a path;
  // it must fail during upfront validation, not after the scan.
  EXPECT_THROW(metrics_spec_from(parse_args({"scan", "--metrics=-bogus"})),
               UsageError);
}

TEST(CliArgs, OutputSpecGeneralizesToOtherKeys) {
  const cli::OutputSpec absent =
      cli::output_spec_from(parse_args({"scan"}), "events");
  EXPECT_FALSE(absent.enabled);

  const cli::OutputSpec bare =
      cli::output_spec_from(parse_args({"scan", "--events"}), "events");
  EXPECT_TRUE(bare.enabled);
  EXPECT_TRUE(bare.file.empty());  // stdout

  const cli::OutputSpec to_file = cli::output_spec_from(
      parse_args({"scan", "--events=prov.jsonl"}), "events");
  EXPECT_EQ(to_file.file, "prov.jsonl");

  EXPECT_THROW(cli::output_spec_from(
                   parse_args({"scan", "--events=-bogus"}), "events"),
               UsageError);
}

TEST(CliArgs, HeartbeatSpecParsesEveryForm) {
  const cli::HeartbeatSpec absent =
      cli::heartbeat_spec_from(parse_args({"batch-scan"}));
  EXPECT_FALSE(absent.enabled);

  const cli::HeartbeatSpec bare =
      cli::heartbeat_spec_from(parse_args({"batch-scan", "--heartbeat"}));
  EXPECT_TRUE(bare.enabled);
  EXPECT_TRUE(bare.file.empty());  // stderr
  EXPECT_DOUBLE_EQ(bare.interval_seconds, 1.0);

  const cli::HeartbeatSpec to_file = cli::heartbeat_spec_from(
      parse_args({"batch-scan", "--heartbeat=hb.jsonl"}));
  EXPECT_EQ(to_file.file, "hb.jsonl");
  EXPECT_DOUBLE_EQ(to_file.interval_seconds, 1.0);

  const cli::HeartbeatSpec with_interval = cli::heartbeat_spec_from(
      parse_args({"batch-scan", "--heartbeat=hb.jsonl:250"}));
  EXPECT_EQ(with_interval.file, "hb.jsonl");
  EXPECT_DOUBLE_EQ(with_interval.interval_seconds, 0.25);

  // Interval only, stderr output; the split is at the LAST colon so paths
  // with colons in them still work.
  const cli::HeartbeatSpec interval_only = cli::heartbeat_spec_from(
      parse_args({"batch-scan", "--heartbeat=:500"}));
  EXPECT_TRUE(interval_only.file.empty());
  EXPECT_DOUBLE_EQ(interval_only.interval_seconds, 0.5);

  const cli::HeartbeatSpec colon_path = cli::heartbeat_spec_from(
      parse_args({"batch-scan", "--heartbeat=dir:1/hb.jsonl:100"}));
  EXPECT_EQ(colon_path.file, "dir:1/hb.jsonl");
  EXPECT_DOUBLE_EQ(colon_path.interval_seconds, 0.1);
}

TEST(CliArgs, HeartbeatSpecRejectsBadIntervals) {
  for (const char* bad :
       {"--heartbeat=hb.jsonl:0", "--heartbeat=hb.jsonl:-5",
        "--heartbeat=hb.jsonl:abc", "--heartbeat=hb.jsonl:12x",
        "--heartbeat=:0", "--heartbeat=-hb.jsonl"}) {
    EXPECT_THROW(cli::heartbeat_spec_from(parse_args({"batch-scan", bad})),
                 UsageError)
        << bad;
  }
}

TEST(CliArgs, ProfileSpecParsesEveryForm) {
  const cli::ProfileSpec absent = cli::profile_spec_from(parse_args({"scan"}));
  EXPECT_FALSE(absent.enabled);

  // Bare flag: top table only, no folded file.
  const cli::ProfileSpec bare =
      cli::profile_spec_from(parse_args({"scan", "--profile"}));
  EXPECT_TRUE(bare.enabled);
  EXPECT_TRUE(bare.file.empty());

  const cli::ProfileSpec to_file =
      cli::profile_spec_from(parse_args({"scan", "--profile=prof.folded"}));
  EXPECT_TRUE(to_file.enabled);
  EXPECT_EQ(to_file.file, "prof.folded");

  // The whole value is the path, colons included.
  const cli::ProfileSpec colon_path =
      cli::profile_spec_from(parse_args({"scan", "--profile=prof:v2.folded"}));
  EXPECT_EQ(colon_path.file, "prof:v2.folded");
  const cli::ProfileSpec colon_suffix =
      cli::profile_spec_from(parse_args({"scan", "--profile=prof.folded:500"}));
  EXPECT_EQ(colon_suffix.file, "prof.folded:500");
}

TEST(CliArgs, ProfileSpecRejectsFlagLikeFiles) {
  for (const char* bad : {"--profile=-p.folded", "--profile=--jobs"}) {
    EXPECT_THROW(cli::profile_spec_from(parse_args({"scan", bad})), UsageError)
        << bad;
  }
}

TEST(CliArgs, OutputSpecValueRequiredRejectsBareFlag) {
  // --trace-out has no stdout mode (a Chrome trace on stdout would tangle
  // with the report), so the bare flag is a usage error up front.
  EXPECT_THROW(cli::output_spec_from(parse_args({"scan", "--trace-out"}),
                                     "trace-out", /*value_required=*/true),
               UsageError);
  EXPECT_THROW(cli::output_spec_from(
                   parse_args({"scan", "--trace-out=-x.json"}), "trace-out",
                   /*value_required=*/true),
               UsageError);
  const cli::OutputSpec ok = cli::output_spec_from(
      parse_args({"scan", "--trace-out=trace.json"}), "trace-out",
      /*value_required=*/true);
  EXPECT_TRUE(ok.enabled);
  EXPECT_EQ(ok.file, "trace.json");
}

TEST(CliArgs, IndexedOutputFileInsertsBeforeExtension) {
  // The scan service derives per-request telemetry paths from the same
  // --events/--heartbeat specs the one-shot CLI validates.
  EXPECT_EQ(cli::indexed_output_file("ev.jsonl", 7), "ev.req7.jsonl");
  EXPECT_EQ(cli::indexed_output_file("out/ev.jsonl", 12), "out/ev.req12.jsonl");
  EXPECT_EQ(cli::indexed_output_file("a.b.c", 1), "a.b.req1.c");
}

TEST(CliArgs, IndexedOutputFileAppendsWhenNoUsableExtension) {
  EXPECT_EQ(cli::indexed_output_file("ev", 7), "ev.req7");
  // A dot in a parent directory is not an extension...
  EXPECT_EQ(cli::indexed_output_file("out.d/ev", 3), "out.d/ev.req3");
  // ...and neither is a leading dot (hidden files).
  EXPECT_EQ(cli::indexed_output_file(".hidden", 2), ".hidden.req2");
  EXPECT_EQ(cli::indexed_output_file("dir/.hidden", 2), "dir/.hidden.req2");
}

}  // namespace
}  // namespace patchecko
