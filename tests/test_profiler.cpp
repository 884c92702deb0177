// Tests for the span profiler (src/obs/profiler): trie aggregation of scope
// entries, exact self time charged at span boundaries against a ManualClock
// (nested spans, parked threads, open intervals at report/stop, exiting
// threads), allocation attribution to the innermost scope, capture
// lifecycle (start/stop guard, reset, pre-existing-scope absorption),
// deterministic folded/top renderings, and the acceptance contract — an
// engine scan's entries-folded export is byte-identical across --jobs,
// canonical report output is unchanged by profiling, and a real-clock
// capture's job roots fit inside the scan's wall time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dl/trainer.h"
#include "engine/engine.h"
#include "firmware/firmware.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace patchecko {
namespace {

using obs::EnabledScope;
using obs::FoldMetric;
using obs::ManualClock;
using obs::ProfileNode;
using obs::Profiler;
using obs::ProfileReport;
using obs::ScopedSpan;
using obs::Tracer;

Profiler::Config manual_config(const ManualClock& clock) {
  Profiler::Config config;
  config.clock = &clock;
  return config;
}

const ProfileNode* find_child(const ProfileNode& node,
                              const std::string& name) {
  for (const ProfileNode& child : node.children)
    if (child.name == name) return &child;
  return nullptr;
}

double inclusive_seconds(const ProfileNode& node) {
  double total = node.self_seconds;
  for (const ProfileNode& child : node.children)
    total += inclusive_seconds(child);
  return total;
}

TEST(Profiler, StartWhileRunningIsRefused) {
  EnabledScope on(true);
  ManualClock clock;
  Profiler& profiler = Profiler::global();
  ASSERT_TRUE(profiler.start(manual_config(clock)));
  EXPECT_TRUE(profiler.running());
  EXPECT_FALSE(profiler.start(manual_config(clock)));  // daemon maps to 409
  EXPECT_TRUE(profiler.running());  // refused start didn't clobber anything
  profiler.stop();
  EXPECT_FALSE(profiler.running());
  ASSERT_TRUE(profiler.start(manual_config(clock)));
  profiler.stop();
}

TEST(Profiler, EntriesAggregateIntoTrie) {
  EnabledScope on(true);
  Tracer tracer;
  ManualClock clock(10.0);
  Profiler& profiler = Profiler::global();
  ASSERT_TRUE(profiler.start(manual_config(clock)));
  for (int i = 0; i < 3; ++i) {
    ScopedSpan outer("p.outer", tracer);
    { ScopedSpan inner("p.inner", tracer); }
    { ScopedSpan inner("p.inner", tracer); }
  }
  clock.advance(2.5);
  const ProfileReport report = profiler.stop();

  EXPECT_DOUBLE_EQ(report.duration_seconds, 2.5);
  EXPECT_EQ(report.truncated, 0u);
  const ProfileNode* outer = find_child(report.root, "p.outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->entries, 3u);
  const ProfileNode* inner = find_child(*outer, "p.inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->entries, 6u);
  EXPECT_EQ(obs::folded_stacks(report, FoldMetric::entries),
            "p.outer 3\np.outer;p.inner 6\n");
}

TEST(Profiler, NestedSpansGetExactSelfAndInclusiveTime) {
  EnabledScope on(true);
  Tracer tracer;
  ManualClock clock(100.0);
  Profiler& profiler = Profiler::global();
  ASSERT_TRUE(profiler.start(manual_config(clock)));
  clock.advance(4.0);  // inside no span: not charged
  {
    ScopedSpan outer("s.outer", tracer);
    clock.advance(0.5);
    {
      ScopedSpan inner("s.inner", tracer);
      clock.advance(2.0);
    }
    clock.advance(0.25);
  }
  clock.advance(1.0);  // inside no span again
  const ProfileReport report = profiler.stop();

  EXPECT_EQ(report.duration_seconds, 7.75);
  const ProfileNode* outer = find_child(report.root, "s.outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->self_seconds, 0.75);
  const ProfileNode* inner = find_child(*outer, "s.inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->self_seconds, 2.0);
  EXPECT_EQ(report.root.self_seconds, 0.0);
  EXPECT_EQ(obs::folded_stacks(report),
            "s.outer 750000\ns.outer;s.inner 2000000\n");
  EXPECT_EQ(inclusive_seconds(*outer), 2.75);
  EXPECT_EQ(obs::summarize_profile(report).self_seconds, 2.75);
  const std::string table = obs::profile_top_table(report);
  EXPECT_NE(table.find("  0.750000   2.750000 "), std::string::npos) << table;
}

// The determinism acceptance at the primitive level: K threads parked
// inside the same scope path while the clock advances T read exactly K·T on
// the leaf — for any K, run after run.
void parked_thread_capture(int threads, double seconds, std::string* folded) {
  Tracer tracer;
  ManualClock clock;
  Profiler& profiler = Profiler::global();
  ASSERT_TRUE(profiler.start(manual_config(clock)));
  std::atomic<int> parked{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t)
    workers.emplace_back([&] {
      ScopedSpan work("park.work", tracer);
      ScopedSpan leaf("park.leaf", tracer);
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  while (parked.load() < threads) std::this_thread::yield();
  clock.advance(seconds);
  release.store(true);
  for (std::thread& worker : workers) worker.join();
  const ProfileReport report = profiler.stop();
  const ProfileNode* work = find_child(report.root, "park.work");
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->self_seconds, 0.0);
  const ProfileNode* leaf = find_child(*work, "park.leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->self_seconds, threads * seconds);
  *folded = obs::folded_stacks(report);
}

TEST(Profiler, ParkedThreadTimeIsExact) {
  EnabledScope on(true);
  std::string one, four, four_again;
  parked_thread_capture(1, 0.25, &one);
  parked_thread_capture(4, 0.25, &four);
  parked_thread_capture(4, 0.25, &four_again);
  EXPECT_EQ(one, "park.work;park.leaf 250000\n");
  EXPECT_EQ(four, "park.work;park.leaf 1000000\n");
  EXPECT_EQ(four, four_again);  // byte-identical run to run
}

TEST(Profiler, ExitingThreadTailIsCharged) {
  EnabledScope on(true);
  Tracer tracer;
  ManualClock clock;
  Profiler& profiler = Profiler::global();
  ASSERT_TRUE(profiler.start(manual_config(clock)));
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::thread worker([&] {
    ScopedSpan tail("exit.tail", tracer);
    parked.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();
  clock.advance(0.75);
  release.store(true);
  worker.join();  // the thread's trie retires with its last interval
  clock.advance(1.0);
  const ProfileReport report = profiler.stop();
  EXPECT_EQ(obs::folded_stacks(report), "exit.tail 750000\n");
}

TEST(Profiler, AllocationsAttributeToInnermostScope) {
  if (!obs::allocation_counting_available())
    GTEST_SKIP() << "alloc hook compiled out under sanitizers";
  EnabledScope on(true);
  Tracer tracer;
  ManualClock clock;
  Profiler& profiler = Profiler::global();
  ASSERT_TRUE(profiler.start(manual_config(clock)));
  constexpr std::size_t kBytes = 1u << 20;
  {
    ScopedSpan outer("alloc.outer", tracer);
    {
      ScopedSpan inner("alloc.inner", tracer);
      std::vector<char> block(kBytes);
      block[0] = 1;
      block[kBytes - 1] = 2;
    }
  }
  const ProfileReport report = profiler.stop();

  ASSERT_TRUE(report.alloc_available);
  const ProfileNode* outer = find_child(report.root, "alloc.outer");
  ASSERT_NE(outer, nullptr);
  const ProfileNode* inner = find_child(*outer, "alloc.inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_GE(inner->alloc_bytes, kBytes);
  EXPECT_GE(inner->alloc_count, 1u);
  // Self attribution: the big block belongs to the inner scope, not the
  // outer one (which only pays incidental bookkeeping allocations).
  EXPECT_LT(outer->alloc_bytes, kBytes / 2);
}

TEST(Profiler, ScopesOpenAtStartAreInvisibleAndAbsorbed) {
  EnabledScope on(true);
  Tracer tracer;
  ManualClock clock;
  Profiler& profiler = Profiler::global();
  auto pre = std::make_unique<ScopedSpan>("pre.open", tracer);
  ASSERT_TRUE(profiler.start(manual_config(clock)));
  clock.advance(1.0);  // inside pre.open only: charged to nothing
  {
    ScopedSpan inner("pre.inner", tracer);
    clock.advance(0.5);
  }
  clock.advance(1.0);
  pre.reset();  // pop of a pre-capture scope: absorbed, trie stays balanced
  { ScopedSpan after("pre.after", tracer); }
  const ProfileReport report = profiler.stop();

  EXPECT_EQ(find_child(report.root, "pre.open"), nullptr);
  // Both capture-era scopes are roots: pre.open contributed no path prefix.
  EXPECT_EQ(obs::folded_stacks(report, FoldMetric::entries),
            "pre.after 1\npre.inner 1\n");
  EXPECT_EQ(obs::folded_stacks(report), "pre.inner 500000\n");
}

TEST(Profiler, ScopesSpanningStopThenRestartStayBalanced) {
  EnabledScope on(true);
  Tracer tracer;
  ManualClock clock;
  Profiler& profiler = Profiler::global();
  ASSERT_TRUE(profiler.start(manual_config(clock)));
  auto open = std::make_unique<ScopedSpan>("cross.capture", tracer);
  profiler.stop();
  ASSERT_TRUE(profiler.start(manual_config(clock)));
  open.reset();  // pop from the previous capture: absorbed
  { ScopedSpan fresh("cross.fresh", tracer); }
  const ProfileReport report = profiler.stop();

  EXPECT_EQ(find_child(report.root, "cross.capture"), nullptr);
  EXPECT_EQ(obs::folded_stacks(report, FoldMetric::entries),
            "cross.fresh 1\n");
}

void open_nested(Tracer& tracer, int remaining) {
  if (remaining == 0) return;
  ScopedSpan span("deep.scope", tracer);
  open_nested(tracer, remaining - 1);
}

TEST(Profiler, DepthCapTruncatesButStaysBalanced) {
  EnabledScope on(true);
  Tracer tracer;
  ManualClock clock;
  Profiler& profiler = Profiler::global();
  ASSERT_TRUE(profiler.start(manual_config(clock)));
  constexpr int kDepth = static_cast<int>(Profiler::max_depth) + 6;
  open_nested(tracer, kDepth);
  const ProfileReport report = profiler.stop();

  EXPECT_EQ(report.truncated, 6u);
  std::size_t depth = 0;
  const ProfileNode* node = &report.root;
  while ((node = find_child(*node, "deep.scope")) != nullptr) ++depth;
  EXPECT_EQ(depth, Profiler::max_depth);
}

// report() and stop() charge each live thread's open interval up to the
// moment they read; a span that outlives the capture charges nothing more.
TEST(Profiler, ReportIsReadableMidCapture) {
  EnabledScope on(true);
  Tracer tracer;
  ManualClock clock(5.0);
  Profiler& profiler = Profiler::global();
  ASSERT_TRUE(profiler.start(manual_config(clock)));
  { ScopedSpan live("mid.live", tracer); }
  auto open = std::make_unique<ScopedSpan>("mid.open", tracer);
  clock.advance(1.0);
  const ProfileReport mid = profiler.report();
  EXPECT_DOUBLE_EQ(mid.duration_seconds, 1.0);
  const ProfileNode* live = find_child(mid.root, "mid.live");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->entries, 1u);
  EXPECT_EQ(obs::folded_stacks(mid), "mid.open 1000000\n");

  clock.advance(0.5);
  EXPECT_EQ(obs::folded_stacks(profiler.report()), "mid.open 1500000\n");
  clock.advance(0.5);
  const ProfileReport last = profiler.stop();
  EXPECT_EQ(obs::folded_stacks(last), "mid.open 2000000\n");
  clock.advance(3.0);
  open.reset();  // closes after the capture: charges nothing
  EXPECT_EQ(obs::folded_stacks(profiler.report()), "mid.open 2000000\n");
}

TEST(Profiler, SummaryPicksHottestLeafAndCountsCaptures) {
  EnabledScope on(true);
  Tracer tracer;
  ManualClock clock;
  Profiler& profiler = Profiler::global();
  const std::uint64_t captures_before = profiler.captures();
  ASSERT_TRUE(profiler.start(manual_config(clock)));
  {
    ScopedSpan cold("sum.cold", tracer);
    clock.advance(0.25);
  }
  {
    ScopedSpan hot("sum.hot", tracer);
    clock.advance(1.0);
  }
  clock.advance(0.5);
  profiler.stop();

  EXPECT_EQ(profiler.captures(), captures_before + 1);
  const auto summary = profiler.last_capture();
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->hot_path, "sum.hot");
  EXPECT_EQ(summary->hot_self_seconds, 1.0);
  EXPECT_EQ(summary->self_seconds, 1.25);
  EXPECT_EQ(summary->duration_seconds, 1.75);
}

TEST(Profiler, TopTableIsDeterministicAndRanksBySelf) {
  EnabledScope on(true);
  Tracer tracer;
  ManualClock clock;
  Profiler& profiler = Profiler::global();
  ASSERT_TRUE(profiler.start(manual_config(clock)));
  {
    ScopedSpan a("tbl.a", tracer);
    clock.advance(1.0);
    {
      ScopedSpan b("tbl.b", tracer);
      clock.advance(2.0);
    }
  }
  const ProfileReport report = profiler.stop();

  const std::string table = obs::profile_top_table(report);
  EXPECT_EQ(table, obs::profile_top_table(report));  // stable rendering
  // tbl.b (self 2 s) ranks above tbl.a (self 1 s); inclusive of tbl.a is 3.
  const auto b_pos = table.find("tbl.a;tbl.b");
  const auto a_pos = table.find("tbl.a\n");
  ASSERT_NE(b_pos, std::string::npos) << table;
  ASSERT_NE(a_pos, std::string::npos) << table;
  EXPECT_LT(b_pos, a_pos);
  EXPECT_NE(table.find("  1.000000   3.000000 "), std::string::npos) << table;
  EXPECT_NE(table.find("(3.000000s charged over a 3.000s capture"),
            std::string::npos)
      << table;
}

// ---------------------------------------------------------------------------
// Engine-level acceptance: the entries-folded export of a real scan is
// byte-identical across --jobs under ManualClock, and profiling leaves the
// canonical report untouched.

struct ProfilerUniverse {
  SimilarityModel model;
  std::unique_ptr<EvalCorpus> corpus;
  std::unique_ptr<CveDatabase> database;
  FirmwareImage firmware;
  std::vector<std::string> cves;

  ProfilerUniverse() {
    TrainerConfig trainer;
    trainer.dataset.library_count = 12;
    trainer.dataset.functions_per_library = 10;
    trainer.epochs = 4;
    model = train_similarity_model(trainer).model;
    EvalConfig eval;
    eval.scale = 0.02;
    corpus = std::make_unique<EvalCorpus>(eval);
    database = std::make_unique<CveDatabase>(*corpus, DatabaseConfig{});
    firmware = corpus->build_firmware(android_things_device());
    for (const CveEntry& entry : database->entries()) {
      if (cves.size() == 3) break;
      cves.push_back(entry.spec.cve_id);
    }
  }

  ScanRequest request() const {
    ScanRequest request;
    request.model = &model;
    request.firmware = &firmware;
    request.database = database.get();
    request.cve_ids = cves;
    return request;
  }
};

const ProfilerUniverse& profiler_universe() {
  static ProfilerUniverse instance;
  return instance;
}

TEST(Profiler, EngineEntriesFoldedIsByteIdenticalAcrossJobs) {
  EnabledScope on(true);
  const ProfilerUniverse& u = profiler_universe();
  ManualClock clock;
  Profiler& profiler = Profiler::global();

  std::vector<std::string> folded;
  std::vector<std::string> canonical;
  for (const int jobs : {1, 4}) {
    EngineConfig config;
    config.jobs = jobs;
    config.use_cache = false;
    ASSERT_TRUE(profiler.start(manual_config(clock)));
    const ScanReport report = ScanEngine(config).run(u.request());
    folded.push_back(
        obs::folded_stacks(profiler.stop(), FoldMetric::entries));
    canonical.push_back(report.canonical_text());
  }

  ASSERT_FALSE(folded[0].empty());
  EXPECT_EQ(folded[0], folded[1]);
  EXPECT_EQ(canonical[0], canonical[1]);
  EXPECT_NE(folded[0].find("pipeline."), std::string::npos) << folded[0];

  // Profiler-off bit-identity: the same scan without a capture produces the
  // same canonical report bytes.
  EngineConfig config;
  config.jobs = 4;
  config.use_cache = false;
  const ScanReport unprofiled = ScanEngine(config).run(u.request());
  EXPECT_EQ(unprofiled.canonical_text(), canonical[1]);
}

// Against the real clock, a jobs-1 scan runs its jobs one after another, so
// the job.* roots' inclusive time is covered by the scan's own wall time.
TEST(Profiler, RealClockJobRootsFitInScanWallTime) {
  EnabledScope on(true);
  const ProfilerUniverse& u = profiler_universe();
  Profiler& profiler = Profiler::global();
  EngineConfig config;
  config.jobs = 1;
  config.use_cache = false;
  ASSERT_TRUE(profiler.start(Profiler::Config{}));
  const ScanReport report = ScanEngine(config).run(u.request());
  const ProfileReport profile = profiler.stop();

  double job_seconds = 0.0;
  for (const ProfileNode& root : profile.root.children)
    if (root.name.rfind("job.", 0) == 0) job_seconds += inclusive_seconds(root);
  EXPECT_GT(job_seconds, 0.0);
  EXPECT_LE(job_seconds, report.total_seconds);
}

}  // namespace
}  // namespace patchecko
