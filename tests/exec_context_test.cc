#include "common/exec_context.h"

#include <atomic>
#include <set>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/compute_skyline.h"
#include "core/sfs.h"
#include "gtest/gtest.h"
#include "sql/engine.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeUniformTable;
using testing_util::OracleSkylineMultiset;
using testing_util::ReadAll;
using testing_util::RowMultiset;

size_t Hardware() { return ClampThreadsToHardware(0); }

// ---- Pure thread-knob resolution (the table in exec_context.h) ----

TEST(ExecContextTest, UnsetContextDefersToOptionField) {
  ExecContext ctx;
  EXPECT_EQ(ctx.ResolveThreads(1), 1u);
  EXPECT_EQ(ctx.ResolveThreads(0), Hardware());  // option 0 = hardware
  EXPECT_EQ(ctx.ResolveThreads(3), ClampThreadsToHardware(3));
  EXPECT_EQ(ctx.RequestedThreads(7), 7u);  // unclamped passthrough
}

TEST(ExecContextTest, SetContextOverridesOptionField) {
  ExecContext ctx;
  ctx.threads = 1;
  EXPECT_EQ(ctx.ResolveThreads(0), 1u);
  EXPECT_EQ(ctx.ResolveThreads(8), 1u);
  ctx.threads = 0;  // context 0 = hardware, overriding a literal option
  EXPECT_EQ(ctx.ResolveThreads(1), Hardware());
}

TEST(ExecContextTest, ResolveClampsButRequestedDoesNot) {
  ExecContext ctx;
  ctx.threads = 64 * 1024;
  EXPECT_EQ(ctx.ResolveThreads(1), Hardware());
  EXPECT_EQ(ctx.RequestedThreads(1), 64u * 1024u);
}

TEST(ExecContextTest, TempPrefixFallsBackWhenEmpty) {
  ExecContext ctx;
  const std::string fallback = "out.tmp";
  EXPECT_EQ(ctx.TempPrefixOr(fallback), "out.tmp");
  ctx.temp_prefix = "scratch/run7";
  EXPECT_EQ(ctx.TempPrefixOr(fallback), "scratch/run7");
}

TEST(ExecContextTest, CheckCancelledFollowsTheHook) {
  ExecContext ctx;
  EXPECT_FALSE(ctx.has_cancel_hook());
  EXPECT_TRUE(ctx.CheckCancelled().ok());
  std::atomic<bool> cancel{false};
  ctx.cancelled = [&cancel] { return cancel.load(); };
  EXPECT_TRUE(ctx.has_cancel_hook());
  EXPECT_TRUE(ctx.CheckCancelled().ok());
  cancel = true;
  EXPECT_TRUE(ctx.CheckCancelled().IsCancelled());
}

// ---- Resolution as observed through the algorithm entry points ----

class ExecContextSfsTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();

  SkylineSpec MaxSpec(const Table& t, int dims) {
    std::vector<Criterion> criteria;
    for (int i = 0; i < dims; ++i) {
      criteria.push_back({"a" + std::to_string(i), Directive::kMax});
    }
    auto result = SkylineSpec::Make(t.schema(), std::move(criteria));
    SKYLINE_CHECK(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }
};

TEST_F(ExecContextSfsTest, ContextThreadsOverrideSfsOptions) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 800, 3, 7));
  SkylineSpec spec = MaxSpec(t, 3);
  const auto oracle = OracleSkylineMultiset(t, spec);

  // Option asks for all hardware; the context pins it back to sequential.
  SfsOptions options;
  options.threads = 0;
  ExecContext ctx;
  ctx.threads = 1;
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(
      Table sky, ComputeSkylineSfs(t, spec, options, ctx, "out_seq", &stats));
  EXPECT_EQ(stats.threads_used, 1u);
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            oracle);

  // Unset context defers to the (deprecated) option field.
  SfsOptions sequential;
  sequential.threads = 1;
  SkylineRunStats deferred_stats;
  ASSERT_OK_AND_ASSIGN(Table sky2,
                       ComputeSkylineSfs(t, spec, sequential, ExecContext{},
                                         "out_defer", &deferred_stats));
  EXPECT_EQ(deferred_stats.threads_used, 1u);

  // An explicit context request gets the same clamp as any other: 800
  // rows fill fewer than two min_block_rows (4096) blocks, so the filter
  // runs one block and says the input, not the host, was the limit. A
  // 1-core host clamps first, and says so.
  const bool multi_core = Hardware() >= 2;
  SfsOptions one;
  one.threads = 1;
  ExecContext two;
  two.threads = 2;
  SkylineRunStats small_stats;
  ASSERT_OK_AND_ASSIGN(
      Table sky3,
      ComputeSkylineSfs(t, spec, one, two, "out_small", &small_stats));
  EXPECT_EQ(small_stats.threads_requested, 2u);
  EXPECT_EQ(small_stats.threads_used, 1u);
  EXPECT_STREQ(small_stats.threads_limited_by,
               multi_core ? "input_rows" : "hardware");
  std::vector<char> rows3 = ReadAll(sky3);
  EXPECT_EQ(
      RowMultiset(rows3.data(), sky3.row_count(), t.schema().row_width()),
      oracle);

  // 8192 rows fill two blocks: the override is honored in full.
  ASSERT_OK_AND_ASSIGN(Table big,
                       MakeUniformTable(env_.get(), "big", 8192, 3, 7));
  SkylineSpec big_spec = MaxSpec(big, 3);
  SkylineRunStats parallel_stats;
  ASSERT_OK_AND_ASSIGN(
      Table sky4,
      ComputeSkylineSfs(big, big_spec, one, two, "out_par", &parallel_stats));
  EXPECT_EQ(parallel_stats.threads_requested, 2u);
  if (multi_core) {
    EXPECT_EQ(parallel_stats.threads_used, 2u);
    EXPECT_FALSE(parallel_stats.DegradedParallelism());
    EXPECT_STREQ(parallel_stats.threads_limited_by, "none");
  } else {
    EXPECT_EQ(parallel_stats.threads_used, 1u);
    EXPECT_STREQ(parallel_stats.threads_limited_by, "hardware");
  }
  std::vector<char> rows4 = ReadAll(sky4);
  EXPECT_EQ(
      RowMultiset(rows4.data(), sky4.row_count(), big.schema().row_width()),
      OracleSkylineMultiset(big, big_spec));
}

TEST_F(ExecContextSfsTest, CancellationHookAbortsTheRun) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 2000, 4, 3));
  SkylineSpec spec = MaxSpec(t, 4);
  ExecContext ctx;
  ctx.cancelled = [] { return true; };
  auto result =
      ComputeSkylineSfs(t, spec, SfsOptions{}, ctx, "out_cancel", nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

TEST_F(ExecContextSfsTest, UnifiedDispatchMatchesDirectCalls) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 600, 4, 5));
  SkylineSpec spec = MaxSpec(t, 4);
  const auto oracle = OracleSkylineMultiset(t, spec);
  for (SkylineAlgorithm algorithm :
       {SkylineAlgorithm::kSfs, SkylineAlgorithm::kBnl,
        SkylineAlgorithm::kAuto}) {
    SkylineRunStats stats;
    ASSERT_OK_AND_ASSIGN(
        Table sky,
        ComputeSkyline(algorithm, t, spec, ExecContext(),
                       "out_unified" +
                           std::to_string(static_cast<int>(algorithm)),
                       &stats));
    std::vector<char> rows = ReadAll(sky);
    EXPECT_EQ(
        RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
        oracle)
        << "algorithm " << static_cast<int>(algorithm);
    EXPECT_EQ(stats.output_rows, sky.row_count());
  }
  // 4 value columns: kAuto must take the SFS route, not a special scan.
  EXPECT_FALSE(SkylineAutoUsesSpecialScan(spec));
}

// ---- Session::Options::threads: the one user-facing thread knob ----

class ExecContextSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    Engine::Options engine_options;
    engine_options.env = env_.get();
    engine_options.write_sidecars = false;
    engine_ = std::make_unique<Engine>(engine_options);
    ASSERT_OK_AND_ASSIGN(Table t,
                         MakeUniformTable(env_.get(), "sqlt", 600, 3, 11));
    ASSERT_TRUE(engine_->CreateTable("T", std::move(t)).ok());
  }

  Status Run(const Session::Options& options, TraceSink* trace,
             int* rows_out, Session::Outcome* outcome = nullptr) {
    Session::Options session_options = options;
    // Force the Volcano pipeline: the cached-serve path never builds the
    // operators whose spans these tests observe.
    session_options.use_result_cache = false;
    Session session(engine_.get(), session_options);
    session.exec().trace = trace;
    int rows = 0;
    Status st = session.Execute(
        "SELECT * FROM T SKYLINE OF a0 MAX, a1 MAX, a2 MAX",
        [&rows](const RowView&) {
          ++rows;
          return Status::OK();
        },
        outcome);
    if (rows_out != nullptr) *rows_out = rows;
    return st;
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(ExecContextSessionTest, ThreadsZeroDefersToSfsOptions) {
  // threads=0 means "unset" at the session level: sfs.threads=1 keeps the
  // run sequential, so the pipelined filter traces filter passes, not
  // blocks.
  TraceSink trace;
  Session::Options options;
  options.threads = 0;
  options.sfs.threads = 1;
  int rows = 0;
  ASSERT_TRUE(Run(options, &trace, &rows).ok());
  EXPECT_GT(rows, 0);
  EXPECT_EQ(trace.CountSpans("block-scan"), 0u);
  EXPECT_EQ(trace.CountSpans("filter-pass-1"), 1u);
  EXPECT_EQ(trace.CountSpans("sql-parse"), 1u);
  EXPECT_EQ(trace.CountSpans("sql-bind"), 1u);
  EXPECT_EQ(trace.CountSpans("sql-execute"), 1u);
}

TEST_F(ExecContextSessionTest, NonZeroThreadsOverridesSfsOptions) {
  TraceSink trace;
  Session::Options options;
  options.threads = 2;
  options.sfs.threads = 1;  // overridden by the session knob
  int rows = 0;
  Session::Outcome outcome;
  ASSERT_TRUE(Run(options, &trace, &rows, &outcome).ok());
  EXPECT_GT(rows, 0);
  std::string limited_by;
  for (const PlanNodeStats& node : outcome.info.plan) {
    for (const auto& note : node.notes) {
      if (note.first == "threads_limited_by") limited_by = note.second;
    }
  }
  if (Hardware() >= 2) {
    // The parallel path runs; its 600 rows fill a single block.
    EXPECT_GT(trace.CountSpans("block-scan"), 0u);
    EXPECT_EQ(limited_by, "input_rows");
  } else {
    // A 1-core host clamps the override to one worker: the sequential
    // stream runs and names the hardware as the limit.
    EXPECT_EQ(trace.CountSpans("block-scan"), 0u);
    EXPECT_EQ(trace.CountSpans("filter-pass-1"), 1u);
    EXPECT_EQ(limited_by, "hardware");
  }
}

TEST_F(ExecContextSessionTest, ExplicitExecThreadsWinsOverSessionKnob) {
  TraceSink trace;
  Session::Options options;
  options.threads = 4;
  options.use_result_cache = false;
  Session session(engine_.get(), options);
  session.exec().trace = &trace;
  session.exec().threads = 1;  // the context pins it back to sequential
  int rows = 0;
  ASSERT_TRUE(session
                  .Execute("SELECT * FROM T SKYLINE OF a0 MAX, a1 MAX, a2 MAX",
                           [&rows](const RowView&) {
                             ++rows;
                             return Status::OK();
                           })
                  .ok());
  EXPECT_GT(rows, 0);
  EXPECT_EQ(trace.CountSpans("block-scan"), 0u);
  EXPECT_EQ(trace.CountSpans("filter-pass-1"), 1u);
}

TEST_F(ExecContextSessionTest, CancellationSurfacesThroughSession) {
  Session session(engine_.get());
  session.exec().cancelled = [] { return true; };
  Status st = session.Execute(
      "SELECT * FROM T SKYLINE OF a0 MAX, a1 MAX, a2 MAX",
      [](const RowView&) { return Status::OK(); });
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
}

TEST_F(ExecContextSessionTest, MetricsPublishOnStreamExhaustion) {
  MetricsRegistry metrics;
  Session::Options options;
  options.sfs.threads = 1;
  options.use_result_cache = false;
  Session session(engine_.get(), options);
  session.exec().metrics = &metrics;
  int rows = 0;
  ASSERT_TRUE(session
                  .Execute("SELECT * FROM T SKYLINE OF a0 MAX, a1 MAX, a2 MAX",
                           [&rows](const RowView&) {
                             ++rows;
                             return Status::OK();
                           })
                  .ok());
  const MetricsSnapshot snapshot = metrics.Aggregate();
  EXPECT_EQ(snapshot.CounterValue("skyline.sfs.runs"), 1u);
  EXPECT_EQ(snapshot.CounterValue("skyline.sfs.output_rows"),
            static_cast<uint64_t>(rows));
}

}  // namespace
}  // namespace skyline
