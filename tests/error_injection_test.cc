// Failure injection: every multi-pass algorithm must surface storage
// errors as Status — never crash, hang, or silently truncate results.

#include "core/skyline.h"
#include "faulty_env.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::FaultyEnv;
using testing_util::MakeUniformTable;

class ErrorInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_env_ = NewMemEnv();
    faulty_ = std::make_unique<FaultyEnv>(base_env_.get());
    // Build the input through the faulty env with injection disabled, so
    // the table's env routes all later algorithm I/O through the decorator.
    auto t = MakeUniformTable(faulty_.get(), "t", 3000, 5, 201);
    ASSERT_TRUE(t.ok());
    table_.emplace(std::move(t).value());
    auto spec = SkylineSpec::Make(table_->schema(), {{"a0", Directive::kMax},
                                                     {"a1", Directive::kMax},
                                                     {"a2", Directive::kMax},
                                                     {"a3", Directive::kMax},
                                                     {"a4", Directive::kMax}});
    ASSERT_TRUE(spec.ok());
    spec_.emplace(std::move(spec).value());
  }

  std::unique_ptr<Env> base_env_;
  std::unique_ptr<FaultyEnv> faulty_;
  std::optional<Table> table_;
  std::optional<SkylineSpec> spec_;
};

TEST_F(ErrorInjectionTest, SfsSurvivesWithoutInjection) {
  ASSERT_OK_AND_ASSIGN(
      Table sky, ComputeSkylineSfs(*table_, *spec_, SfsOptions{}, ExecContext(), "ok", nullptr));
  EXPECT_GT(sky.row_count(), 0u);
}

TEST_F(ErrorInjectionTest, SfsPropagatesWriteFailures) {
  // Sweep the failure point over every write the run makes: sort-run
  // writes, spill writes, output writes. Each budget short of the run's
  // write count fails with IoError; the first that covers them all runs
  // to completion, and that run spilled.
  SfsOptions opts;
  opts.window_pages = 1;
  opts.use_projection = false;
  opts.sort_options.buffer_pages = 4;
  for (int64_t budget = 0;; ++budget) {
    ASSERT_LT(budget, 1000) << "the run never completed";
    faulty_->set_fail_after_writes(budget);
    SkylineRunStats stats;
    auto result =
        ComputeSkylineSfs(*table_, *spec_, opts, ExecContext(), "w", &stats);
    faulty_->set_fail_after_writes(-1);
    if (result.ok()) {
      EXPECT_GT(budget, 5);
      EXPECT_GT(stats.passes, 1u);
      break;
    }
    EXPECT_TRUE(result.status().IsIoError())
        << "budget " << budget << ": " << result.status().ToString();
  }
}

TEST_F(ErrorInjectionTest, SfsPropagatesReadFailures) {
  for (int64_t budget : {0, 1, 10, 30}) {
    faulty_->set_fail_after_reads(budget);
    SfsOptions opts;
    opts.window_pages = 1;
    opts.use_projection = false;
    opts.sort_options.buffer_pages = 4;
    auto result = ComputeSkylineSfs(*table_, *spec_, opts, ExecContext(), "r", nullptr);
    ASSERT_FALSE(result.ok()) << "budget " << budget;
    EXPECT_TRUE(result.status().IsIoError()) << result.status().ToString();
    faulty_->set_fail_after_reads(-1);
  }
}

TEST_F(ErrorInjectionTest, BnlPropagatesWriteFailures) {
  for (int64_t budget : {0, 2, 4}) {
    faulty_->set_fail_after_writes(budget);
    BnlOptions opts;
    opts.window_pages = 1;
    auto result = ComputeSkylineBnl(*table_, *spec_, opts, ExecContext(), "w", nullptr);
    ASSERT_FALSE(result.ok()) << "budget " << budget;
    EXPECT_TRUE(result.status().IsIoError());
    faulty_->set_fail_after_writes(-1);
  }
}

TEST_F(ErrorInjectionTest, BnlPropagatesReadFailures) {
  faulty_->set_fail_after_reads(5);
  BnlOptions opts;
  opts.window_pages = 1;
  auto result = ComputeSkylineBnl(*table_, *spec_, opts, ExecContext(), "r", nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
  faulty_->set_fail_after_reads(-1);
}

TEST_F(ErrorInjectionTest, ExternalSortPropagatesFailures) {
  auto ordering = MakeNestedSkylineOrdering(*spec_);
  for (int64_t budget : {0, 2, 20}) {
    faulty_->set_fail_after_writes(budget);
    TempFileManager tmp(faulty_.get(), "sort_tmp");
    SortOptions opts;
    opts.buffer_pages = 4;
    auto result = SortHeapFile(faulty_.get(), &tmp, table_->path(),
                               table_->schema().row_width(), *ordering, opts,
                               ExecContext(),
                               nullptr);
    ASSERT_FALSE(result.ok()) << "budget " << budget;
    EXPECT_TRUE(result.status().IsIoError());
    faulty_->set_fail_after_writes(-1);
  }
}

TEST_F(ErrorInjectionTest, StrataPropagateFailures) {
  faulty_->set_fail_after_writes(10);
  StrataOptions opts;
  opts.num_strata = 3;
  auto result = ComputeStrataSfs(*table_, *spec_, opts, ExecContext(), "st", nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
  faulty_->set_fail_after_writes(-1);
}

// The LESS-style eliminating presort, sequential and in the parallel deal
// (four simulated slices, one elimination filter per stretch).
TEST_F(ErrorInjectionTest, LessPropagatesFailures) {
  faulty_->set_fail_after_writes(2);
  auto result = ComputeSkylineSfs(*table_, *spec_, SfsOptions{}, ExecContext(),
                                  "l", nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());

  EntropyOrdering entropy(&*spec_, *table_);
  ParallelSfsOptions popt;
  popt.threads = 4;
  popt.min_block_rows = 1;
  TempFileManager tmp(faulty_.get(), "deal_tmp");
  faulty_->set_fail_after_writes(2);
  const Status st =
      ParallelSfs(&tmp, *table_, *spec_, &entropy, /*eliminate=*/true,
                  SortOptions{}, popt,
                  [](const char*) { return Status::OK(); }, nullptr);
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  faulty_->set_fail_after_writes(-1);
}

TEST_F(ErrorInjectionTest, RecoveryAfterInjectionCleared) {
  // A failed run must not poison later runs (temp files cleaned up, state
  // fully local to each call).
  faulty_->set_fail_after_writes(5);
  SfsOptions opts;
  opts.window_pages = 1;
  opts.use_projection = false;
  opts.sort_options.buffer_pages = 4;
  ASSERT_FALSE(ComputeSkylineSfs(*table_, *spec_, opts, ExecContext(), "x", nullptr).ok());
  faulty_->set_fail_after_writes(-1);
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineSfs(*table_, *spec_, opts, ExecContext(), "y", nullptr));
  EXPECT_GT(sky.row_count(), 0u);
}

}  // namespace
}  // namespace skyline
