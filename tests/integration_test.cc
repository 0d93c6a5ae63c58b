// End-to-end integration tests: realistic pipelines over the full stack
// (generator -> heap files -> external sort -> SFS/BNL -> exec operators),
// including the paper's headline behavioural claims at reduced scale.

#include "core/skyline.h"
#include "exec/query.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeUniformTable;
using testing_util::OracleSkylineMultiset;
using testing_util::ReadAll;
using testing_util::RowMultiset;

SkylineSpec MaxSpec(const Table& t, int dims) {
  std::vector<Criterion> criteria;
  for (int i = 0; i < dims; ++i) {
    criteria.push_back({"a" + std::to_string(i), Directive::kMax});
  }
  auto result = SkylineSpec::Make(t.schema(), std::move(criteria));
  SKYLINE_CHECK(result.ok());
  return std::move(result).value();
}

TEST(Integration, PaperShapedWorkloadEndToEnd) {
  // A scaled-down version of the paper's experiment: 20k 100-byte tuples,
  // 5-dim skyline, small windows, external sort with a small buffer.
  auto env = NewMemEnv();
  GeneratorOptions gen;
  gen.num_rows = 20'000;
  gen.seed = 77;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env.get(), "t", gen));
  ASSERT_EQ(t.page_count(), 500u);
  SkylineSpec spec = MaxSpec(t, 5);

  SfsOptions sfs_opts;
  sfs_opts.window_pages = 2;
  // The presort's elimination filter keeps ~1.2k of the 20k rows (~31
  // pages); 10 buffer pages still spread them over several runs.
  sfs_opts.sort_options.buffer_pages = 10;
  SkylineRunStats sfs_stats;
  ASSERT_OK_AND_ASSIGN(Table sfs_sky,
                       ComputeSkylineSfs(t, spec, sfs_opts, ExecContext(), "sfs", &sfs_stats));

  BnlOptions bnl_opts;
  bnl_opts.window_pages = 2;
  SkylineRunStats bnl_stats;
  ASSERT_OK_AND_ASSIGN(Table bnl_sky,
                       ComputeSkylineBnl(t, spec, bnl_opts, ExecContext(), "bnl", &bnl_stats));

  const size_t w = t.schema().row_width();
  std::vector<char> a = ReadAll(sfs_sky);
  std::vector<char> b = ReadAll(bnl_sky);
  EXPECT_EQ(RowMultiset(a.data(), sfs_sky.row_count(), w),
            RowMultiset(b.data(), bnl_sky.row_count(), w));

  // Skyline size should be in the ballpark of the estimator.
  const double expected = ExpectedSkylineSize(gen.num_rows, 5);
  EXPECT_GT(sfs_sky.row_count(), expected / 3);
  EXPECT_LT(sfs_sky.row_count(), expected * 3);
  EXPECT_GT(sfs_stats.sort_stats.runs_generated, 1u);
}

TEST(Integration, EntropyOrderingSpillsNoMoreThanNested) {
  // The paper's core claim for the w/E optimization: entropy-ordered input
  // fills the window with high-dn tuples, eliminating more tuples per pass.
  auto env = NewMemEnv();
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env.get(), "t", 12'000, 6, 78));
  SkylineSpec spec = MaxSpec(t, 6);
  SfsOptions opts;
  opts.window_pages = 1;
  opts.use_projection = false;

  opts.presort = Presort::kNested;
  SkylineRunStats nested;
  ASSERT_OK(ComputeSkylineSfs(t, spec, opts, ExecContext(), "o1", &nested).status());

  opts.presort = Presort::kEntropy;
  SkylineRunStats entropy;
  ASSERT_OK(ComputeSkylineSfs(t, spec, opts, ExecContext(), "o2", &entropy).status());

  EXPECT_LT(entropy.spilled_tuples, nested.spilled_tuples);
  EXPECT_LE(entropy.ExtraPages(), nested.ExtraPages());
}

TEST(Integration, SfsIoNeverExceedsBnlWithReverseEntropyInput) {
  // BNL w/RE is the paper's pathological case; SFS on the same data is
  // dramatically cheaper in extra pages.
  auto env = NewMemEnv();
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env.get(), "t", 8'000, 5, 79));
  SkylineSpec spec = MaxSpec(t, 5);

  SfsOptions sfs_opts;
  sfs_opts.window_pages = 2;
  SkylineRunStats sfs_stats;
  ASSERT_OK(ComputeSkylineSfs(t, spec, sfs_opts, ExecContext(), "sfs", &sfs_stats).status());

  EntropyOrdering entropy(&spec, t);
  ReverseOrdering reverse(&entropy);
  BnlOptions bnl_opts;
  bnl_opts.window_pages = 2;
  bnl_opts.input_ordering = &reverse;
  SkylineRunStats bnl_stats;
  ASSERT_OK(ComputeSkylineBnl(t, spec, bnl_opts, ExecContext(), "bnl", &bnl_stats).status());

  EXPECT_LT(sfs_stats.ExtraPages(), bnl_stats.ExtraPages());
  EXPECT_LE(sfs_stats.passes, bnl_stats.passes);
}

TEST(Integration, AntiCorrelatedDegeneratesTowardManyPasses) {
  // Section 6: with anti-correlated criteria the skyline is huge and both
  // algorithms degenerate toward |R|/|window| passes.
  auto env = NewMemEnv();
  GeneratorOptions gen;
  gen.num_rows = 4'000;
  gen.num_attributes = 4;
  gen.payload_bytes = 0;
  gen.distribution = Distribution::kAntiCorrelated;
  gen.seed = 80;
  ASSERT_OK_AND_ASSIGN(Table anti, GenerateTable(env.get(), "a", gen));
  gen.distribution = Distribution::kIndependent;
  ASSERT_OK_AND_ASSIGN(Table indep, GenerateTable(env.get(), "i", gen));
  SkylineSpec anti_spec = MaxSpec(anti, 4);
  SkylineSpec indep_spec = MaxSpec(indep, 4);

  SfsOptions opts;
  opts.window_pages = 1;
  opts.use_projection = false;
  SkylineRunStats anti_stats, indep_stats;
  ASSERT_OK_AND_ASSIGN(Table anti_sky,
                       ComputeSkylineSfs(anti, anti_spec, opts, ExecContext(), "as", &anti_stats));
  ASSERT_OK_AND_ASSIGN(
      Table indep_sky,
      ComputeSkylineSfs(indep, indep_spec, opts, ExecContext(), "is", &indep_stats));

  EXPECT_GT(anti_sky.row_count(), indep_sky.row_count() * 5);
  EXPECT_GT(anti_stats.passes, indep_stats.passes);
}

TEST(Integration, HotelFinderPipelineWithDiffAndLimit) {
  // Domain scenario: best hotels per city (diff), filtered, top-N.
  auto env = NewMemEnv();
  ASSERT_OK_AND_ASSIGN(
      Schema schema,
      Schema::Make({ColumnDef::FixedString("name", 16), ColumnDef::Int32("city"),
                    ColumnDef::Int32("stars"), ColumnDef::Int32("price")}));
  TableBuilder builder(env.get(), "hotels", schema);
  ASSERT_OK(builder.Open());
  Random rng(81);
  RowBuffer row(&builder.schema());
  for (int i = 0; i < 3000; ++i) {
    row.SetString(0, "hotel_" + std::to_string(i));
    row.SetInt32(1, rng.UniformInt32(0, 9));
    row.SetInt32(2, rng.UniformInt32(1, 5));
    row.SetInt32(3, rng.UniformInt32(40, 400));
    ASSERT_OK(builder.Append(row));
  }
  ASSERT_OK_AND_ASSIGN(Table hotels, builder.Finish());

  Query query(env.get(), &hotels, "q");
  query
      .Where([](const RowView& r) { return r.GetInt32(3) <= 300; })
      .SkylineOf({{"city", Directive::kDiff},
                  {"stars", Directive::kMax},
                  {"price", Directive::kMin}})
      .Limit(12);
  int count = 0;
  ASSERT_OK(query.Run([&](const RowView& r) {
    EXPECT_LE(r.GetInt32(3), 300);
    ++count;
    return Status::OK();
  }));
  EXPECT_EQ(count, 12);
}

TEST(Integration, PosixEnvEndToEnd) {
  // The same pipeline against real files.
  auto env = NewPosixEnv();
  const std::string dir = ::testing::TempDir();
  GeneratorOptions gen;
  gen.num_rows = 2'000;
  gen.num_attributes = 4;
  gen.seed = 82;
  ASSERT_OK_AND_ASSIGN(Table t,
                       GenerateTable(env.get(), dir + "sky_it_table", gen));
  SkylineSpec spec = MaxSpec(t, 4);
  SfsOptions opts;
  opts.window_pages = 1;
  ASSERT_OK_AND_ASSIGN(
      Table sky, ComputeSkylineSfs(t, spec, opts, ExecContext(), dir + "sky_it_out", nullptr));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
  ASSERT_OK(env->DeleteFile(dir + "sky_it_table"));
  ASSERT_OK(env->DeleteFile(dir + "sky_it_out"));
}

TEST(Integration, StrataPipelinePaperShaped) {
  // Scaled version of the paper's strata run: 4-dim, first 4 strata.
  auto env = NewMemEnv();
  GeneratorOptions gen;
  gen.num_rows = 10'000;
  gen.seed = 83;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env.get(), "t", gen));
  SkylineSpec spec = MaxSpec(t, 4);
  StrataOptions opts;
  opts.num_strata = 4;
  StrataStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<Table> strata,
                       ComputeStrataSfs(t, spec, opts, ExecContext(), "st", &stats));
  ASSERT_EQ(strata.size(), 4u);
  // Strata sizes grow with depth on uniform data (paper: 460/1430/2766/4444).
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_GT(strata[i].row_count(), strata[i - 1].row_count());
  }
  uint64_t total = 0;
  for (const auto& s : strata) total += s.row_count();
  EXPECT_LT(total, t.row_count());
}

TEST(Integration, DimensionalReductionThenSfsMatchesDirect) {
  auto env = NewMemEnv();
  GeneratorOptions gen;
  gen.num_rows = 15'000;
  gen.num_attributes = 4;
  gen.payload_bytes = 60;
  gen.small_domain = true;
  gen.domain_lo = 0;
  gen.domain_hi = 9;
  gen.seed = 84;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env.get(), "t", gen));
  SkylineSpec spec = MaxSpec(t, 4);

  DimReduceStats red_stats;
  ASSERT_OK_AND_ASSIGN(
      Table reduced,
      DimensionalReduction(t, spec, SortOptions{}, ExecContext(), "red", &red_stats));
  EXPECT_LT(red_stats.ReductionRatio(), 0.5);

  SfsOptions opts;
  opts.presort = Presort::kNone;  // reduction output is nested-sorted
  ASSERT_OK_AND_ASSIGN(Table sky_reduced,
                       ComputeSkylineSfs(reduced, spec, opts, ExecContext(), "o1", nullptr));
  ASSERT_OK_AND_ASSIGN(
      Table sky_direct,
      ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "o2", nullptr));
  // Identical skyline-attribute multisets (representatives may differ in
  // payload when tuples tie on all criteria).
  std::vector<char> a = ReadAll(sky_reduced);
  std::vector<char> b = ReadAll(sky_direct);
  EXPECT_EQ(testing_util::ProjectedMultiset(spec, a.data(),
                                            sky_reduced.row_count(),
                                            t.schema().row_width()),
            testing_util::ProjectedMultiset(spec, b.data(),
                                            sky_direct.row_count(),
                                            t.schema().row_width()));
}

TEST(Integration, LargeScaleSfsConsistencyAcrossWindows) {
  // 50k tuples, 6 dims: too big for the naive oracle; check window-size
  // independence of the result instead.
  auto env = NewMemEnv();
  GeneratorOptions gen;
  gen.num_rows = 50'000;
  gen.seed = 85;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env.get(), "t", gen));
  SkylineSpec spec = MaxSpec(t, 6);
  const size_t w = t.schema().row_width();
  std::multiset<std::string> reference;
  for (size_t pages : {1u, 8u, 1024u}) {
    SfsOptions opts;
    opts.window_pages = pages;
    SkylineRunStats stats;
    ASSERT_OK_AND_ASSIGN(
        Table sky,
        ComputeSkylineSfs(t, spec, opts, ExecContext(), "o" + std::to_string(pages), &stats));
    std::vector<char> rows = ReadAll(sky);
    auto got = RowMultiset(rows.data(), sky.row_count(), w);
    if (reference.empty()) {
      reference = std::move(got);
    } else {
      EXPECT_EQ(got, reference) << "window_pages=" << pages;
    }
  }
}

}  // namespace
}  // namespace skyline
