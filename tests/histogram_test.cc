#include "relation/histogram.h"

#include <cmath>

#include "core/scoring.h"
#include "core/sfs.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeIntTable;
using testing_util::MakeUniformTable;
using testing_util::OracleSkylineMultiset;
using testing_util::ReadAll;
using testing_util::RowMultiset;

TEST(EquiDepthHistogram, UniformValuesGiveLinearCdf) {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  ASSERT_OK_AND_ASSIGN(EquiDepthHistogram h,
                       EquiDepthHistogram::Build(std::move(values), 32));
  EXPECT_DOUBLE_EQ(h.Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Cdf(1000), 1.0);
  EXPECT_DOUBLE_EQ(h.Cdf(2000), 1.0);
  EXPECT_NEAR(h.Cdf(250), 0.25, 0.05);
  EXPECT_NEAR(h.Cdf(500), 0.50, 0.05);
  EXPECT_NEAR(h.Cdf(750), 0.75, 0.05);
}

TEST(EquiDepthHistogram, CdfIsMonotone) {
  Random rng(61);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(std::pow(rng.UniformDouble(), 4));  // heavy skew
  }
  ASSERT_OK_AND_ASSIGN(EquiDepthHistogram h,
                       EquiDepthHistogram::Build(values, 16));
  double prev = -1;
  for (double v = -0.1; v <= 1.1; v += 0.001) {
    const double cdf = h.Cdf(v);
    EXPECT_GE(cdf, prev);
    EXPECT_GE(cdf, 0.0);
    EXPECT_LE(cdf, 1.0);
    prev = cdf;
  }
}

TEST(EquiDepthHistogram, SkewedValuesStillEquiDepth) {
  // Under heavy skew, the median must still map to ~0.5 rank (unlike
  // min-max normalization, which maps it near 0).
  Random rng(62);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(std::pow(rng.UniformDouble(), 8));
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  ASSERT_OK_AND_ASSIGN(EquiDepthHistogram h,
                       EquiDepthHistogram::Build(values, 64));
  EXPECT_NEAR(h.Cdf(median), 0.5, 0.05);
  // Min-max normalization would put the median at (median - 0) / span:
  const double minmax = median / sorted.back();
  EXPECT_LT(minmax, 0.05);  // the skew the histogram corrects
}

TEST(EquiDepthHistogram, DuplicateHeavyValues) {
  std::vector<double> values(900, 5.0);
  for (int i = 0; i < 100; ++i) values.push_back(10.0);
  ASSERT_OK_AND_ASSIGN(EquiDepthHistogram h,
                       EquiDepthHistogram::Build(values, 10));
  EXPECT_LE(h.Cdf(5.0), 0.91);
  EXPECT_GE(h.Cdf(5.0), 0.5);
  EXPECT_DOUBLE_EQ(h.Cdf(10.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Cdf(4.0), 0.0);
}

TEST(EquiDepthHistogram, ConstantColumn) {
  std::vector<double> values(50, 7.0);
  ASSERT_OK_AND_ASSIGN(EquiDepthHistogram h,
                       EquiDepthHistogram::Build(values, 8));
  EXPECT_DOUBLE_EQ(h.Cdf(7.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Cdf(6.9), 0.0);
}

TEST(EquiDepthHistogram, RejectsBadInput) {
  EXPECT_TRUE(EquiDepthHistogram::Build({}, 4).status().IsInvalidArgument());
  EXPECT_TRUE(
      EquiDepthHistogram::Build({1.0}, 0).status().IsInvalidArgument());
}

TEST(BuildColumnHistogram, FullScanAndSampleAgreeRoughly) {
  auto env = NewMemEnv();
  auto t = MakeUniformTable(env.get(), "t", 20000, 2, 63, 0);
  ASSERT_TRUE(t.ok());
  ASSERT_OK_AND_ASSIGN(EquiDepthHistogram full,
                       BuildColumnHistogram(*t, 0, 32));
  ASSERT_OK_AND_ASSIGN(EquiDepthHistogram sampled,
                       BuildColumnHistogram(*t, 0, 32, 2000, 7));
  for (double q : {-1e9, -1e8, 0.0, 1e8, 1e9}) {
    EXPECT_NEAR(full.Cdf(q), sampled.Cdf(q), 0.05) << q;
  }
}

TEST(BuildColumnHistogram, RejectsBadColumns) {
  auto env = NewMemEnv();
  auto guide = MakeGoodEatsTable(env.get(), "g");
  ASSERT_TRUE(guide.ok());
  EXPECT_TRUE(BuildColumnHistogram(*guide, 0, 8).status().IsInvalidArgument());
  EXPECT_TRUE(BuildColumnHistogram(*guide, 99, 8).status().IsInvalidArgument());
}

class RankEntropyTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();
};

SkylineSpec MaxSpec(const Table& t, int dims) {
  std::vector<Criterion> criteria;
  for (int i = 0; i < dims; ++i) {
    criteria.push_back({"a" + std::to_string(i), Directive::kMax});
  }
  auto result = SkylineSpec::Make(t.schema(), std::move(criteria));
  SKYLINE_CHECK(result.ok());
  return std::move(result).value();
}

TEST_F(RankEntropyTest, OrderingIsTopological) {
  GeneratorOptions gen;
  gen.num_rows = 500;
  gen.num_attributes = 3;
  gen.payload_bytes = 0;
  gen.skew_exponent = 6.0;
  gen.seed = 64;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env_.get(), "t", gen));
  SkylineSpec spec = MaxSpec(t, 3);
  ASSERT_OK_AND_ASSIGN(RankEntropyOrdering ord,
                       RankEntropyOrdering::Build(&spec, t, 32, 200));
  std::vector<char> rows = ReadAll(t);
  const size_t w = t.schema().row_width();
  for (uint64_t i = 0; i < t.row_count(); ++i) {
    for (uint64_t j = 0; j < t.row_count(); ++j) {
      if (Dominates(spec, rows.data() + i * w, rows.data() + j * w)) {
        EXPECT_LT(ord.Compare(rows.data() + i * w, rows.data() + j * w), 0)
            << i << " dominates " << j << " but sorts after it";
      }
    }
  }
}

TEST_F(RankEntropyTest, SfsWithRankOrderingMatchesOracleOnSkewedData) {
  GeneratorOptions gen;
  gen.num_rows = 3000;
  gen.num_attributes = 5;
  gen.payload_bytes = 60;
  gen.skew_exponent = 8.0;
  gen.seed = 65;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env_.get(), "t", gen));
  SkylineSpec spec = MaxSpec(t, 5);
  ASSERT_OK_AND_ASSIGN(RankEntropyOrdering ord,
                       RankEntropyOrdering::Build(&spec, t, 64, 500));
  SfsOptions opts;
  opts.presort = Presort::kCustom;
  opts.custom_ordering = &ord;
  opts.window_pages = 1;
  ASSERT_OK_AND_ASSIGN(Table sky, ComputeSkylineSfs(t, spec, opts, ExecContext(), "out", nullptr));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
}

TEST_F(RankEntropyTest, RankAtLeastMatchesMinMaxOnSkewedData) {
  // Rank normalization computes the dominance probability exactly under
  // any marginal distribution; min-max only approximates it under skew.
  // Empirically the two are close (the paper's Section 4.3 robustness
  // claim — a monotone marginal transform barely disturbs the relative
  // order), so assert rank is at least as effective here, not dominant.
  GeneratorOptions gen;
  gen.num_rows = 20000;
  gen.num_attributes = 6;
  gen.payload_bytes = 60;
  gen.skew_exponent = 10.0;
  gen.seed = 66;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env_.get(), "t", gen));
  SkylineSpec spec = MaxSpec(t, 6);

  // Both orders as kCustom presorts, which sort every row: the
  // elimination filter of the engine's own kEntropy presort would drop
  // rows that spill here, and only the orders are being compared.
  EntropyOrdering entropy(&spec, t);
  SfsOptions minmax;
  minmax.presort = Presort::kCustom;
  minmax.custom_ordering = &entropy;
  minmax.window_pages = 1;
  minmax.use_projection = false;
  SkylineRunStats minmax_stats;
  ASSERT_OK(ComputeSkylineSfs(t, spec, minmax, ExecContext(), "o1", &minmax_stats).status());

  ASSERT_OK_AND_ASSIGN(RankEntropyOrdering ord,
                       RankEntropyOrdering::Build(&spec, t, 64));
  SfsOptions rank;
  rank.presort = Presort::kCustom;
  rank.custom_ordering = &ord;
  rank.window_pages = 1;
  rank.use_projection = false;
  SkylineRunStats rank_stats;
  ASSERT_OK(ComputeSkylineSfs(t, spec, rank, ExecContext(), "o2", &rank_stats).status());

  EXPECT_EQ(rank_stats.output_rows, minmax_stats.output_rows);
  EXPECT_LE(rank_stats.spilled_tuples, minmax_stats.spilled_tuples);
}

TEST_F(RankEntropyTest, EqualsEntropyOnUniformData) {
  // On uniform marginals both normalizations approximate the same order;
  // spill counts should be in the same ballpark.
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 10000, 5, 67));
  SkylineSpec spec = MaxSpec(t, 5);
  // Both orders as kCustom presorts, as above.
  EntropyOrdering entropy(&spec, t);
  SfsOptions minmax;
  minmax.presort = Presort::kCustom;
  minmax.custom_ordering = &entropy;
  minmax.window_pages = 1;
  minmax.use_projection = false;
  SkylineRunStats minmax_stats;
  ASSERT_OK(ComputeSkylineSfs(t, spec, minmax, ExecContext(), "o1", &minmax_stats).status());
  ASSERT_OK_AND_ASSIGN(RankEntropyOrdering ord,
                       RankEntropyOrdering::Build(&spec, t, 64));
  SfsOptions rank;
  rank.presort = Presort::kCustom;
  rank.custom_ordering = &ord;
  rank.window_pages = 1;
  rank.use_projection = false;
  SkylineRunStats rank_stats;
  ASSERT_OK(ComputeSkylineSfs(t, spec, rank, ExecContext(), "o2", &rank_stats).status());
  EXPECT_LT(rank_stats.spilled_tuples, minmax_stats.spilled_tuples * 2 + 100);
  EXPECT_LT(minmax_stats.spilled_tuples, rank_stats.spilled_tuples * 2 + 100);
}

}  // namespace
}  // namespace skyline
