// Differential fuzzing: randomized configurations (dimensions, directive
// mixes, distributions, duplicates, window budgets, algorithms) checked
// against the naive oracle. Each seed derives every choice
// deterministically, so failures reproduce exactly.

#include "core/skyline.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::OracleSkylineMultiset;
using testing_util::ReadAll;
using testing_util::RowMultiset;

struct FuzzConfig {
  GeneratorOptions gen;
  std::vector<Criterion> criteria;
  size_t window_pages;
  bool projection;
  Presort presort;
};

FuzzConfig DeriveConfig(uint64_t seed) {
  Random rng(seed * 7919 + 13);
  FuzzConfig config;
  config.gen.num_rows = 200 + rng.Uniform(1200);
  config.gen.num_attributes = 2 + static_cast<int>(rng.Uniform(5));
  config.gen.payload_bytes = rng.Uniform(3) * 8;
  config.gen.seed = seed;
  switch (rng.Uniform(4)) {
    case 0:
      config.gen.distribution = Distribution::kCorrelated;
      break;
    case 1:
      config.gen.distribution = Distribution::kAntiCorrelated;
      break;
    default:
      config.gen.distribution = Distribution::kIndependent;
      break;
  }
  if (rng.OneIn(0.4)) {
    // Small domains: duplicates and DIFF groups become meaningful.
    config.gen.small_domain = true;
    config.gen.domain_lo = 0;
    config.gen.domain_hi = static_cast<int32_t>(2 + rng.Uniform(20));
  } else if (rng.OneIn(0.3)) {
    config.gen.skew_exponent = 1.0 + rng.UniformDouble() * 7.0;
  }
  if (rng.OneIn(0.5)) {
    // Mixed attribute types: the order-key transform must keep every
    // algorithm oracle-exact across int32/int64/float64 lanes.
    for (int i = 0; i < config.gen.num_attributes; ++i) {
      switch (rng.Uniform(3)) {
        case 0:
          config.gen.attribute_types.push_back(ColumnType::kInt32);
          break;
        case 1:
          config.gen.attribute_types.push_back(ColumnType::kInt64);
          break;
        default:
          config.gen.attribute_types.push_back(ColumnType::kFloat64);
          break;
      }
    }
  }

  // Directives: mostly MAX/MIN; one DIFF column sometimes (only useful
  // with small domains, else every group is a singleton).
  const int dims = config.gen.num_attributes;
  int diff_budget = (config.gen.small_domain && rng.OneIn(0.5)) ? 1 : 0;
  int value_criteria = 0;
  for (int i = 0; i < dims; ++i) {
    Directive directive;
    if (diff_budget > 0 && rng.OneIn(0.3)) {
      directive = Directive::kDiff;
      --diff_budget;
    } else {
      directive = rng.OneIn(0.3) ? Directive::kMin : Directive::kMax;
      ++value_criteria;
    }
    config.criteria.push_back({"a" + std::to_string(i), directive});
  }
  if (value_criteria == 0) {
    config.criteria.back().directive = Directive::kMax;
  }
  if (rng.OneIn(0.25)) {
    // Dictionary-encoded string DIFF: a bounded payload pool guarantees
    // real duplicate groups.
    if (config.gen.payload_bytes == 0) config.gen.payload_bytes = 8;
    config.gen.payload_cardinality = 2 + rng.Uniform(4);
    config.criteria.push_back({"payload", Directive::kDiff});
  }
  config.window_pages = 1 + rng.Uniform(4);
  config.projection = rng.OneIn(0.5);
  config.presort = rng.OneIn(0.5) ? Presort::kEntropy : Presort::kNested;
  return config;
}

class FuzzDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDifferentialTest, AllAlgorithmsMatchOracle) {
  const FuzzConfig config = DeriveConfig(GetParam());
  auto env = NewMemEnv();
  auto t_result = GenerateTable(env.get(), "t", config.gen);
  ASSERT_TRUE(t_result.ok()) << t_result.status().ToString();
  Table t = std::move(t_result).value();
  auto spec_result = SkylineSpec::Make(t.schema(), config.criteria);
  ASSERT_TRUE(spec_result.ok()) << spec_result.status().ToString();
  const SkylineSpec& spec = *spec_result;
  const size_t w = t.schema().row_width();
  const auto oracle = OracleSkylineMultiset(t, spec);
  const std::string ctx =
      "seed=" + std::to_string(GetParam()) + " " + spec.ToString() +
      " rows=" + std::to_string(t.row_count()) +
      " window=" + std::to_string(config.window_pages);

  // SFS with the derived knobs.
  {
    SfsOptions opts;
    opts.window_pages = config.window_pages;
    opts.use_projection = config.projection;
    opts.presort = config.presort;
    auto sky = ComputeSkylineSfs(t, spec, opts, ExecContext(), "sfs", nullptr);
    ASSERT_TRUE(sky.ok()) << ctx << ": " << sky.status().ToString();
    std::vector<char> rows = ReadAll(*sky);
    ASSERT_EQ(RowMultiset(rows.data(), sky->row_count(), w), oracle)
        << ctx << " [SFS]";
  }
  // BNL at the same window.
  {
    BnlOptions opts;
    opts.window_pages = config.window_pages;
    auto sky = ComputeSkylineBnl(t, spec, opts, ExecContext(), "bnl", nullptr);
    ASSERT_TRUE(sky.ok()) << ctx << ": " << sky.status().ToString();
    std::vector<char> rows = ReadAll(*sky);
    ASSERT_EQ(RowMultiset(rows.data(), sky->row_count(), w), oracle)
        << ctx << " [BNL]";
  }
  // Divide & conquer.
  {
    auto sky = DivideConquerSkylineRows(t, spec);
    ASSERT_TRUE(sky.ok()) << ctx;
    ASSERT_EQ(RowMultiset(sky->data(), sky->size() / w, w), oracle)
        << ctx << " [D&C]";
  }
  // Specialized scans when the dimensionality matches.
  if (spec.value_columns().size() == 2) {
    auto sky = ComputeSkyline2D(t, spec, SortOptions{}, ExecContext(), "s2d", nullptr);
    ASSERT_TRUE(sky.ok()) << ctx << ": " << sky.status().ToString();
    std::vector<char> rows = ReadAll(*sky);
    ASSERT_EQ(RowMultiset(rows.data(), sky->row_count(), w), oracle)
        << ctx << " [2D]";
  }
  if (spec.value_columns().size() == 3) {
    auto sky = ComputeSkyline3D(t, spec, SortOptions{}, ExecContext(), "s3d", nullptr);
    ASSERT_TRUE(sky.ok()) << ctx << ": " << sky.status().ToString();
    std::vector<char> rows = ReadAll(*sky);
    ASSERT_EQ(RowMultiset(rows.data(), sky->row_count(), w), oracle)
        << ctx << " [3D]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialTest,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace skyline
