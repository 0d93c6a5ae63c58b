// Property-based tests: algorithm-independent invariants checked over
// parameterized sweeps of dimensions, distributions, window sizes, and
// presort orders.

#include <cstddef>
#include <cstdint>

#include "core/skyline.h"
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

// ---------------------------------------------------------------------------
// Sweep 1: SFS equals the oracle for every (dims, window, projection,
// presort) combination.

// gtest prints a parameter without a PrintTo overload as its raw bytes, and
// that dump becomes part of the test name. The padding is spelled out and
// zeroed so the name never carries uninitialized memory.
struct SfsParam {
  int dims = 0;
  int32_t pad0 = 0;
  size_t window_pages = 0;
  bool projection = false;
  uint8_t pad1[3] = {};
  Presort presort = Presort::kNested;
};
static_assert(sizeof(SfsParam) == 24, "SfsParam must have no implicit padding");

SfsParam MakeSfsParam(int dims, size_t window_pages, bool projection, Presort presort) {
  SfsParam p;
  p.dims = dims;
  p.window_pages = window_pages;
  p.projection = projection;
  p.presort = presort;
  return p;
}

class SfsPropertyTest : public ::testing::TestWithParam<SfsParam> {};

TEST_P(SfsPropertyTest, MatchesOracle) {
  const SfsParam& p = GetParam();
  auto env = NewMemEnv();
  auto t_result = MakeUniformTable(env.get(), "t", 1200, p.dims, 100 + p.dims);
  ASSERT_TRUE(t_result.ok());
  Table t = std::move(t_result).value();
  SkylineSpec spec = MaxSpec(t, p.dims);
  SfsOptions opts;
  opts.window_pages = p.window_pages;
  opts.use_projection = p.projection;
  opts.presort = p.presort;
  SkylineRunStats stats;
  auto sky_result = ComputeSkylineSfs(t, spec, opts, ExecContext(), "out", &stats);
  ASSERT_TRUE(sky_result.ok()) << sky_result.status().ToString();
  Table sky = std::move(sky_result).value();
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
  // Conservation: output <= input; each pass shrinks the problem.
  EXPECT_LE(stats.output_rows, stats.input_rows);
  EXPECT_LE(stats.spilled_tuples, stats.input_rows * stats.passes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SfsPropertyTest,
    ::testing::Values(
        MakeSfsParam(2, 1, false, Presort::kNested),
        MakeSfsParam(2, 1, true, Presort::kEntropy),
        MakeSfsParam(3, 1, false, Presort::kEntropy),
        MakeSfsParam(3, 2, true, Presort::kNested),
        MakeSfsParam(4, 1, true, Presort::kEntropy),
        MakeSfsParam(4, 500, false, Presort::kNested),
        MakeSfsParam(5, 2, true, Presort::kEntropy),
        MakeSfsParam(5, 500, true, Presort::kNested),
        MakeSfsParam(6, 1, false, Presort::kNested),
        MakeSfsParam(6, 3, true, Presort::kEntropy),
        MakeSfsParam(7, 2, false, Presort::kEntropy),
        MakeSfsParam(7, 500, true, Presort::kEntropy)),
    [](const ::testing::TestParamInfo<SfsParam>& info) {
      const SfsParam& p = info.param;
      return "d" + std::to_string(p.dims) + "_w" +
             std::to_string(p.window_pages) + (p.projection ? "_proj" : "_full") +
             (p.presort == Presort::kNested ? "_nested" : "_entropy");
    });

// ---------------------------------------------------------------------------
// Sweep 2: all four algorithms agree across data distributions.

struct DistParam {
  Distribution distribution;
  int dims;
};

class AlgorithmAgreementTest : public ::testing::TestWithParam<DistParam> {};

TEST_P(AlgorithmAgreementTest, AllAlgorithmsAgree) {
  const DistParam& p = GetParam();
  auto env = NewMemEnv();
  GeneratorOptions gen;
  gen.num_rows = 900;
  gen.num_attributes = p.dims;
  gen.payload_bytes = 8;
  gen.distribution = p.distribution;
  gen.seed = 200 + p.dims;
  auto t_result = GenerateTable(env.get(), "t", gen);
  ASSERT_TRUE(t_result.ok());
  Table t = std::move(t_result).value();
  SkylineSpec spec = MaxSpec(t, p.dims);
  const size_t w = t.schema().row_width();

  const auto oracle = OracleSkylineMultiset(t, spec);

  auto sfs = ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "sfs", nullptr);
  ASSERT_TRUE(sfs.ok());
  std::vector<char> sfs_rows = ReadAll(*sfs);
  EXPECT_EQ(RowMultiset(sfs_rows.data(), sfs->row_count(), w), oracle);

  BnlOptions bnl_opts;
  bnl_opts.window_pages = 2;  // force multi-pass on anti-correlated data
  auto bnl = ComputeSkylineBnl(t, spec, bnl_opts, ExecContext(), "bnl", nullptr);
  ASSERT_TRUE(bnl.ok());
  std::vector<char> bnl_rows = ReadAll(*bnl);
  EXPECT_EQ(RowMultiset(bnl_rows.data(), bnl->row_count(), w), oracle);

  auto dc = DivideConquerSkylineRows(t, spec);
  ASSERT_TRUE(dc.ok());
  EXPECT_EQ(RowMultiset(dc->data(), dc->size() / w, w), oracle);

  // Winnow under attribute-wise dominance.
  auto winnow = ComputeWinnow(
      t,
      [&spec](const RowView& a, const RowView& b) {
        return Dominates(spec, a.data(), b.data());
      },
      WinnowOptions{}, "winnow", nullptr);
  ASSERT_TRUE(winnow.ok());
  std::vector<char> winnow_rows = ReadAll(*winnow);
  EXPECT_EQ(RowMultiset(winnow_rows.data(), winnow->row_count(), w), oracle);

  // The 2-dim special case, when applicable.
  if (p.dims == 2) {
    auto sky2d = ComputeSkyline2D(t, spec, SortOptions{}, ExecContext(), "sky2d", nullptr);
    ASSERT_TRUE(sky2d.ok());
    std::vector<char> rows2d = ReadAll(*sky2d);
    EXPECT_EQ(RowMultiset(rows2d.data(), sky2d->row_count(), w), oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgorithmAgreementTest,
    ::testing::Values(DistParam{Distribution::kIndependent, 2},
                      DistParam{Distribution::kIndependent, 5},
                      DistParam{Distribution::kCorrelated, 3},
                      DistParam{Distribution::kCorrelated, 5},
                      DistParam{Distribution::kAntiCorrelated, 2},
                      DistParam{Distribution::kAntiCorrelated, 4}),
    [](const ::testing::TestParamInfo<DistParam>& info) {
      const char* d =
          info.param.distribution == Distribution::kIndependent ? "indep"
          : info.param.distribution == Distribution::kCorrelated ? "corr"
                                                                 : "anti";
      return std::string(d) + "_d" + std::to_string(info.param.dims);
    });

// ---------------------------------------------------------------------------
// Sweep 3: structural skyline properties on random inputs.

class SkylinePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SkylinePropertyTest, SkylineMembersAreMutuallyNonDominating) {
  auto env = NewMemEnv();
  auto t_result = MakeUniformTable(env.get(), "t", 600, 4, GetParam());
  ASSERT_TRUE(t_result.ok());
  Table t = std::move(t_result).value();
  SkylineSpec spec = MaxSpec(t, 4);
  auto sky = ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "out", nullptr);
  ASSERT_TRUE(sky.ok());
  std::vector<char> rows = ReadAll(*sky);
  const size_t w = t.schema().row_width();
  for (uint64_t i = 0; i < sky->row_count(); ++i) {
    for (uint64_t j = 0; j < sky->row_count(); ++j) {
      EXPECT_FALSE(Dominates(spec, rows.data() + i * w, rows.data() + j * w));
    }
  }
}

TEST_P(SkylinePropertyTest, EveryNonSkylineTupleIsDominatedBySkyline) {
  auto env = NewMemEnv();
  auto t_result = MakeUniformTable(env.get(), "t", 500, 3, GetParam() + 1000);
  ASSERT_TRUE(t_result.ok());
  Table t = std::move(t_result).value();
  SkylineSpec spec = MaxSpec(t, 3);
  auto sky = ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "out", nullptr);
  ASSERT_TRUE(sky.ok());
  std::vector<char> sky_rows = ReadAll(*sky);
  std::vector<char> all_rows = ReadAll(t);
  const size_t w = t.schema().row_width();
  const auto sky_set = RowMultiset(sky_rows.data(), sky->row_count(), w);
  for (uint64_t i = 0; i < t.row_count(); ++i) {
    const char* row = all_rows.data() + i * w;
    if (sky_set.count(std::string(row, w))) continue;
    bool dominated = false;
    for (uint64_t j = 0; j < sky->row_count() && !dominated; ++j) {
      dominated = Dominates(spec, sky_rows.data() + j * w, row);
    }
    EXPECT_TRUE(dominated) << "non-skyline tuple " << i
                           << " not dominated by any skyline tuple";
  }
}

TEST_P(SkylinePropertyTest, SkylineIsIdempotent) {
  // skyline(skyline(R)) == skyline(R).
  auto env = NewMemEnv();
  auto t_result = MakeUniformTable(env.get(), "t", 700, 4, GetParam() + 2000);
  ASSERT_TRUE(t_result.ok());
  Table t = std::move(t_result).value();
  SkylineSpec spec = MaxSpec(t, 4);
  auto sky1 = ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "s1", nullptr);
  ASSERT_TRUE(sky1.ok());
  auto sky2 = ComputeSkylineSfs(*sky1, spec, SfsOptions{}, ExecContext(), "s2", nullptr);
  ASSERT_TRUE(sky2.ok());
  const size_t w = t.schema().row_width();
  std::vector<char> r1 = ReadAll(*sky1);
  std::vector<char> r2 = ReadAll(*sky2);
  EXPECT_EQ(RowMultiset(r1.data(), sky1->row_count(), w),
            RowMultiset(r2.data(), sky2->row_count(), w));
}

TEST_P(SkylinePropertyTest, SubSkylineContainment) {
  // skyline over (a0,a1) is contained in skyline over (a0,a1,a2), projected
  // sanity of the paper's algebra note (sub-skylines computable from the
  // larger skyline, not vice versa).
  auto env = NewMemEnv();
  auto t_result = MakeUniformTable(env.get(), "t", 600, 3, GetParam() + 3000);
  ASSERT_TRUE(t_result.ok());
  Table t = std::move(t_result).value();
  SkylineSpec spec2 = MaxSpec(t, 2);
  SkylineSpec spec3 = MaxSpec(t, 3);
  std::vector<char> rows = ReadAll(t);
  auto sky2 = NaiveSkylineIndices(spec2, rows.data(), t.row_count());
  auto sky3 = NaiveSkylineIndices(spec3, rows.data(), t.row_count());
  std::set<uint64_t> sky3_set(sky3.begin(), sky3.end());
  for (uint64_t idx : sky2) {
    EXPECT_TRUE(sky3_set.count(idx))
        << "2-dim skyline tuple " << idx << " missing from 3-dim skyline";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkylinePropertyTest,
                         ::testing::Values(301u, 302u, 303u, 304u, 305u));

// ---------------------------------------------------------------------------
// Sweep 4: window-size monotonicity — more window pages never increase
// passes or spills for SFS.

class WindowMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(WindowMonotonicityTest, MorePagesNeverHurt) {
  auto env = NewMemEnv();
  auto t_result = MakeUniformTable(env.get(), "t", 2500, GetParam(), 400);
  ASSERT_TRUE(t_result.ok());
  Table t = std::move(t_result).value();
  SkylineSpec spec = MaxSpec(t, GetParam());
  uint64_t prev_spills = UINT64_MAX;
  uint64_t prev_passes = UINT64_MAX;
  for (size_t pages : {1u, 2u, 4u, 8u, 32u}) {
    SfsOptions opts;
    opts.window_pages = pages;
    opts.use_projection = false;
    SkylineRunStats stats;
    auto sky = ComputeSkylineSfs(t, spec, opts, ExecContext(), "out", &stats);
    ASSERT_TRUE(sky.ok());
    EXPECT_LE(stats.spilled_tuples, prev_spills) << pages;
    EXPECT_LE(stats.passes, prev_passes) << pages;
    prev_spills = stats.spilled_tuples;
    prev_passes = stats.passes;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, WindowMonotonicityTest,
                         ::testing::Values(5, 6, 7));

}  // namespace
}  // namespace skyline
