// The LESS-style elimination filter (core/less.h) as part of the one SFS
// presort. Every SFS route runs it, so each route must emit exactly the
// bytes of the EF-free pipeline, which the fixture assembles by hand from
// SortHeapFile (no row filter) and SfsIterator.

#include "core/less.h"

#include <cstring>
#include <set>

#include "core/compute_skyline.h"
#include "core/naive.h"
#include "core/sfs.h"
#include "core/sfs_parallel.h"
#include "core/strata.h"
#include "exec/query.h"
#include "exec/skyline_op.h"
#include "gtest/gtest.h"
#include "relation/generator.h"
#include "sql/executor.h"
#include "storage/temp_file_manager.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeIntTable;
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

/// a0 DIFF, then alternating MAX/MIN criteria over a1..a{dims-1}.
SkylineSpec DiffSpec(const Table& t, int dims) {
  std::vector<Criterion> criteria = {{"a0", Directive::kDiff}};
  for (int i = 1; i < dims; ++i) {
    criteria.push_back({"a" + std::to_string(i),
                        i % 2 == 0 ? Directive::kMin : Directive::kMax});
  }
  auto result = SkylineSpec::Make(t.schema(), std::move(criteria));
  SKYLINE_CHECK(result.ok());
  return std::move(result).value();
}

/// A monotone custom preference for Presort::kCustom: the sum of the int32
/// criteria (MAX counts up, MIN counts down), best first, DIFF groups
/// outermost.
class SumPreference : public RowOrdering {
 public:
  explicit SumPreference(const SkylineSpec* spec) : spec_(spec) {}

  int Compare(const char* a, const char* b) const override {
    for (const SkylineSpec::DomColumn& col : spec_->dom_diff_columns()) {
      const int32_t va = Int(a, col);
      const int32_t vb = Int(b, col);
      if (va != vb) return va < vb ? -1 : 1;
    }
    const int64_t sa = Sum(a);
    const int64_t sb = Sum(b);
    return sa == sb ? 0 : (sa > sb ? -1 : 1);
  }

 private:
  static int32_t Int(const char* row, const SkylineSpec::DomColumn& col) {
    int32_t v;
    std::memcpy(&v, row + col.offset, sizeof(v));
    return v;
  }
  int64_t Sum(const char* row) const {
    int64_t sum = 0;
    for (const SkylineSpec::DomColumn& col : spec_->dom_value_columns()) {
      sum += col.max ? Int(row, col) : -static_cast<int64_t>(Int(row, col));
    }
    return sum;
  }

  const SkylineSpec* spec_;
};

class LessTest : public ::testing::Test {
 protected:
  /// The EF-free SFS pipeline: `sort_options` (its filter, if any, is the
  /// only elimination) sorts `t` by `ordering`, then the pipelined filter
  /// drains the sorted file.
  std::vector<char> Pipeline(const Table& t, const SkylineSpec& spec,
                             const RowOrdering& ordering, size_t window_pages,
                             bool use_projection,
                             const SortOptions& sort_options = {},
                             SortStats* sort_stats = nullptr) {
    TempFileManager tmp(env_.get(), "oracle" + std::to_string(runs_++));
    Result<std::string> sorted =
        SortHeapFile(env_.get(), &tmp, t.path(), t.schema().row_width(),
                     ordering, sort_options, ExecContext(), sort_stats);
    EXPECT_TRUE(sorted.ok()) << sorted.status().ToString();
    if (!sorted.ok()) return {};
    SfsIterator iter(env_.get(), &tmp, *sorted, &spec, window_pages,
                     use_projection, nullptr);
    EXPECT_OK(iter.Open());
    std::vector<char> out;
    while (const char* row = iter.Next()) {
      out.insert(out.end(), row, row + t.schema().row_width());
    }
    EXPECT_OK(iter.status());
    return out;
  }

  /// ParallelSfs called directly, so every host runs `threads` slices.
  std::vector<char> Sliced(const Table& t, const SkylineSpec& spec,
                           const RowOrdering* ordering, size_t threads,
                           SkylineRunStats* stats) {
    TempFileManager tmp(env_.get(), "sliced" + std::to_string(runs_++));
    ParallelSfsOptions popt;
    popt.threads = threads;
    popt.min_block_rows = 1;
    std::vector<char> out;
    const size_t width = t.schema().row_width();
    EXPECT_OK(ParallelSfs(&tmp, t, spec, ordering, /*eliminate=*/true,
                          SortOptions{}, popt,
                          [&out, width](const char* row) {
                            out.insert(out.end(), row, row + width);
                            return Status::OK();
                          },
                          stats));
    return out;
  }

  std::unique_ptr<Env> env_ = NewMemEnv();
  int runs_ = 0;
};

TEST_F(LessTest, MatchesOracle) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 2000, 4, 90));
  SkylineSpec spec = MaxSpec(t, 4);
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(
      Table sky, ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "out",
                                   &stats));
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
  const EntropyOrdering entropy(&spec, t);
  EXPECT_EQ(rows, Pipeline(t, spec, entropy, 500, true));
  EXPECT_GT(stats.sort_stats.records_filtered, 0u);
  EXPECT_EQ(stats.input_rows, t.row_count());
  EXPECT_EQ(stats.output_rows, sky.row_count());
}

// Every presort, with a one-page window (multi-pass) and the default one.
// The engine's own orders eliminate; a caller's kCustom order does not.
TEST_F(LessTest, AgreesWithSfsAcrossSeeds) {
  for (uint64_t seed : {91u, 92u, 93u}) {
    ASSERT_OK_AND_ASSIGN(
        Table t, MakeUniformTable(env_.get(), "t" + std::to_string(seed), 3000,
                                  6, seed));
    SkylineSpec spec = MaxSpec(t, 6);
    SumPreference preference(&spec);
    for (Presort presort :
         {Presort::kNested, Presort::kEntropy, Presort::kCustom}) {
      ASSERT_OK_AND_ASSIGN(
          PresortOrdering order,
          MakePresortOrdering(presort, spec, t, &preference));
      for (size_t window_pages : {1u, 500u}) {
        SfsOptions options;
        options.presort = presort;
        options.custom_ordering = &preference;
        options.window_pages = window_pages;
        options.use_projection = window_pages != 1;
        SkylineRunStats stats;
        ASSERT_OK_AND_ASSIGN(Table sky,
                             ComputeSkylineSfs(t, spec, options, ExecContext(),
                                               "s", &stats));
        const std::string ctx = "seed " + std::to_string(seed) + " presort " +
                                std::to_string(static_cast<int>(presort)) +
                                " window " + std::to_string(window_pages);
        EXPECT_EQ(ReadAll(sky),
                  Pipeline(t, spec, *order.ordering, window_pages,
                           options.use_projection))
            << ctx;
        // A caller's kCustom order is verified by the window, which must
        // see every row.
        EXPECT_EQ(stats.sort_stats.records_filtered > 0,
                  presort != Presort::kCustom)
            << ctx;
        if (window_pages == 1) {
          EXPECT_GT(stats.passes, 1u) << ctx;
        }
      }
    }
  }
}

TEST_F(LessTest, EliminationShrinksSortInput) {
  // The whole point: most dominated tuples never reach the sort runs, so
  // sort I/O drops substantially vs the EF-free pipeline (low
  // dimensionality keeps the skyline small, maximizing elimination).
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 20000, 3, 94));
  SkylineSpec spec = MaxSpec(t, 3);

  SfsOptions options;
  options.sort_options.buffer_pages = 8;  // force external behaviour
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(
      Table sky, ComputeSkylineSfs(t, spec, options, ExecContext(), "s", &stats));

  const EntropyOrdering entropy(&spec, t);
  SortStats plain;
  EXPECT_EQ(ReadAll(sky), Pipeline(t, spec, entropy, 500, true,
                                   options.sort_options, &plain));
  EXPECT_GT(stats.sort_stats.records_filtered, t.row_count() / 2);
  EXPECT_LT(stats.sort_stats.io.TotalPages(), plain.io.TotalPages() / 2);
}

// A one-page elimination window (entries evicted all the time) in the
// sort of the pipeline, under a one-page SFS window: still the EF-free
// pipeline's bytes.
TEST_F(LessTest, TinyEfWindowStillCorrect) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 1500, 5, 95));
  SkylineSpec spec = MaxSpec(t, 5);
  const EntropyOrdering entropy(&spec, t);
  EntropyScorer scorer(&spec, t);
  EliminationFilter ef(&spec, &scorer, 1);
  SortOptions sort_options;
  sort_options.filter = &ef;
  SortStats sort_stats;
  std::vector<char> rows =
      Pipeline(t, spec, entropy, 1, false, sort_options, &sort_stats);
  EXPECT_GT(sort_stats.records_filtered, 0u);
  EXPECT_EQ(rows, Pipeline(t, spec, entropy, 1, false));
  EXPECT_EQ(RowMultiset(rows.data(), rows.size() / t.schema().row_width(),
                        t.schema().row_width()),
            OracleSkylineMultiset(t, spec));
}

TEST_F(LessTest, FilterNeverDropsSkylineTuples) {
  // Run the elimination filter alone over the input and verify every
  // oracle skyline tuple survives.
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 1000, 4, 96, 0));
  SkylineSpec spec = MaxSpec(t, 4);
  EntropyScorer scorer(&spec, t);
  EliminationFilter ef(&spec, &scorer, 1);
  std::vector<char> rows = ReadAll(t);
  const size_t w = t.schema().row_width();
  std::vector<uint64_t> survivors;
  for (uint64_t i = 0; i < t.row_count(); ++i) {
    if (ef.Keep(rows.data() + i * w)) survivors.push_back(i);
  }
  std::set<uint64_t> survivor_set(survivors.begin(), survivors.end());
  for (uint64_t idx : NaiveSkylineIndices(spec, rows.data(), t.row_count())) {
    EXPECT_TRUE(survivor_set.count(idx)) << "skyline tuple " << idx
                                         << " wrongly eliminated";
  }
  EXPECT_LT(survivors.size(), t.row_count());
}

// The filter may only compare rows of one DIFF group.
TEST_F(LessTest, DiffSpecMatchesPipeline) {
  GeneratorOptions gen;
  gen.num_rows = 4000;
  gen.num_attributes = 5;
  gen.payload_bytes = 12;
  gen.small_domain = true;  // a0 has few values: DIFF groups of many rows
  gen.seed = 97;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env_.get(), "t", gen));
  SkylineSpec spec = DiffSpec(t, 5);
  SumPreference preference(&spec);
  for (Presort presort :
       {Presort::kNested, Presort::kEntropy, Presort::kCustom}) {
    ASSERT_OK_AND_ASSIGN(PresortOrdering order,
                         MakePresortOrdering(presort, spec, t, &preference));
    for (size_t window_pages : {1u, 500u}) {
      SfsOptions options;
      options.presort = presort;
      options.custom_ordering = &preference;
      options.window_pages = window_pages;
      SkylineRunStats stats;
      ASSERT_OK_AND_ASSIGN(
          Table sky,
          ComputeSkylineSfs(t, spec, options, ExecContext(), "s", &stats));
      const std::string ctx = "presort " +
                              std::to_string(static_cast<int>(presort)) +
                              " window " + std::to_string(window_pages);
      std::vector<char> rows = ReadAll(sky);
      EXPECT_EQ(rows, Pipeline(t, spec, *order.ordering, window_pages, true))
          << ctx;
      EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(),
                            t.schema().row_width()),
                OracleSkylineMultiset(t, spec))
          << ctx;
      EXPECT_EQ(stats.sort_stats.records_filtered > 0,
                presort != Presort::kCustom)
          << ctx;
    }
  }
}

// A residue run keeps every dominated row, so nothing is eliminated, and
// the iterative strata labeller, which peels the skyline off the residue
// again and again, labels every row as the multi-window strata do.
TEST_F(LessTest, ResidueRunsEliminateNothing) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 1500, 4, 98));
  SkylineSpec spec = MaxSpec(t, 4);
  SfsOptions options;
  options.residue_path = "residue";
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(
      Table sky, ComputeSkylineSfs(t, spec, options, ExecContext(), "s", &stats));
  EXPECT_EQ(stats.sort_stats.records_filtered, 0u);
  const EntropyOrdering entropy(&spec, t);
  EXPECT_EQ(ReadAll(sky), Pipeline(t, spec, entropy, 500, true));
  const size_t width = t.schema().row_width();
  std::vector<char> all = ReadAll(sky);
  HeapFileReader residue(env_.get(), "residue", width, nullptr);
  ASSERT_OK(residue.Open());
  while (const char* row = residue.Next()) {
    all.insert(all.end(), row, row + width);
  }
  std::vector<char> input = ReadAll(t);
  EXPECT_EQ(RowMultiset(all.data(), all.size() / width, width),
            RowMultiset(input.data(), t.row_count(), width));

  ASSERT_OK_AND_ASSIGN(std::vector<Table> iterative,
                       LabelStrataIterative(t, spec, SfsOptions{},
                                            ExecContext(), 1000, "it",
                                            nullptr));
  StrataOptions strata;
  strata.num_strata = iterative.size();
  ASSERT_OK_AND_ASSIGN(
      std::vector<Table> windowed,
      ComputeStrataSfs(t, spec, strata, ExecContext(), "mw", nullptr));
  ASSERT_EQ(windowed.size(), iterative.size());
  uint64_t labeled = 0;
  for (size_t i = 0; i < iterative.size(); ++i) {
    labeled += iterative[i].row_count();
    std::vector<char> a = ReadAll(iterative[i]);
    std::vector<char> b = ReadAll(windowed[i]);
    EXPECT_EQ(RowMultiset(a.data(), iterative[i].row_count(), width),
              RowMultiset(b.data(), windowed[i].row_count(), width))
        << "stratum " << i;
  }
  EXPECT_EQ(labeled, t.row_count());
}

// 1/2/4/8 slices, plain and DIFF specs: one elimination filter per deal
// stretch (or in the single slice's sort), and the pipeline's bytes.
TEST_F(LessTest, SlicesMatchPipeline) {
  GeneratorOptions gen;
  gen.num_rows = 6000;
  gen.num_attributes = 4;
  gen.payload_bytes = 12;
  gen.small_domain = true;
  gen.seed = 99;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env_.get(), "t", gen));
  for (bool with_diff : {false, true}) {
    SkylineSpec spec = with_diff ? DiffSpec(t, 4) : MaxSpec(t, 4);
    const EntropyOrdering entropy(&spec, t);
    const std::unique_ptr<LexicographicOrdering> nested =
        MakeNestedSkylineOrdering(spec);
    for (const RowOrdering* ordering :
         {static_cast<const RowOrdering*>(&entropy),
          static_cast<const RowOrdering*>(nested.get())}) {
      const std::vector<char> expected =
          Pipeline(t, spec, *ordering, 500, true);
      for (size_t threads : {1u, 2u, 4u, 8u}) {
        SkylineRunStats stats;
        EXPECT_EQ(Sliced(t, spec, ordering, threads, &stats), expected)
            << "diff " << with_diff << " threads " << threads;
        EXPECT_EQ(stats.threads_used, threads);
        EXPECT_GT(stats.sort_stats.records_filtered, 0u);
        EXPECT_EQ(stats.input_rows, t.row_count());
      }
    }
  }
}

// Every SFS route over anti-correlated rows: ComputeSkylineSfs at 1 and 4
// threads, kAuto's SFS route and the SQL skyline operator all eliminate,
// all count the table's rows as their input, and all emit the EF-free
// pipeline's bytes.
TEST_F(LessTest, EveryRouteEliminatesAndCountsHonestly) {
  GeneratorOptions gen;
  gen.num_rows = 20'000;
  gen.num_attributes = 5;
  gen.payload_bytes = 12;
  gen.distribution = Distribution::kAntiCorrelated;
  gen.seed = 31;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env_.get(), "T", gen));
  SkylineSpec spec = MaxSpec(t, 5);
  const EntropyOrdering entropy(&spec, t);
  const std::vector<char> expected = Pipeline(t, spec, entropy, 500, true);

  for (size_t threads : {1u, 4u}) {
    SfsOptions options;
    options.threads = threads;
    SkylineRunStats stats;
    ASSERT_OK_AND_ASSIGN(Table sky,
                         ComputeSkylineSfs(t, spec, options, ExecContext(),
                                           "sfs", &stats));
    EXPECT_EQ(ReadAll(sky), expected) << "threads " << threads;
    EXPECT_GT(stats.sort_stats.records_filtered, 0u) << "threads " << threads;
    EXPECT_EQ(stats.input_rows, t.row_count()) << "threads " << threads;
  }

  SkylineRunStats auto_stats;
  ASSERT_OK_AND_ASSIGN(Table auto_sky,
                       ComputeSkyline(SkylineAlgorithm::kAuto, t, spec,
                                      ExecContext(), "auto", &auto_stats));
  EXPECT_STREQ(auto_stats.access_path, "sfs");
  EXPECT_EQ(ReadAll(auto_sky), expected);
  EXPECT_GT(auto_stats.sort_stats.records_filtered, 0u);
  EXPECT_EQ(auto_stats.input_rows, t.row_count());

  std::vector<Criterion> criteria;
  for (int i = 0; i < 5; ++i) {
    criteria.push_back({"a" + std::to_string(i), Directive::kMax});
  }
  Query query(env_.get(), &t, "q");
  query.SkylineOf(criteria, SkylineAlgorithm::kSfs, SfsOptions{});
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Operator> root, query.Build());
  auto* skyline = dynamic_cast<SkylineOperator*>(root.get());
  ASSERT_NE(skyline, nullptr);
  ASSERT_OK(root->Open());
  std::vector<char> streamed;
  while (const char* row = root->Next()) {
    streamed.insert(streamed.end(), row, row + t.schema().row_width());
  }
  ASSERT_OK(root->status());
  EXPECT_EQ(streamed, expected);
  EXPECT_GT(skyline->stats().sort_stats.records_filtered, 0u);
  EXPECT_EQ(skyline->stats().input_rows, t.row_count());

  Catalog catalog(env_.get());
  catalog.Register("T", &t);
  SqlRunInfo info;
  ASSERT_OK(ExecuteSql(catalog,
                       "EXPLAIN ANALYZE SELECT * FROM T SKYLINE OF a0 MAX, "
                       "a1 MAX, a2 MAX, a3 MAX, a4 MAX",
                       SqlOptions{},
                       [](const RowView&) { return Status::OK(); }, &info));
  EXPECT_NE(info.plan_text.find("records_filtered="), std::string::npos)
      << info.plan_text;
  EXPECT_NE(info.plan_text.find("input_rows=20000"), std::string::npos)
      << info.plan_text;
}

TEST_F(LessTest, EquivalentTuplesAllSurvive) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 2, {{5, 5}, {5, 5}, {1, 1}}));
  SkylineSpec spec = MaxSpec(t, 2);
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(
      Table sky, ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "out",
                                   &stats));
  EXPECT_EQ(sky.row_count(), 2u);
  EXPECT_EQ(stats.sort_stats.records_filtered, 1u);
}

TEST_F(LessTest, EmptyInput) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {}));
  SkylineSpec spec = MaxSpec(t, 2);
  ASSERT_OK_AND_ASSIGN(
      Table sky, ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "out",
                                   nullptr));
  EXPECT_EQ(sky.row_count(), 0u);
  const EntropyOrdering entropy(&spec, t);
  SkylineRunStats stats;
  EXPECT_TRUE(Sliced(t, spec, &entropy, 4, &stats).empty());
  EXPECT_EQ(stats.input_rows, 0u);
}

TEST_F(LessTest, SchemaMismatchRejected) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 2, {{1, 2}}));
  ASSERT_OK_AND_ASSIGN(Table o, MakeIntTable(env_.get(), "o", 3, {{1, 2, 3}}));
  ASSERT_OK_AND_ASSIGN(SkylineSpec spec,
                       SkylineSpec::Make(o.schema(), {{"a2", Directive::kMax}}));
  EXPECT_TRUE(ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "out",
                                nullptr)
                  .status()
                  .IsInvalidArgument());
  // ParallelSfs scores the table's rows by the spec's columns: it must
  // refuse before it reads any.
  const EntropyOrdering entropy(&spec, o);
  TempFileManager tmp(env_.get(), "mismatch");
  EXPECT_TRUE(ParallelSfs(&tmp, t, spec, &entropy, /*eliminate=*/true,
                          SortOptions{}, ParallelSfsOptions{},
                          [](const char*) { return Status::OK(); }, nullptr)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace skyline
