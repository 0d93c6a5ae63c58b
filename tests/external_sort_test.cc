#include "sort/external_sort.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "core/scoring.h"
#include "gtest/gtest.h"
#include "relation/generator.h"
#include "storage/heap_file.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeIntTable;
using testing_util::MakeUniformTable;

/// Reads all int32 values of a single-int32-column heap file.
std::vector<int32_t> ReadInts(Env* env, const std::string& path) {
  HeapFileReader reader(env, path, 4, nullptr);
  SKYLINE_CHECK_OK(reader.Open());
  std::vector<int32_t> out;
  while (const char* rec = reader.Next()) {
    int32_t v;
    std::memcpy(&v, rec, 4);
    out.push_back(v);
  }
  return out;
}

class ExternalSortTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();
};

TEST_F(ExternalSortTest, SingleRunFitsInBuffer) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 1, {{5}, {2}, {9}, {1}, {7}}));
  LexicographicOrdering ord(&t.schema(), {{0, false}});
  TempFileManager tmp(env_.get(), "tmp");
  SortStats stats;
  ASSERT_OK_AND_ASSIGN(std::string sorted,
                       SortHeapFile(env_.get(), &tmp, "t", 4, ord,
                                    SortOptions{}, ExecContext(), &stats));
  EXPECT_EQ(ReadInts(env_.get(), sorted),
            (std::vector<int32_t>{1, 2, 5, 7, 9}));
  EXPECT_EQ(stats.runs_generated, 1u);
  EXPECT_EQ(stats.merge_levels, 0u);
}

TEST_F(ExternalSortTest, MultiRunMerge) {
  // 1024 int32 records per page; 3 buffer pages => runs of 3072.
  std::vector<std::vector<int32_t>> rows;
  Random rng(5);
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({rng.UniformInt32()});
  }
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 1, rows));
  LexicographicOrdering ord(&t.schema(), {{0, false}});
  TempFileManager tmp(env_.get(), "tmp");
  SortOptions opts;
  opts.buffer_pages = 3;
  SortStats stats;
  ASSERT_OK_AND_ASSIGN(
      std::string sorted,
      SortHeapFile(env_.get(), &tmp, "t", 4, ord, opts, ExecContext(), &stats));
  std::vector<int32_t> got = ReadInts(env_.get(), sorted);
  ASSERT_EQ(got.size(), 20000u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_GT(stats.runs_generated, 1u);
  EXPECT_GE(stats.merge_levels, 1u);
  EXPECT_GT(stats.io.pages_written, 0u);

  // Multiset preserved.
  std::vector<int32_t> want;
  for (const auto& r : rows) want.push_back(r[0]);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST_F(ExternalSortTest, MultiLevelMergeWithTinyFanIn) {
  std::vector<std::vector<int32_t>> rows;
  Random rng(6);
  for (int i = 0; i < 40000; ++i) rows.push_back({rng.UniformInt32()});
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 1, rows));
  LexicographicOrdering ord(&t.schema(), {{0, false}});
  TempFileManager tmp(env_.get(), "tmp");
  SortOptions opts;
  opts.buffer_pages = 3;  // fan-in 2 => multiple merge levels
  SortStats stats;
  ASSERT_OK_AND_ASSIGN(
      std::string sorted,
      SortHeapFile(env_.get(), &tmp, "t", 4, ord, opts, ExecContext(), &stats));
  std::vector<int32_t> got = ReadInts(env_.get(), sorted);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_GT(stats.merge_levels, 1u);
}

TEST_F(ExternalSortTest, DescendingOrder) {
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeIntTable(env_.get(), "t", 1, {{3}, {1}, {2}}));
  LexicographicOrdering ord(&t.schema(), {{0, true}});
  TempFileManager tmp(env_.get(), "tmp");
  ASSERT_OK_AND_ASSIGN(
      std::string sorted,
      SortHeapFile(env_.get(), &tmp, "t", 4, ord, SortOptions{}, ExecContext(), nullptr));
  EXPECT_EQ(ReadInts(env_.get(), sorted), (std::vector<int32_t>{3, 2, 1}));
}

TEST_F(ExternalSortTest, EmptyInput) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 1, {}));
  LexicographicOrdering ord(&t.schema(), {{0, false}});
  TempFileManager tmp(env_.get(), "tmp");
  ASSERT_OK_AND_ASSIGN(
      std::string sorted,
      SortHeapFile(env_.get(), &tmp, "t", 4, ord, SortOptions{}, ExecContext(), nullptr));
  EXPECT_TRUE(ReadInts(env_.get(), sorted).empty());
}

TEST_F(ExternalSortTest, DuplicateKeysPreserved) {
  ASSERT_OK_AND_ASSIGN(
      Table t, MakeIntTable(env_.get(), "t", 1, {{2}, {2}, {1}, {2}, {1}}));
  LexicographicOrdering ord(&t.schema(), {{0, false}});
  TempFileManager tmp(env_.get(), "tmp");
  ASSERT_OK_AND_ASSIGN(
      std::string sorted,
      SortHeapFile(env_.get(), &tmp, "t", 4, ord, SortOptions{}, ExecContext(), nullptr));
  EXPECT_EQ(ReadInts(env_.get(), sorted),
            (std::vector<int32_t>{1, 1, 2, 2, 2}));
}

TEST_F(ExternalSortTest, KeyFastPathMatchesComparatorPath) {
  // Sort the same data with the entropy ordering (scalar-key path) at two
  // buffer sizes: one-run in-memory vs multi-run external; results must
  // agree on the key sequence (descending).
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeUniformTable(env_.get(), "t", 5000, 3, 17, 0));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMax}}));
  EntropyOrdering ord(&spec, t);
  ASSERT_TRUE(ord.has_key());

  TempFileManager tmp(env_.get(), "tmp");
  SortOptions big;  // single run
  ASSERT_OK_AND_ASSIGN(std::string s1,
                       SortHeapFile(env_.get(), &tmp, "t",
                                    t.schema().row_width(), ord, big, ExecContext(), nullptr));
  SortOptions small;
  small.buffer_pages = 3;
  ASSERT_OK_AND_ASSIGN(
      std::string s2, SortHeapFile(env_.get(), &tmp, "t",
                                   t.schema().row_width(), ord, small, ExecContext(), nullptr));

  auto keys_of = [&](const std::string& path) {
    HeapFileReader reader(env_.get(), path, t.schema().row_width(), nullptr);
    SKYLINE_CHECK_OK(reader.Open());
    std::vector<double> keys;
    while (const char* rec = reader.Next()) keys.push_back(ord.Key(rec));
    return keys;
  };
  std::vector<double> k1 = keys_of(s1), k2 = keys_of(s2);
  ASSERT_EQ(k1.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(k1.rbegin(), k1.rend()));
  EXPECT_EQ(k1, k2);
}

TEST_F(ExternalSortTest, SortIsTopologicalForDominance) {
  // Theorem 7: after a nested skyline sort, no tuple dominates an earlier
  // tuple.
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeUniformTable(env_.get(), "t", 500, 3, 23, 0));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax},
                                     {"a1", Directive::kMax},
                                     {"a2", Directive::kMin}}));
  auto ord = MakeNestedSkylineOrdering(spec);
  TempFileManager tmp(env_.get(), "tmp");
  ASSERT_OK_AND_ASSIGN(
      std::string sorted,
      SortHeapFile(env_.get(), &tmp, "t", t.schema().row_width(), *ord,
                   SortOptions{}, ExecContext(), nullptr));
  HeapFileReader reader(env_.get(), sorted, t.schema().row_width(), nullptr);
  ASSERT_OK(reader.Open());
  std::vector<char> rows;
  while (const char* rec = reader.Next()) {
    rows.insert(rows.end(), rec, rec + t.schema().row_width());
  }
  const size_t width = t.schema().row_width();
  const uint64_t n = rows.size() / width;
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_FALSE(Dominates(spec, rows.data() + j * width,
                             rows.data() + i * width))
          << "tuple " << j << " dominates earlier tuple " << i;
    }
  }
}


// The sort is stable: records the ordering ranks equal keep their input
// order, also when they sit in different runs. Two criteria over a tiny
// domain give thousands of exact ties; a third column records the input
// position. 10 buffer pages of 12-byte records form two runs.
TEST_F(ExternalSortTest, EqualRecordsKeepInputOrderAcrossRuns) {
  std::vector<std::vector<int32_t>> rows;
  Random rng(41);
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({static_cast<int32_t>(rng.Uniform(4)),
                    static_cast<int32_t>(rng.Uniform(4)), i});
  }
  ASSERT_OK_AND_ASSIGN(Table t, MakeIntTable(env_.get(), "t", 3, rows));
  ASSERT_OK_AND_ASSIGN(
      SkylineSpec spec,
      SkylineSpec::Make(t.schema(), {{"a0", Directive::kMax},
                                     {"a1", Directive::kMin}}));
  const size_t width = t.schema().row_width();
  auto position = [](const char* rec) {
    int32_t v;
    std::memcpy(&v, rec + 8, sizeof(v));
    return v;
  };
  const std::unique_ptr<RowOrdering> nested = MakeNestedSkylineOrdering(spec);
  const EntropyOrdering entropy(&spec, t);
  const std::vector<const RowOrdering*> orderings = {nested.get(), &entropy};
  for (const RowOrdering* ord : orderings) {
    for (size_t threads : {1u, 2u}) {
      SortOptions options;
      options.buffer_pages = 10;
      options.threads = threads;
      TempFileManager tmp(env_.get(), "tmp");
      SortStats stats;
      ASSERT_OK_AND_ASSIGN(std::string sorted,
                           SortHeapFile(env_.get(), &tmp, "t", width, *ord,
                                        options, ExecContext(), &stats));
      ASSERT_EQ(stats.runs_generated, 2u);
      HeapFileReader reader(env_.get(), sorted, width, nullptr);
      ASSERT_OK(reader.Open());
      std::vector<char> prev(width);
      uint64_t count = 0;
      uint64_t ties = 0;
      uint64_t out_of_order = 0;
      while (const char* rec = reader.Next()) {
        if (count > 0 && ord->Compare(prev.data(), rec) == 0) {
          ++ties;
          if (position(prev.data()) > position(rec)) ++out_of_order;
        }
        std::memcpy(prev.data(), rec, width);
        ++count;
      }
      ASSERT_EQ(count, rows.size());
      EXPECT_GT(ties, 4000u);
      EXPECT_EQ(out_of_order, 0u) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace skyline
