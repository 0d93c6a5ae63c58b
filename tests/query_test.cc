#include "exec/query.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/thread_pool.h"
#include "core/scoring.h"
#include "gtest/gtest.h"
#include "relation/generator.h"
#include "storage/heap_file.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeUniformTable;
using testing_util::ReadAll;
using testing_util::RowMultiset;

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    auto result = MakeGoodEatsTable(env_.get(), "g");
    ASSERT_TRUE(result.ok());
    guide_.emplace(std::move(result).value());
  }

  std::unique_ptr<Env> env_;
  std::optional<Table> guide_;
};

TEST_F(QueryTest, PaperFigure4Query) {
  // select * from GoodEats skyline of S max, F max, D max, price min.
  Query query(env_.get(), &*guide_, "q");
  query.SkylineOf({{"S", Directive::kMax},
                   {"F", Directive::kMax},
                   {"D", Directive::kMax},
                   {"price", Directive::kMin}});
  std::set<std::string> names;
  ASSERT_OK(query.Run([&](const RowView& row) {
    names.insert(row.GetString(0));
    return Status::OK();
  }));
  EXPECT_EQ(names, (std::set<std::string>{"Summer Moon", "Zakopane",
                                          "Yamanote", "Fenton & Pickle"}));
}

TEST_F(QueryTest, WhereBeforeSkyline) {
  // Restrict to restaurants under $50 first; skyline within that subset.
  Query query(env_.get(), &*guide_, "q");
  query
      .Where([](const RowView& row) { return row.GetFloat64(4) < 50.0; })
      .SkylineOf({{"S", Directive::kMax},
                  {"F", Directive::kMax},
                  {"D", Directive::kMax},
                  {"price", Directive::kMin}});
  std::set<std::string> names;
  ASSERT_OK(query.Run([&](const RowView& row) {
    names.insert(row.GetString(0));
    return Status::OK();
  }));
  EXPECT_EQ(names,
            (std::set<std::string>{"Summer Moon", "Fenton & Pickle"}));
}

TEST_F(QueryTest, ProjectAfterSkyline) {
  Query query(env_.get(), &*guide_, "q");
  query.SkylineOf({{"S", Directive::kMax}, {"price", Directive::kMin}})
      .Project({"restaurant"});
  int count = 0;
  ASSERT_OK(query.Run([&](const RowView& row) {
    EXPECT_EQ(row.schema().num_columns(), 1u);
    EXPECT_FALSE(row.GetString(0).empty());
    ++count;
    return Status::OK();
  }));
  EXPECT_GT(count, 0);
}

TEST_F(QueryTest, LimitTruncates) {
  Query query(env_.get(), &*guide_, "q");
  query.SkylineOf({{"S", Directive::kMax},
                   {"F", Directive::kMax},
                   {"D", Directive::kMax},
                   {"price", Directive::kMin}})
      .Limit(2);
  int count = 0;
  ASSERT_OK(query.Run([&](const RowView&) {
    ++count;
    return Status::OK();
  }));
  EXPECT_EQ(count, 2);
}

TEST_F(QueryTest, OrderByAfterSkyline) {
  LexicographicOrdering by_price(&guide_->schema(), {{4, false}});
  Query query(env_.get(), &*guide_, "q");
  query.SkylineOf({{"S", Directive::kMax},
                   {"F", Directive::kMax},
                   {"D", Directive::kMax},
                   {"price", Directive::kMin}})
      .OrderBy(&by_price);
  std::vector<double> prices;
  ASSERT_OK(query.Run([&](const RowView& row) {
    prices.push_back(row.GetFloat64(4));
    return Status::OK();
  }));
  ASSERT_EQ(prices.size(), 4u);
  EXPECT_TRUE(std::is_sorted(prices.begin(), prices.end()));
}

TEST_F(QueryTest, BnlAlgorithmViaQuery) {
  Query query(env_.get(), &*guide_, "q");
  query.SkylineOf({{"S", Directive::kMax}, {"F", Directive::kMax}},
                  SkylineAlgorithm::kBnl);
  int count = 0;
  ASSERT_OK(query.Run([&](const RowView&) {
    ++count;
    return Status::OK();
  }));
  EXPECT_GT(count, 0);
}

TEST_F(QueryTest, VisitorErrorPropagates) {
  Query query(env_.get(), &*guide_, "q");
  Status st = query.Run(
      [](const RowView&) { return Status::Internal("visitor failed"); });
  EXPECT_TRUE(st.IsInternal());
}

TEST_F(QueryTest, BuildErrorSurfacesFromSteps) {
  Query query(env_.get(), &*guide_, "q");
  query.Project({"no_such_column"});
  EXPECT_TRUE(query.Build().status().IsNotFound());
}

TEST_F(QueryTest, ChainedSkylinesCompose) {
  // skyline of (a0,a1,a2) then skyline of (a0,a1) — the paper notes
  // sub-skylines are computable from larger skylines.
  auto env = NewMemEnv();
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env.get(), "t", 1000, 3, 71));
  Query chained(env.get(), &t, "q1");
  chained
      .SkylineOf({{"a0", Directive::kMax},
                  {"a1", Directive::kMax},
                  {"a2", Directive::kMax}})
      .SkylineOf({{"a0", Directive::kMax}, {"a1", Directive::kMax}});
  std::multiset<std::string> chained_rows;
  ASSERT_OK(chained.Run([&](const RowView& row) {
    chained_rows.emplace(row.data(), row.schema().row_width());
    return Status::OK();
  }));

  Query direct(env.get(), &t, "q2");
  direct.SkylineOf({{"a0", Directive::kMax}, {"a1", Directive::kMax}});
  std::multiset<std::string> direct_rows;
  ASSERT_OK(direct.Run([&](const RowView& row) {
    direct_rows.emplace(row.data(), row.schema().row_width());
    return Status::OK();
  }));
  EXPECT_EQ(chained_rows, direct_rows);
}


TEST_F(QueryTest, WinnowByArbitraryPreference) {
  // Prefer cheaper restaurants, but only when the service gap is small
  // (a non-monotone trade-off no skyline spec expresses).
  Query query(env_.get(), &*guide_, "q");
  query.WinnowBy([](const RowView& a, const RowView& b) {
    return a.GetFloat64(4) < b.GetFloat64(4) &&
           a.GetInt32(1) + 3 >= b.GetInt32(1);
  });
  std::set<std::string> names;
  ASSERT_OK(query.Run([&](const RowView& row) {
    names.insert(row.GetString(0));
    return Status::OK();
  }));
  // Fenton & Pickle ($17.50, S16) eliminates Briar Patch BBQ and the
  // Brearton Grill; Summer Moon ($47.50, S21) eliminates Yamanote (S22)
  // and Zakopane (S24, exactly at the +3 boundary). Nothing cheap enough
  // reaches Summer Moon's service range, and nothing beats F&P's price.
  EXPECT_EQ(names,
            (std::set<std::string>{"Fenton & Pickle", "Summer Moon"}));
}

TEST_F(QueryTest, WinnowMatchesSkylineForDominancePreference) {
  auto env = NewMemEnv();
  auto table = MakeUniformTable(env.get(), "t", 600, 3, 72);
  ASSERT_TRUE(table.ok());
  auto spec = SkylineSpec::Make(table->schema(), {{"a0", Directive::kMax},
                                                  {"a1", Directive::kMax},
                                                  {"a2", Directive::kMax}});
  ASSERT_TRUE(spec.ok());
  const SkylineSpec& s = *spec;

  Query winnow_query(env.get(), &*table, "qw");
  winnow_query.WinnowBy([&s](const RowView& a, const RowView& b) {
    return Dominates(s, a.data(), b.data());
  });
  std::multiset<std::string> winnow_rows;
  ASSERT_OK(winnow_query.Run([&](const RowView& row) {
    winnow_rows.emplace(row.data(), row.schema().row_width());
    return Status::OK();
  }));

  Query sky_query(env.get(), &*table, "qs");
  sky_query.SkylineOf({{"a0", Directive::kMax},
                       {"a1", Directive::kMax},
                       {"a2", Directive::kMax}});
  std::multiset<std::string> sky_rows;
  ASSERT_OK(sky_query.Run([&](const RowView& row) {
    sky_rows.emplace(row.data(), row.schema().row_width());
    return Status::OK();
  }));
  EXPECT_EQ(winnow_rows, sky_rows);
}

// ---- SkylineOf runs the same sequential SFS stream as ComputeSkylineSfs ----

/// A monotone custom preference for Presort::kCustom: weighted linear
/// score, best first.
class WeightedPreference : public RowOrdering {
 public:
  WeightedPreference(const SkylineSpec* spec, const Table& t,
                     std::vector<double> weights)
      : scorer_(spec, StatsOf(t), std::move(weights)) {}

  int Compare(const char* a, const char* b) const override {
    const double ka = scorer_.Score(a);
    const double kb = scorer_.Score(b);
    return ka > kb ? -1 : (kb > ka ? 1 : 0);
  }
  bool has_key() const override { return true; }
  double Key(const char* row) const override { return scorer_.Score(row); }

  static std::vector<ColumnStats> StatsOf(const Table& t) {
    std::vector<ColumnStats> stats;
    for (size_t c = 0; c < t.schema().num_columns(); ++c) {
      stats.push_back(t.stats(c));
    }
    return stats;
  }

 private:
  LinearScorer scorer_;
};

class QuerySfsTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();

  /// A copy of `t` at `path` in `ordering`'s order (stable): the input a
  /// Presort::kNone query expects.
  Result<Table> Presorted(const Table& t, const RowOrdering& ordering,
                          const std::string& path) {
    const size_t width = t.schema().row_width();
    const std::vector<char> rows = ReadAll(t);
    std::vector<size_t> order(t.row_count());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return ordering.Compare(rows.data() + a * width,
                              rows.data() + b * width) < 0;
    });
    TableBuilder builder(env_.get(), path, t.schema());
    SKYLINE_RETURN_IF_ERROR(builder.Open());
    for (size_t i : order) {
      SKYLINE_RETURN_IF_ERROR(builder.AppendRaw(rows.data() + i * width));
    }
    return builder.Finish();
  }

  /// Runs SkylineOf(criteria) over `t` through Query, appending the rows in
  /// emitted order to `rows` and copying the skyline operator's stats.
  Status RunQuery(const Table& t, std::vector<Criterion> criteria,
                  const SfsOptions& options, const std::string& prefix,
                  std::vector<char>* rows, SkylineRunStats* stats) {
    Query query(env_.get(), &t, prefix);
    query.SkylineOf(std::move(criteria), SkylineAlgorithm::kSfs, options);
    SKYLINE_ASSIGN_OR_RETURN(std::unique_ptr<Operator> root, query.Build());
    auto* skyline = dynamic_cast<SkylineOperator*>(root.get());
    if (skyline == nullptr) return Status::Internal("root is not a skyline");
    SKYLINE_RETURN_IF_ERROR(root->Open());
    const size_t width = t.schema().row_width();
    while (const char* row = root->Next()) {
      rows->insert(rows->end(), row, row + width);
    }
    SKYLINE_RETURN_IF_ERROR(root->status());
    *stats = skyline->stats();
    return Status::OK();
  }

  std::multiset<std::string> HeapFileRows(const std::string& path,
                                          size_t width) {
    std::multiset<std::string> rows;
    HeapFileReader reader(env_.get(), path, width, nullptr);
    EXPECT_OK(reader.Open());
    while (const char* row = reader.Next()) rows.emplace(row, width);
    EXPECT_OK(reader.status());
    return rows;
  }
};

std::vector<Criterion> MaxCriteria(int dims) {
  std::vector<Criterion> criteria;
  for (int i = 0; i < dims; ++i) {
    criteria.push_back({"a" + std::to_string(i), Directive::kMax});
  }
  return criteria;
}

TEST_F(QuerySfsTest, SkylineOfWritesTheResidue) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 800, 4, 41));
  const size_t width = t.schema().row_width();
  SfsOptions options;
  options.residue_path = "query_residue";
  std::vector<char> rows;
  SkylineRunStats stats;
  ASSERT_OK(RunQuery(t, MaxCriteria(4), options, "q", &rows, &stats));
  ASSERT_TRUE(env_->FileExists("query_residue"));

  // Skyline and residue partition the input.
  std::multiset<std::string> all = RowMultiset(rows.data(),
                                               rows.size() / width, width);
  const std::multiset<std::string> residue =
      HeapFileRows("query_residue", width);
  EXPECT_EQ(residue.size() + rows.size() / width, t.row_count());
  all.insert(residue.begin(), residue.end());
  const std::vector<char> input = ReadAll(t);
  EXPECT_EQ(all, RowMultiset(input.data(), t.row_count(), width));

  // The same rows and residue as ComputeSkylineSfs.
  ASSERT_OK_AND_ASSIGN(SkylineSpec spec,
                       SkylineSpec::Make(t.schema(), MaxCriteria(4)));
  options.residue_path = "direct_residue";
  ASSERT_OK_AND_ASSIGN(Table direct, ComputeSkylineSfs(t, spec, options,
                                                       ExecContext(),
                                                       "direct", nullptr));
  EXPECT_EQ(ReadAll(direct), rows);
  EXPECT_EQ(HeapFileRows("direct_residue", width), residue);
}

// Presort::kNone filters the table file itself, so its zone maps let the
// filter skip whole dominated blocks — through Query as directly.
TEST_F(QuerySfsTest, PresortNoneZonePrefilterMatchesComputeSkylineSfs) {
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeUniformTable(env_.get(), "t", 20000, 3, 42));
  ASSERT_OK_AND_ASSIGN(SkylineSpec spec,
                       SkylineSpec::Make(t.schema(), MaxCriteria(3)));
  EntropyOrdering entropy(&spec, t);
  ASSERT_OK_AND_ASSIGN(Table sorted, Presorted(t, entropy, "sorted"));
  SfsOptions none;
  none.presort = Presort::kNone;
  SkylineRunStats direct;
  ASSERT_OK_AND_ASSIGN(Table sky, ComputeSkylineSfs(sorted, spec, none,
                                                    ExecContext(), "direct",
                                                    &direct));
  ASSERT_GT(direct.table_zone_blocks_pruned, 0u);

  Query query(env_.get(), &sorted, "qz");
  query.SkylineOf(MaxCriteria(3), SkylineAlgorithm::kSfs, none);
  const size_t width = t.schema().row_width();
  std::vector<char> rows;
  std::vector<PlanNodeStats> plan;
  ASSERT_OK(query.RunProfiled(
      [&](const RowView& row) {
        rows.insert(rows.end(), row.data(), row.data() + width);
        return Status::OK();
      },
      &plan));
  EXPECT_EQ(rows, ReadAll(sky));
  ASSERT_FALSE(plan.empty());
  auto counter = [&plan](const std::string& key) -> uint64_t {
    for (const auto& kv : plan[0].counters) {
      if (kv.first == key) return kv.second;
    }
    return 0;
  };
  EXPECT_EQ(counter("table_zone_blocks_pruned"),
            direct.table_zone_blocks_pruned);
  EXPECT_EQ(counter("window_comparisons"), direct.window_comparisons);
}

// A request for more workers than the host has is clamped for the presort
// too, also when residue_path keeps the filter sequential.
TEST_F(QuerySfsTest, ResidueQueryClampsItsSortWorkers) {
  const size_t hardware = ClampThreadsToHardware(0);
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 800, 4, 43));
  SfsOptions options;
  options.threads = hardware + 1;
  options.residue_path = "clamp_residue";
  std::vector<char> rows;
  SkylineRunStats stats;
  ASSERT_OK(RunQuery(t, MaxCriteria(4), options, "q", &rows, &stats));
  EXPECT_GE(stats.sort_stats.threads_used, 1u);
  EXPECT_LE(stats.sort_stats.threads_used, hardware);
  EXPECT_EQ(stats.threads_requested, hardware + 1);
  EXPECT_EQ(stats.threads_used, 1u);
  EXPECT_STREQ(stats.threads_limited_by, "residue_path");
}

// Query's sequential SFS and ComputeSkylineSfs are one implementation:
// the same bytes in the same order and the same counters, for every
// presort and with a DIFF criterion.
TEST_F(QuerySfsTest, MatchesComputeSkylineSfsForEveryPresort) {
  GeneratorOptions gen;
  gen.num_rows = 3000;
  gen.num_attributes = 4;
  gen.payload_bytes = 8;
  gen.small_domain = true;  // exact duplicates and real DIFF groups
  gen.distribution = Distribution::kAntiCorrelated;
  gen.seed = 44;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env_.get(), "t", gen));
  const std::vector<Criterion> plain = {{"a0", Directive::kMax},
                                        {"a1", Directive::kMin},
                                        {"a2", Directive::kMax},
                                        {"a3", Directive::kMax}};
  const std::vector<Criterion> diff = {{"a0", Directive::kDiff},
                                       {"a1", Directive::kMin},
                                       {"a2", Directive::kMax},
                                       {"a3", Directive::kMax}};
  int config = 0;
  for (const std::vector<Criterion>* criteria : {&plain, &diff}) {
    ASSERT_OK_AND_ASSIGN(SkylineSpec spec,
                         SkylineSpec::Make(t.schema(), *criteria));
    std::vector<double> weights(spec.value_columns().size(), 1.0);
    weights[0] = 3.0;
    WeightedPreference preference(&spec, t, std::move(weights));
    std::unique_ptr<RowOrdering> nested = MakeNestedSkylineOrdering(spec);
    const std::string tag = "c" + std::to_string(config++);
    ASSERT_OK_AND_ASSIGN(Table sorted,
                         Presorted(t, *nested, "sorted_" + tag));
    std::vector<Presort> presorts = {Presort::kNested, Presort::kEntropy,
                                     Presort::kNone};
    // A linear score does not keep DIFF groups contiguous.
    if (!spec.has_diff()) presorts.push_back(Presort::kCustom);
    for (Presort presort : presorts) {
      const std::string name =
          tag + "_p" + std::to_string(static_cast<int>(presort));
      const Table& input = presort == Presort::kNone ? sorted : t;
      SfsOptions options;
      options.presort = presort;
      options.custom_ordering = &preference;
      options.threads = 1;
      SkylineRunStats want;
      ASSERT_OK_AND_ASSIGN(Table sky,
                           ComputeSkylineSfs(input, spec, options,
                                             ExecContext(), "direct_" + name,
                                             &want));
      std::vector<char> rows;
      SkylineRunStats got;
      ASSERT_OK(RunQuery(input, *criteria, options, "q_" + name, &rows, &got));
      ASSERT_FALSE(rows.empty()) << name;
      EXPECT_EQ(rows, ReadAll(sky)) << name;
      EXPECT_EQ(got.input_rows, want.input_rows) << name;
      EXPECT_EQ(got.output_rows, want.output_rows) << name;
      EXPECT_EQ(got.passes, want.passes) << name;
      EXPECT_EQ(got.window_comparisons, want.window_comparisons) << name;
      EXPECT_EQ(got.table_zone_blocks_pruned, want.table_zone_blocks_pruned)
          << name;
      EXPECT_EQ(got.spilled_tuples, want.spilled_tuples) << name;
      EXPECT_EQ(got.sort_stats.runs_generated, want.sort_stats.runs_generated)
          << name;
      EXPECT_EQ(got.threads_requested, want.threads_requested) << name;
      EXPECT_STREQ(got.threads_limited_by, want.threads_limited_by) << name;
    }
  }
}

// LIMIT over SkylineOf stops the pipelined filter once it has its rows.
TEST_F(QuerySfsTest, LimitStopsTheFilterEarly) {
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeUniformTable(env_.get(), "t", 2000, 5, 45));
  ASSERT_OK_AND_ASSIGN(SkylineSpec spec,
                       SkylineSpec::Make(t.schema(), MaxCriteria(5)));
  SkylineRunStats full;
  ASSERT_OK_AND_ASSIGN(Table sky, ComputeSkylineSfs(t, spec, SfsOptions{},
                                                    ExecContext(), "full",
                                                    &full));
  ASSERT_GT(full.output_rows, 5u);

  Query query(env_.get(), &t, "ql");
  query.SkylineOf(MaxCriteria(5)).Limit(5);
  std::vector<PlanNodeStats> plan;
  ASSERT_OK(query.RunProfiled([](const RowView&) { return Status::OK(); },
                              &plan));
  ASSERT_EQ(plan.size(), 3u);  // Limit, Skyline, TableScan
  EXPECT_EQ(plan[1].rows_out, 5u);
  uint64_t comparisons = 0;
  for (const auto& kv : plan[1].counters) {
    if (kv.first == "window_comparisons") comparisons = kv.second;
  }
  EXPECT_LT(comparisons, full.window_comparisons);
}


// A staged input lands at the same temp path in every query under one
// prefix: the skyline operator stages any child but a bare table scan, and
// a constrained skyline stages the rows inside its box. Zones that an
// earlier staged table of the same size left in the process-wide zone
// cache must not steer a later Presort::kNone filter.
TEST_F(QuerySfsTest, StagedInputNeverReadsAnEarlierQuerysZones) {
  // Two 128-row tables in a monotone order that share block 0. Block 1 of
  // `first` is dominated wholesale; block 1 of `second` opens with a
  // skyline row.
  std::vector<std::vector<int32_t>> first_rows = {{100, 100, 100}};
  first_rows.insert(first_rows.end(), 63, {50, 50, 50});
  std::vector<std::vector<int32_t>> second_rows = first_rows;
  first_rows.insert(first_rows.end(), 64, {1, 1, 1});
  second_rows.push_back({10, 10, 200});
  second_rows.insert(second_rows.end(), 63, {1, 1, 1});
  ASSERT_OK_AND_ASSIGN(Table first,
                       testing_util::MakeIntTable(env_.get(), "first", 3,
                                                  first_rows));
  ASSERT_OK_AND_ASSIGN(Table second,
                       testing_util::MakeIntTable(env_.get(), "second", 3,
                                                  second_rows));
  SfsOptions none;
  none.presort = Presort::kNone;
  SkylineConstraint everything;
  everything.bounds.push_back({0, 0, 1000});
  for (bool constrained : {false, true}) {
    for (const Table* table : {&first, &second}) {
      Query query(env_.get(), table, constrained ? "boxed" : "filtered");
      if (constrained) {
        query.SkylineOf(MaxCriteria(3), SkylineAlgorithm::kSfs, none, {},
                        everything);
      } else {
        query.Where([](const RowView&) { return true; })
            .SkylineOf(MaxCriteria(3), SkylineAlgorithm::kSfs, none);
      }
      int rows = 0;
      ASSERT_OK(query.Run([&rows](const RowView&) {
        ++rows;
        return Status::OK();
      }));
      EXPECT_EQ(rows, table == &first ? 1 : 2)
          << table->path() << (constrained ? " constrained" : " filtered");
    }
  }
}

}  // namespace
}  // namespace skyline
