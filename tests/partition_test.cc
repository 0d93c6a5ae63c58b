#include "core/partition.h"

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/thread_pool.h"
#include "core/dominance_batch.h"
#include "core/run_report.h"
#include "core/sfs.h"
#include "core/sfs_parallel.h"
#include "gtest/gtest.h"
#include "relation/generator.h"
#include "sort/external_sort.h"
#include "storage/heap_file.h"
#include "storage/temp_file_manager.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::ReadAll;

class PartitionTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();
};

SkylineSpec MixedSpec(const Table& t, int dims, bool with_diff) {
  std::vector<Criterion> criteria;
  for (int i = 0; i < dims; ++i) {
    Directive d = (i % 2 == 0) ? Directive::kMax : Directive::kMin;
    if (with_diff && i == 0) d = Directive::kDiff;
    criteria.push_back({"a" + std::to_string(i), d});
  }
  auto result = SkylineSpec::Make(t.schema(), std::move(criteria));
  SKYLINE_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

Result<Table> MakeTable(Env* env, const std::string& name, uint64_t rows,
                        int dims, Distribution dist, uint64_t seed) {
  GeneratorOptions gen;
  gen.num_rows = rows;
  gen.num_attributes = dims;
  gen.payload_bytes = 12;
  gen.distribution = dist;
  gen.seed = seed;
  return GenerateTable(env, name, gen);
}

std::string Presort(Env* env, TempFileManager* temp_files, const Table& t,
                    const SkylineSpec& spec) {
  std::unique_ptr<RowOrdering> ordering = MakeNestedSkylineOrdering(spec);
  auto sorted = SortHeapFile(env, temp_files, t.path(),
                             t.schema().row_width(), *ordering, SortOptions{},
                             ExecContext(),
                             nullptr);
  SKYLINE_CHECK(sorted.ok()) << sorted.status().ToString();
  return std::move(sorted).value();
}

Result<std::vector<char>> RunParallel(Env* env, const std::string& sorted,
                                      const SkylineSpec& spec,
                                      const ParallelSfsOptions& options,
                                      SkylineRunStats* stats = nullptr) {
  std::vector<char> out;
  const size_t width = spec.schema().row_width();
  SKYLINE_RETURN_IF_ERROR(ParallelSfsFilter(
      env, sorted, spec, options,
      [&out, width](const char* row) {
        out.insert(out.end(), row, row + width);
        return Status::OK();
      },
      stats));
  return out;
}

// Fitting the partitioner twice over the same file must assign every row
// to the same partition (deterministic sampling/boundaries), and every
// assignment must be a valid partition id. Determinism of the fit is what
// makes the merge counters reproducible run to run.
TEST_F(PartitionTest, OwnerAssignmentsDeterministicAndInRange) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeTable(env_.get(), "t", 6000, 4,
                                          Distribution::kAntiCorrelated, 7));
  SkylineSpec spec = MixedSpec(t, 4, /*with_diff=*/false);
  TempFileManager temp_files(env_.get(), "psort");
  const std::string sorted = Presort(env_.get(), &temp_files, t, spec);
  const size_t width = spec.schema().row_width();
  const size_t partitions = 5;

  ASSERT_OK_AND_ASSIGN(
      AngularPartitioner a,
      AngularPartitioner::Fit(env_.get(), sorted, spec, partitions));
  ASSERT_OK_AND_ASSIGN(
      AngularPartitioner b,
      AngularPartitioner::Fit(env_.get(), sorted, spec, partitions));
  EXPECT_EQ(a.partitions(), partitions);

  HeapFileReader reader(env_.get(), sorted, width, nullptr);
  ASSERT_OK(reader.Open());
  std::vector<uint64_t> per_partition(partitions, 0);
  for (uint64_t i = 0; i < reader.record_count(); ++i) {
    const char* row = reader.Next();
    ASSERT_NE(row, nullptr);
    const size_t owner = a.OwnerOf(row);
    ASSERT_LT(owner, partitions);
    ASSERT_EQ(owner, b.OwnerOf(row)) << "row " << i;
    ++per_partition[owner];
  }
  // Equi-depth fitting should touch every partition on 6k smooth rows.
  for (size_t p = 0; p < partitions; ++p) {
    EXPECT_GT(per_partition[p], 0u) << "p=" << p;
  }
}

/// 4000 rows over a0..a4 whose first three criteria are constant: every
/// sampled angle is 0, so the angular fit collapses to one slice and all
/// rows land in one partition.
Result<Table> MakeConstantLeadTable(Env* env, const std::string& name) {
  std::vector<std::vector<int32_t>> rows;
  uint64_t state = 12345;
  for (int i = 0; i < 4000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const auto a3 = static_cast<int32_t>((state >> 33) % 1000);
    const auto a4 = static_cast<int32_t>((state >> 13) % 1000);
    rows.push_back({7, 7, 7, a3, a4});
  }
  return testing_util::MakeIntTable(env, name, 5, rows);
}

// The non-negotiable guarantee: every thread count emits byte-for-byte
// what sequential SFS emits.
TEST_F(PartitionTest, ByteIdenticalAcrossSchemesAndThreadCounts) {
  std::vector<std::pair<Table, bool>> inputs;  // table, DIFF spec
  int config = 0;
  for (Distribution dist :
       {Distribution::kCorrelated, Distribution::kAntiCorrelated}) {
    for (bool with_diff : {false, true}) {
      ++config;
      ASSERT_OK_AND_ASSIGN(
          Table t, MakeTable(env_.get(), "t_cfg" + std::to_string(config),
                             4000, 5, dist, 400 + config));
      inputs.emplace_back(std::move(t), with_diff);
    }
  }
  ASSERT_OK_AND_ASSIGN(Table constant_lead,
                       MakeConstantLeadTable(env_.get(), "t_const"));
  inputs.emplace_back(std::move(constant_lead), false);

  for (size_t input = 0; input < inputs.size(); ++input) {
    const Table& t = inputs[input].first;
    const std::string tag = "in" + std::to_string(input);
    SkylineSpec spec = MixedSpec(t, 5, inputs[input].second);

    SfsOptions seq;
    seq.presort = Presort::kNested;
    ASSERT_OK_AND_ASSIGN(
        Table baseline,
        ComputeSkylineSfs(t, spec, seq, ExecContext(), "seq_" + tag, nullptr));
    const std::vector<char> expected = ReadAll(baseline);
    ASSERT_FALSE(expected.empty()) << tag;

    TempFileManager temp_files(env_.get(), "psort_" + tag);
    const std::string sorted = Presort(env_.get(), &temp_files, t, spec);
    if (input + 1 == inputs.size()) {
      // The constant-lead input really does collapse to one slice.
      ASSERT_OK_AND_ASSIGN(AngularPartitioner fit,
                           AngularPartitioner::Fit(env_.get(), sorted, spec, 4));
      HeapFileReader reader(env_.get(), sorted, spec.schema().row_width(),
                            nullptr);
      ASSERT_OK(reader.Open());
      const char* first = reader.Next();
      ASSERT_NE(first, nullptr);
      const size_t slice = fit.OwnerOf(first);
      while (const char* row = reader.Next()) {
        ASSERT_EQ(fit.OwnerOf(row), slice);
      }
    }
    for (size_t threads : {1u, 4u, 16u}) {
      ParallelSfsOptions popt;
      popt.threads = threads;
      popt.min_block_rows = 1;
      SkylineRunStats stats;
      ASSERT_OK_AND_ASSIGN(
          std::vector<char> got,
          RunParallel(env_.get(), sorted, spec, popt, &stats));
      ASSERT_EQ(got.size(), expected.size())
          << tag << " threads=" << threads;
      ASSERT_EQ(0, std::memcmp(got.data(), expected.data(), got.size()))
          << tag << " threads=" << threads;
      EXPECT_EQ(stats.threads_used, threads);
      if (threads > 1) {
        EXPECT_EQ(stats.merge_candidates > 0, stats.output_rows > 0);
      }
    }
  }
}

// The CI-friendly simulated-shard harness: on a host of any core count,
// forcing 16 single-threaded "shards" through the filter exercises the
// full multi-partition merge. Angular partitions plus the representative
// pre-prune and filtered cascade must cut cross-block dominance tests by
// at least 5x against the v1 configuration (stride partitions, all-pairs
// merge), while emitting sequential SFS's bytes. The v1 code is gone; its
// counters for this exact table at 16 shards were recorded before its
// removal (columnar path).
TEST_F(PartitionTest, SimulatedShardCascadeCutsMergeComparisons) {
  constexpr uint64_t kStrideAllPairsMergeComparisons = 772'793;
  constexpr uint64_t kStrideAllPairsMergeCandidates = 2'536;
  ASSERT_OK_AND_ASSIGN(Table t, MakeTable(env_.get(), "t", 30'000, 5,
                                          Distribution::kAntiCorrelated, 11));
  SkylineSpec spec = MixedSpec(t, 5, /*with_diff=*/false);
  ASSERT_TRUE(DominanceIndex(&spec).columnar());

  SfsOptions seq;
  seq.presort = Presort::kNested;
  ASSERT_OK_AND_ASSIGN(
      Table sequential,
      ComputeSkylineSfs(t, spec, seq, ExecContext(), "seq", nullptr));
  const std::vector<char> expected = ReadAll(sequential);

  TempFileManager temp_files(env_.get(), "psort");
  const std::string sorted = Presort(env_.get(), &temp_files, t, spec);
  ParallelSfsOptions cascade;
  cascade.threads = 16;  // simulated shards, deliberately ignoring hardware
  cascade.min_block_rows = 1;
  SkylineRunStats cascade_stats;
  ASSERT_OK_AND_ASSIGN(
      std::vector<char> got,
      RunParallel(env_.get(), sorted, spec, cascade, &cascade_stats));

  ASSERT_EQ(got.size(), expected.size());
  ASSERT_EQ(0, std::memcmp(got.data(), expected.data(), got.size()));
  EXPECT_EQ(cascade_stats.threads_used, 16u);
  // Angular partitions admit far fewer false candidates than stride.
  EXPECT_LT(cascade_stats.merge_candidates, kStrideAllPairsMergeCandidates);
  EXPECT_GT(cascade_stats.representative_prunes, 0u);
  EXPECT_GE(cascade_stats.cascade_levels, 4u);  // 16 lists halve to 1

  ASSERT_GT(cascade_stats.merge_comparisons, 0u);
  const double reduction =
      static_cast<double>(kStrideAllPairsMergeComparisons) /
      static_cast<double>(cascade_stats.merge_comparisons);
  EXPECT_GE(reduction, 5.0)
      << "all_pairs=" << kStrideAllPairsMergeComparisons
      << " cascade=" << cascade_stats.merge_comparisons;

  // Determinism of the counters themselves: a re-run reproduces them.
  SkylineRunStats again;
  ASSERT_OK_AND_ASSIGN(std::vector<char> rerun,
                       RunParallel(env_.get(), sorted, spec, cascade, &again));
  EXPECT_EQ(rerun, got);
  EXPECT_EQ(again.merge_comparisons, cascade_stats.merge_comparisons);
  EXPECT_EQ(again.representative_prunes, cascade_stats.representative_prunes);
  EXPECT_EQ(again.merge_blocks_pruned, cascade_stats.merge_blocks_pruned);
}

// Cancellation raised while the merge phase runs must surface promptly as
// kCancelled — and the pool must drain cleanly (the filter returns only
// after its ParallelFor loops complete, so no work leaks past the call).
// The deal and the slice filters poll every 4096 rows, so the input is
// sized below that interval: the first hook call after entry happens
// inside the merge.
TEST_F(PartitionTest, CancelDuringMergeReturnsCancelled) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeTable(env_.get(), "t", 4000, 5,
                                          Distribution::kAntiCorrelated, 3));
  SkylineSpec spec = MixedSpec(t, 5, /*with_diff=*/false);
  TempFileManager temp_files(env_.get(), "psort");
  const std::string sorted = Presort(env_.get(), &temp_files, t, spec);

  auto calls = std::make_shared<std::atomic<uint64_t>>(0);
  ExecContext ctx;
  ctx.cancelled = [calls]() {
    // Call #1 is the entry check; every later call (the merge polls)
    // reports cancellation.
    return calls->fetch_add(1, std::memory_order_relaxed) >= 1;
  };
  ParallelSfsOptions popt;
  popt.threads = 4;
  popt.min_block_rows = 1;
  popt.exec = &ctx;
  size_t emitted = 0;
  const Status st = ParallelSfsFilter(
      env_.get(), sorted, spec, popt,
      [&emitted](const char*) {
        ++emitted;
        return Status::OK();
      },
      nullptr);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  EXPECT_EQ(emitted, 0u) << "rows emitted after cancellation";
  EXPECT_GE(calls->load(), 2u) << "merge phase never polled the hook";
}

// Degraded-parallelism honesty: an input too small for the requested
// shard count must raise the flag, render the report warning, and record
// the JSON keys the bench consumers read.
TEST_F(PartitionTest, DegradedParallelismIsReported) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeTable(env_.get(), "t", 6000, 4,
                                          Distribution::kIndependent, 5));
  SkylineSpec spec = MixedSpec(t, 4, /*with_diff=*/false);
  TempFileManager temp_files(env_.get(), "psort");
  const std::string sorted = Presort(env_.get(), &temp_files, t, spec);

  ParallelSfsOptions popt;
  popt.threads = 16;
  popt.min_block_rows = 4096;  // 6000 rows -> 1 block despite 16 requested
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<char> got,
                       RunParallel(env_.get(), sorted, spec, popt, &stats));
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(stats.threads_requested, 16u);
  EXPECT_EQ(stats.threads_used, 1u);
  EXPECT_TRUE(stats.DegradedParallelism());
  EXPECT_STREQ(stats.threads_limited_by, "input_rows");

  RunReport report;
  report.tool = "test";
  report.stats = stats;
  const std::string text = RenderRunReportText(report);
  EXPECT_NE(text.find("degraded parallelism"), std::string::npos) << text;
  EXPECT_NE(text.find("limited by input_rows"), std::string::npos) << text;
  const std::string json = RenderRunReportJson(report);
  EXPECT_NE(json.find("\"threads_limited_by\": \"input_rows\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"degraded_parallelism\": true"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"threads_requested\": 16"), std::string::npos) << json;

  // An honored request must not warn.
  SkylineRunStats honored;
  honored.threads_requested = 2;
  honored.threads_used = 2;
  EXPECT_FALSE(honored.DegradedParallelism());
  RunReport ok_report;
  ok_report.tool = "test";
  ok_report.stats = honored;
  EXPECT_EQ(RenderRunReportText(ok_report).find("degraded parallelism"),
            std::string::npos);
}

}  // namespace
}  // namespace skyline
