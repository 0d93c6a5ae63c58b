#include "core/sfs_parallel.h"

#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/run_report.h"
#include "core/scoring.h"
#include "core/sfs.h"
#include "gtest/gtest.h"
#include "relation/generator.h"
#include "sql/executor.h"
#include "storage/temp_file_manager.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeUniformTable;
using testing_util::OracleSkylineMultiset;
using testing_util::ReadAll;
using testing_util::RowMultiset;

class SfsParallelTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();
};

/// Criteria over a0..a{dims-1}: alternating MAX/MIN, optionally with a0
/// turned into a DIFF partition column.
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

/// Presorts `t` with the nested skyline ordering (the deterministic order
/// both the sequential baseline and the parallel runs share) and returns
/// the sorted file's path.
std::string PresortNested(Env* env, TempFileManager* temp_files, const Table& t,
                    const SkylineSpec& spec) {
  std::unique_ptr<RowOrdering> ordering = MakeNestedSkylineOrdering(spec);
  auto sorted = SortHeapFile(env, temp_files, t.path(),
                             t.schema().row_width(), *ordering, SortOptions{},
                             ExecContext(),
                             nullptr);
  SKYLINE_CHECK(sorted.ok()) << sorted.status().ToString();
  return std::move(sorted).value();
}

/// Runs the block-parallel filter and returns the concatenated output rows.
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

// The core determinism guarantee: for every thread count, block-parallel
// SFS emits byte-for-byte the rows sequential SFS emits, across
// dimensionalities, correlated/anti-correlated data, and DIFF + MIN/MAX
// spec mixes.
TEST_F(SfsParallelTest, ByteIdenticalToSequentialAcrossThreadCounts) {
  int config = 0;
  for (int dims : {2, 5, 7}) {
    for (Distribution dist :
         {Distribution::kCorrelated, Distribution::kAntiCorrelated}) {
      for (bool with_diff : {false, true}) {
        GeneratorOptions gen;
        gen.num_rows = 3000;
        gen.num_attributes = dims;
        gen.payload_bytes = 12;
        gen.distribution = dist;
        gen.seed = 100 + config;
        // Small domains give the DIFF column a handful of real groups and
        // force heavy tie-breaking in the sort order.
        gen.small_domain = with_diff;
        const std::string tag = "cfg" + std::to_string(config);
        ASSERT_OK_AND_ASSIGN(Table t,
                             GenerateTable(env_.get(), "t_" + tag, gen));
        SkylineSpec spec = MixedSpec(t, dims, with_diff);

        SfsOptions seq;
        seq.presort = Presort::kNested;
        seq.use_projection = (config % 2 == 0);  // cover both window modes
        ASSERT_OK_AND_ASSIGN(
            Table baseline,
            ComputeSkylineSfs(t, spec, seq, ExecContext(), "seq_" + tag, nullptr));
        const std::vector<char> expected = ReadAll(baseline);

        TempFileManager temp_files(env_.get(), "psort_" + tag);
        const std::string sorted = PresortNested(env_.get(), &temp_files, t, spec);
        for (size_t threads : {1u, 2u, 4u, 8u}) {
          ParallelSfsOptions popt;
          popt.use_projection = seq.use_projection;
          popt.threads = threads;
          popt.min_block_rows = 1;  // force one block per worker
          SkylineRunStats stats;
          ASSERT_OK_AND_ASSIGN(
              std::vector<char> got,
              RunParallel(env_.get(), sorted, spec, popt, &stats));
          ASSERT_EQ(got.size(), expected.size())
              << "dims=" << dims << " dist=" << static_cast<int>(dist)
              << " diff=" << with_diff << " threads=" << threads;
          ASSERT_TRUE(std::memcmp(got.data(), expected.data(), got.size()) ==
                      0)
              << "dims=" << dims << " dist=" << static_cast<int>(dist)
              << " diff=" << with_diff << " threads=" << threads;
          EXPECT_EQ(stats.output_rows, baseline.row_count());
          EXPECT_EQ(stats.threads_used, threads);
        }
        ++config;
      }
    }
  }
}

// Tiny per-worker windows force the in-memory multi-pass fallback inside
// each block; the result must still be the exact skyline (order-insensitive
// check against the sequential filter, which emits pass-major order).
TEST_F(SfsParallelTest, TinyWindowMultiPassMatchesSequential) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 4000, 7, 9));
  SkylineSpec spec = MixedSpec(t, 7, /*with_diff=*/false);

  SfsOptions seq;
  seq.presort = Presort::kNested;
  seq.window_pages = 1;
  seq.use_projection = false;
  SkylineRunStats seq_stats;
  ASSERT_OK_AND_ASSIGN(Table baseline,
                       ComputeSkylineSfs(t, spec, seq, ExecContext(), "seq", &seq_stats));
  ASSERT_GT(seq_stats.passes, 1u) << "window too large to exercise spilling";
  std::vector<char> expected_rows = ReadAll(baseline);

  TempFileManager temp_files(env_.get(), "psort");
  const std::string sorted = PresortNested(env_.get(), &temp_files, t, spec);
  ParallelSfsOptions popt;
  popt.window_pages = 1;
  popt.use_projection = false;
  popt.threads = 4;
  popt.min_block_rows = 1;
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<char> got,
                       RunParallel(env_.get(), sorted, spec, popt, &stats));
  const size_t width = spec.schema().row_width();
  EXPECT_GT(stats.passes, 1u);
  EXPECT_EQ(RowMultiset(got.data(), got.size() / width, width),
            RowMultiset(expected_rows.data(), baseline.row_count(), width));
}

// End-to-end through the public SfsOptions::threads knob (table large
// enough that min_block_rows still yields multiple blocks) — output must
// equal the sequential computation byte for byte, and match the oracle.
TEST_F(SfsParallelTest, ComputeSkylineSfsThreadsKnob) {
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeUniformTable(env_.get(), "t", 10'000, 5, 11));
  SkylineSpec spec = MixedSpec(t, 5, /*with_diff=*/false);
  ASSERT_OK_AND_ASSIGN(
      Table baseline, ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "seq", nullptr));
  const std::vector<char> expected = ReadAll(baseline);

  SfsOptions par;
  par.threads = 4;
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(Table sky,
                       ComputeSkylineSfs(t, spec, par, ExecContext(), "par", &stats));
  std::vector<char> got = ReadAll(sky);
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_TRUE(std::memcmp(got.data(), expected.data(), got.size()) == 0);
  // The knob is clamped to the hardware: on a multi-core host the parallel
  // filter runs (10k rows / 4096 min block = 2 blocks) and the knob reaches
  // the sorter; a 1-core host falls back to the sequential filter entirely.
  const size_t clamped = ClampThreadsToHardware(par.threads);
  if (clamped > 1) {
    EXPECT_EQ(stats.threads_used, 2u);
    EXPECT_GT(stats.sort_stats.threads_used, 1u);
  } else {
    EXPECT_EQ(stats.threads_used, 1u);
    EXPECT_EQ(stats.sort_stats.threads_used, 1u);
  }
  EXPECT_EQ(RowMultiset(got.data(), sky.row_count(),
                        spec.schema().row_width()),
            OracleSkylineMultiset(t, spec));
}

// The SQL session knob overrides per-query options and must not change
// results.
TEST_F(SfsParallelTest, SqlThreadsKnobMatchesSequential) {
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeUniformTable(env_.get(), "t", 9000, 4, 13));
  Catalog catalog(env_.get());
  catalog.Register("T", &t);
  const std::string sql =
      "SELECT * FROM T SKYLINE OF a0 MAX, a1 MIN, a2 MAX, a3 MIN";

  auto collect = [&](size_t threads, std::vector<std::string>* rows) {
    SqlOptions options;
    options.exec.threads = threads;
    options.temp_prefix = "sqlq_" + std::to_string(threads);
    return ExecuteSql(catalog, sql, options,
                      [rows](const RowView& row) {
                        rows->emplace_back(row.data(),
                                           row.schema().row_width());
                        return Status::OK();
                      });
  };
  std::vector<std::string> sequential, parallel;
  ASSERT_OK(collect(1, &sequential));
  ASSERT_OK(collect(4, &parallel));
  EXPECT_EQ(parallel, sequential);
  EXPECT_FALSE(sequential.empty());
}


/// A user preference for Presort::kCustom: the sum of the oriented int32
/// criteria (MAX counts up, MIN counts down), best first, with DIFF groups
/// outermost. Integer sums tie often, so rows of different angular slices
/// share a score and only their input order separates them.
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
    if (sa != sb) return sa > sb ? -1 : 1;
    return 0;
  }
  bool has_key() const override { return !spec_->has_diff(); }
  double Key(const char* row) const override {
    return static_cast<double>(Sum(row));
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

/// Runs the slice-first pipeline straight from `input`, sorting each slice
/// by `ordering` (null: the input is presorted), eliminating only when
/// asked. Calling ParallelSfs directly skips the hardware clamp, so every
/// host runs the full deal, slice sorts and merge for `threads` simulated
/// slices.
Result<std::vector<char>> RunSliced(Env* env, const Table& input,
                                    const SkylineSpec& spec,
                                    const RowOrdering* ordering,
                                    const SortOptions& sort_options,
                                    const ParallelSfsOptions& options,
                                    SkylineRunStats* stats = nullptr,
                                    bool eliminate = false) {
  std::vector<char> out;
  const size_t width = spec.schema().row_width();
  TempFileManager temp_files(env, "sliced");
  SKYLINE_RETURN_IF_ERROR(ParallelSfs(
      &temp_files, input, spec, ordering, eliminate, sort_options, options,
      [&out, width](const char* row) {
        out.insert(out.end(), row, row + width);
        return Status::OK();
      },
      stats));
  return out;
}

// The slice-first pipeline's guarantee, per presort: dealing rows into
// slices, sorting each slice alone and ranking the candidates on
// (ordering, input row) emits sequential SFS's bytes. Small domains make
// exact criteria duplicates (with different payloads) and score ties
// common; 3 sort buffer pages spread them over many runs, so the output
// is only identical if every sort is stable and cross-slice ties rank by
// input row.
TEST_F(SfsParallelTest, SliceFirstPathByteIdenticalForEveryPresort) {
  int config = 0;
  for (bool with_diff : {false, true}) {
    GeneratorOptions gen;
    gen.num_rows = 9000;  // two 4096-row blocks for ComputeSkylineSfs
    gen.num_attributes = 4;
    gen.payload_bytes = 12;
    gen.distribution = Distribution::kAntiCorrelated;
    gen.small_domain = true;
    gen.seed = 700 + config;
    const std::string tag = "cfg" + std::to_string(config++);
    ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(env_.get(), "t_" + tag, gen));
    SkylineSpec spec = MixedSpec(t, 4, with_diff);
    SumPreference preference(&spec);

    // kNone reads a table that is already in nested order.
    std::unique_ptr<RowOrdering> nested = MakeNestedSkylineOrdering(spec);
    TempFileManager presort_files(env_.get(), "presorted_" + tag);
    ASSERT_OK_AND_ASSIGN(
        std::string sorted_path,
        SortHeapFile(env_.get(), &presort_files, t.path(),
                     t.schema().row_width(), *nested, SortOptions{},
                     ExecContext(), nullptr));
    std::vector<ColumnStats> column_stats;
    for (size_t c = 0; c < t.schema().num_columns(); ++c) {
      column_stats.push_back(t.stats(c));
    }
    ASSERT_OK_AND_ASSIGN(Table presorted,
                         Table::Attach(t.schema(), env_.get(), sorted_path,
                                       column_stats));

    for (Presort presort : {Presort::kEntropy, Presort::kNested,
                            Presort::kCustom, Presort::kNone}) {
      const Table& input = presort == Presort::kNone ? presorted : t;
      const std::string name =
          tag + "_p" + std::to_string(static_cast<int>(presort));
      SfsOptions seq;
      seq.presort = presort;
      seq.custom_ordering = &preference;
      seq.sort_options.buffer_pages = 3;
      SkylineRunStats seq_stats;
      ASSERT_OK_AND_ASSIGN(Table baseline,
                           ComputeSkylineSfs(input, spec, seq, ExecContext(),
                                             "seq_" + name, &seq_stats));
      ASSERT_EQ(seq_stats.passes, 1u) << name;
      const std::vector<char> expected = ReadAll(baseline);
      ASSERT_FALSE(expected.empty()) << name;

      std::unique_ptr<RowOrdering> owned;
      const RowOrdering* ordering = nullptr;
      if (presort == Presort::kEntropy) {
        owned = std::make_unique<EntropyOrdering>(&spec, input);
        ordering = owned.get();
      } else if (presort == Presort::kNested) {
        ordering = nested.get();
      } else if (presort == Presort::kCustom) {
        ordering = &preference;
      }
      for (size_t threads : {2u, 4u, 8u}) {
        ParallelSfsOptions popt;
        popt.threads = threads;
        popt.min_block_rows = 1;
        SkylineRunStats stats;
        ASSERT_OK_AND_ASSIGN(std::vector<char> got,
                             RunSliced(env_.get(), input, spec, ordering,
                                       seq.sort_options, popt, &stats));
        ASSERT_EQ(got.size(), expected.size())
            << name << " threads=" << threads;
        ASSERT_EQ(0, std::memcmp(got.data(), expected.data(), got.size()))
            << name << " threads=" << threads;
        EXPECT_EQ(stats.threads_used, threads);
        if (ordering != nullptr) {
          EXPECT_GT(stats.sort_stats.runs_generated, threads) << name;
          EXPECT_EQ(stats.sort_stats.threads_used, threads);
        }

        // The public entry point, clamped to this host: the same bytes.
        SfsOptions par = seq;
        par.threads = threads;
        ASSERT_OK_AND_ASSIGN(
            Table sky, ComputeSkylineSfs(input, spec, par, ExecContext(),
                                         "par_" + name, nullptr));
        EXPECT_EQ(ReadAll(sky), expected) << name << " threads=" << threads;
      }
    }
  }
}

// A 1-page window makes sequential SFS spill over several passes, which
// emit pass-major order; the slice-first path must still find exactly the
// same rows.
TEST_F(SfsParallelTest, SliceFirstPathOnePageWindowMatchesSequential) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 5000, 7, 19));
  SkylineSpec spec = MixedSpec(t, 7, /*with_diff=*/false);
  SfsOptions seq;
  seq.window_pages = 1;
  seq.use_projection = false;
  SkylineRunStats seq_stats;
  ASSERT_OK_AND_ASSIGN(
      Table baseline,
      ComputeSkylineSfs(t, spec, seq, ExecContext(), "seq", &seq_stats));
  ASSERT_GT(seq_stats.passes, 1u) << "window too large to exercise spilling";
  const std::vector<char> expected = ReadAll(baseline);

  EntropyOrdering entropy(&spec, t);
  ParallelSfsOptions popt;
  popt.window_pages = 1;
  popt.use_projection = false;
  popt.threads = 4;
  popt.min_block_rows = 1;
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<char> got,
                       RunSliced(env_.get(), t, spec, &entropy, SortOptions{},
                                 popt, &stats));
  const size_t width = spec.schema().row_width();
  EXPECT_GT(stats.passes, 1u);
  EXPECT_EQ(RowMultiset(got.data(), got.size() / width, width),
            RowMultiset(expected.data(), baseline.row_count(), width));
}

/// MemEnv view that remembers every file ever created through it.
class RecordingEnv : public Env {
 public:
  explicit RecordingEnv(Env* base) : base_(base) {}

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      created_.push_back(path);
    }
    return base_->NewWritableFile(path, out);
  }
  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override {
    return base_->NewRandomAccessFile(path, out);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  bool FileExists(const std::string& path) const override {
    return base_->FileExists(path);
  }
  Result<uint64_t> FileSize(const std::string& path) const override {
    return base_->FileSize(path);
  }

  /// Created files that still exist, other than `keep`.
  std::vector<std::string> Leftovers(const std::string& keep) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> left;
    for (const std::string& path : created_) {
      if (path != keep && base_->FileExists(path)) left.push_back(path);
    }
    return left;
  }
  size_t created() const {
    std::lock_guard<std::mutex> lock(mu_);
    return created_.size();
  }

 private:
  Env* base_;
  mutable std::mutex mu_;
  std::vector<std::string> created_;
};

// Cancelling while the rows are dealt, or while the slices are sorted,
// returns kCancelled and leaves none of the slice, run or merge files
// behind.
TEST_F(SfsParallelTest, CancelDuringDealOrSliceSortLeavesNoTempFiles) {
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeUniformTable(env_.get(), "t", 20'000, 4, 23));
  SkylineSpec spec = MixedSpec(t, 4, /*with_diff=*/false);
  EntropyOrdering entropy(&spec, t);
  SortOptions sort_options;
  sort_options.buffer_pages = 8;  // several runs per slice

  for (bool in_deal : {true, false}) {
    RecordingEnv env(env_.get());
    TraceSink trace;
    ExecContext ctx;
    ctx.trace = &trace;
    // In the deal case the first poll after a slice file exists cancels
    // (the deal is writing slices); otherwise the first poll after the
    // deal span closed does, which is a slice sort's.
    ctx.cancelled = [in_deal, &env, &trace]() {
      return in_deal ? env.created() > 0 : trace.CountSpans("deal") > 0;
    };
    ParallelSfsOptions popt;
    popt.threads = 4;
    popt.min_block_rows = 1;
    popt.exec = &ctx;
    size_t emitted = 0;
    Status st;
    {
      TempFileManager temp_files(&env, "cancel");
      // `t` read through the recording env.
      std::vector<ColumnStats> col_stats;
      for (size_t c = 0; c < t.schema().num_columns(); ++c) {
        col_stats.push_back(t.stats(c));
      }
      ASSERT_OK_AND_ASSIGN(Table recorded, Table::Attach(t.schema(), &env,
                                                         t.path(), col_stats));
      st = ParallelSfs(&temp_files, recorded, spec, &entropy,
                       /*eliminate=*/false, sort_options, popt,
                       [&emitted](const char*) {
                         ++emitted;
                         return Status::OK();
                       },
                       nullptr);
    }
    EXPECT_TRUE(st.IsCancelled()) << "in_deal=" << in_deal << " "
                                  << st.ToString();
    EXPECT_EQ(emitted, 0u);
    EXPECT_GT(env.created(), 0u) << "no slice was ever written";
    EXPECT_EQ(env.Leftovers(t.path()), std::vector<std::string>{});
    EXPECT_EQ(trace.CountSpans("filter-block-0"), 0u);
    if (in_deal) {
      EXPECT_EQ(trace.CountSpans("slice-sort-0"), 0u);
    } else {
      EXPECT_EQ(trace.CountSpans("deal"), 1u);
      EXPECT_GT(trace.CountSpans("slice-sort-0"), 0u);
    }
  }
}


// Where a slice-parallel query's time went, from its own output: one
// "deal" span, one "slice-sort-<k>" and one "filter-block-<k>" span per
// slice, the phase timings in the run stats, the RunReport's "slices:"
// line, and the EXPLAIN ANALYZE "phases" note.
TEST_F(SfsParallelTest, SlicePhasesAreTracedAndReported) {
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeUniformTable(env_.get(), "t", 12'000, 4, 29));
  SkylineSpec spec = MixedSpec(t, 4, /*with_diff=*/false);
  EntropyOrdering entropy(&spec, t);
  TraceSink trace;
  ExecContext ctx;
  ctx.trace = &trace;
  ParallelSfsOptions popt;
  popt.threads = 3;
  popt.min_block_rows = 1;
  popt.exec = &ctx;
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<char> got,
                       RunSliced(env_.get(), t, spec, &entropy, SortOptions{},
                                 popt, &stats));
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(trace.CountSpans("deal"), 1u);
  EXPECT_EQ(trace.CountSpans("block-scan"), 1u);
  EXPECT_EQ(trace.CountSpans("block-merge"), 1u);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(trace.CountSpans("slice-sort-" + std::to_string(k)), 1u) << k;
    EXPECT_EQ(trace.CountSpans("filter-block-" + std::to_string(k)), 1u)
        << k;
  }
  EXPECT_EQ(trace.CountSpans("presort"), 0u) << "no global sort may run";
  EXPECT_GT(stats.deal_seconds, 0.0);
  EXPECT_GT(stats.slice_sort_seconds, 0.0);
  EXPECT_GT(stats.block_scan_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.sort_seconds,
                   stats.deal_seconds + stats.slice_sort_seconds);
  EXPECT_EQ(stats.sort_stats.threads_used, 3u);
  EXPECT_GE(stats.scan_avg_busy_workers, 1.0);

  RunReport report;
  report.tool = "test";
  report.stats = stats;
  EXPECT_NE(RenderRunReportText(report).find("slices: deal"),
            std::string::npos);
  EXPECT_NE(RenderRunReportJson(report).find("\"slice_sort_seconds\""),
            std::string::npos);

  // EXPLAIN ANALYZE through SQL, where the host clamp applies: a host
  // with one hardware thread runs the sequential filter instead.
  Catalog catalog(env_.get());
  catalog.Register("T", &t);
  SqlOptions options;
  options.exec.threads = 2;
  SqlRunInfo info;
  ASSERT_OK(ExecuteSql(catalog,
                       "EXPLAIN ANALYZE SELECT * FROM T SKYLINE OF a0 MAX, "
                       "a1 MIN, a2 MAX, a3 MIN",
                       options, [](const RowView&) { return Status::OK(); },
                       &info));
  const bool parallel = ClampThreadsToHardware(2) > 1;
  EXPECT_EQ(info.plan_text.find("phases=deal") != std::string::npos, parallel)
      << info.plan_text;
}


// Each stretch of the deal runs its own elimination filter, so dominated
// rows never reach a slice file, and the survivors still yield sequential
// SFS's bytes.
TEST_F(SfsParallelTest, DealEliminatesBeforeTheSlicesAreWritten) {
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeUniformTable(env_.get(), "t", 10'000, 4, 31));
  SkylineSpec spec = MixedSpec(t, 4, /*with_diff=*/false);
  ASSERT_OK_AND_ASSIGN(
      Table baseline,
      ComputeSkylineSfs(t, spec, SfsOptions{}, ExecContext(), "seq", nullptr));

  EntropyOrdering entropy(&spec, t);
  ParallelSfsOptions popt;
  popt.threads = 4;
  popt.min_block_rows = 1;
  SkylineRunStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<char> got,
                       RunSliced(env_.get(), t, spec, &entropy, SortOptions{},
                                 popt, &stats, /*eliminate=*/true));
  EXPECT_EQ(got, ReadAll(baseline));
  EXPECT_EQ(stats.input_rows, t.row_count());
  EXPECT_GT(stats.sort_stats.records_filtered, t.row_count() / 2);
  // Dealing every row would write the whole table (and a tag per row)
  // before any slice sort.
  EXPECT_LT(stats.sort_stats.io.pages_written, t.page_count());
}

}  // namespace
}  // namespace skyline
