// Machine-readable benchmark for the parallel SFS engine.
//
// Runs the full SFS computation (presort + filter) over an anti-correlated
// 5-dimensional table at each thread count and writes one JSON document —
// BENCH_sfs.json by default — so CI and scripts can track rows/sec without
// scraping human-oriented benchmark output. The document carries
// "schema_version" and embeds a full RunReport (stats + metrics + trace
// spans) per run alongside the original flat keys.
//
// Usage: parallel_sfs_bench [output.json]
//   SKYLINE_BENCH_SCALE=10   paper-scale table (1M rows)
//   SKYLINE_BENCH_THREADS=1,2,4,8   thread counts to sweep
//   SKYLINE_BENCH_REPS=3     repetitions per config (best wall time wins)

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "core/dominance_batch.h"
#include "relation/column_store.h"

namespace skyline {
namespace bench {
namespace {

std::vector<size_t> ThreadCounts() {
  std::vector<size_t> counts;
  if (const char* s = std::getenv("SKYLINE_BENCH_THREADS")) {
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
      const long v = std::atol(item.c_str());
      if (v > 0) counts.push_back(static_cast<size_t>(v));
    }
  }
  if (counts.empty()) counts = {1, 2, 4, 8};
  return counts;
}

int Reps() {
  if (const char* s = std::getenv("SKYLINE_BENCH_REPS")) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<int>(v);
  }
  return 3;
}

struct RunResult {
  size_t threads_requested = 0;
  SkylineRunStats stats;
  double wall_seconds = 0;
  /// Telemetry from the winning repetition, embedded into its RunReport.
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<TraceSink> trace;
};

int Main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sfs.json";
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  constexpr int kDims = 5;
  const Table& table =
      DistributionTableDims(Distribution::kAntiCorrelated, kDims);
  const SkylineSpec spec = MaxSpec(table, kDims);
  const int reps = Reps();

  std::vector<RunResult> results;
  for (size_t threads : ThreadCounts()) {
    RunResult best;
    best.threads_requested = threads;
    best.wall_seconds = -1;
    for (int rep = 0; rep < reps; ++rep) {
      SkylineComputeOptions options;
      options.sfs.threads = threads;
      auto metrics = std::make_unique<MetricsRegistry>();
      auto trace = std::make_unique<TraceSink>();
      ExecContext ctx;
      ctx.metrics = metrics.get();
      ctx.trace = trace.get();
      SkylineRunStats stats;
      const auto start = std::chrono::steady_clock::now();
      auto result = ComputeSkyline(SkylineAlgorithm::kSfs, table, spec, ctx,
                                   "bench_psfs_out", &stats, options);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      SKYLINE_CHECK(result.ok()) << result.status().ToString();
      if (best.wall_seconds < 0 || wall < best.wall_seconds) {
        best.wall_seconds = wall;
        best.stats = stats;
        best.metrics = std::move(metrics);
        best.trace = std::move(trace);
      }
    }
    std::cerr << "threads=" << threads << " wall=" << best.wall_seconds
              << "s rows/s="
              << static_cast<uint64_t>(table.row_count() / best.wall_seconds)
              << " skyline=" << best.stats.output_rows << "\n";
    if (best.stats.DegradedParallelism()) {
      // Honesty over silence: a speedup chart from this host would flatten
      // not because the algorithm stopped scaling but because the host
      // could not grant the requested workers.
      LogWarning("requested " +
                 std::to_string(best.stats.threads_requested) +
                 " threads but ran with " +
                 std::to_string(best.stats.threads_used) +
                 " (degraded parallelism, limited by " +
                 best.stats.threads_limited_by +
                 "; speedup figures at this point do not measure the "
                 "algorithm)");
    }
    results.push_back(std::move(best));
  }

  // Mixed-type paper workload: the 100-byte tuple whose attributes span
  // float64/int64/int32 plus a dictionary-encoded 60-byte payload DIFF.
  // Before the universal order-key transform this spec fell back to the
  // row-at-a-time comparator; now it lowers to the columnar kernel. Run
  // it both ways (forcing the row path via the test hook) to record the
  // fallback -> fast-path win.
  constexpr int kMixedDims = 5;
  const Table& mixed = MixedPaperTable(Distribution::kAntiCorrelated);
  const SkylineSpec mixed_spec =
      MixedSpec(mixed, kMixedDims, /*payload_diff=*/true);
  const size_t mixed_threads = ThreadCounts().back();
  struct MixedResult {
    const char* kernel_mode;
    SkylineRunStats stats;
    double wall_seconds = -1;
  };
  std::vector<MixedResult> mixed_results;
  for (const bool force_row : {true, false}) {
    SetForceRowDominancePath(force_row);
    MixedResult best;
    best.kernel_mode = force_row ? "row_fallback" : "columnar";
    for (int rep = 0; rep < reps; ++rep) {
      SkylineComputeOptions options;
      options.sfs.threads = mixed_threads;
      ExecContext ctx;
      SkylineRunStats stats;
      const auto start = std::chrono::steady_clock::now();
      auto result = ComputeSkyline(SkylineAlgorithm::kSfs, mixed, mixed_spec,
                                   ctx, "bench_psfs_mixed_out", &stats,
                                   options);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      SKYLINE_CHECK(result.ok()) << result.status().ToString();
      if (best.wall_seconds < 0 || wall < best.wall_seconds) {
        best.wall_seconds = wall;
        best.stats = stats;
      }
    }
    SetForceRowDominancePath(false);
    std::cerr << "mixed kernel=" << best.kernel_mode
              << " wall=" << best.wall_seconds << "s rows/s="
              << static_cast<uint64_t>(mixed.row_count() / best.wall_seconds)
              << " skyline=" << best.stats.output_rows << "\n";
    mixed_results.push_back(std::move(best));
  }

  // ---- Index sweep (SKYLINE_BENCH_INDEX=1) ----
  // Correlated data is BBS's home turf: a tiny skyline lets zone-corner
  // dominance prune nearly every subtree, so the index path reads a small
  // fraction of the column-file blocks that full-scan SFS touches. The
  // sweep records the one-time sidecar build cost next to the per-query
  // win so the break-even point stays visible.
  struct IndexResult {
    const char* algorithm = "";
    SkylineRunStats stats;
    double wall_seconds = -1;
  };
  std::vector<IndexResult> index_results;
  double index_cluster_seconds = 0;
  double index_column_file_seconds = 0;
  double index_build_seconds = 0;
  uint64_t index_total_blocks = 0;
  std::unique_ptr<Table> index_table;
  const bool run_index = std::getenv("SKYLINE_BENCH_INDEX") != nullptr;
  if (run_index) {
    // The index path's deployment shape: z-order cluster the table once,
    // then build the sidecars against the clustered layout. All three
    // one-time costs are recorded next to the per-query win.
    const Table& raw =
        DistributionTableDims(Distribution::kCorrelated, kDims);
    {
      const auto start = std::chrono::steady_clock::now();
      auto clustered = ClusterTableZOrder(raw, "bench_psfs_index_table");
      index_cluster_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      SKYLINE_CHECK(clustered.ok()) << clustered.status().ToString();
      index_table =
          std::make_unique<Table>(std::move(clustered).value());
    }
    const Table& correlated = *index_table;
    const SkylineSpec corr_spec = MaxSpec(correlated, kDims);
    index_total_blocks = (correlated.row_count() + 63) / 64;

    auto timed = [](auto&& fn) {
      const auto start = std::chrono::steady_clock::now();
      const Status st = fn();
      SKYLINE_CHECK(st.ok()) << st.ToString();
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
    index_column_file_seconds =
        timed([&] { return WriteTableColumnFile(correlated); });
    index_build_seconds =
        timed([&] { return WriteTableBlockIndex(correlated); });
    std::cerr << "index build: cluster " << index_cluster_seconds
              << "s, column file " << index_column_file_seconds
              << "s, z-order index " << index_build_seconds << "s\n";

    std::vector<char> reference_rows;
    for (const SkylineAlgorithm algorithm :
         {SkylineAlgorithm::kSfs, SkylineAlgorithm::kBbs}) {
      IndexResult best;
      best.algorithm = SkylineAlgorithmName(algorithm);
      for (int rep = 0; rep < reps; ++rep) {
        ExecContext ctx;
        SkylineRunStats stats;
        const auto start = std::chrono::steady_clock::now();
        auto result = ComputeSkyline(algorithm, correlated, corr_spec, ctx,
                                     "bench_psfs_index_out", &stats);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        SKYLINE_CHECK(result.ok()) << result.status().ToString();
        if (best.wall_seconds < 0 || wall < best.wall_seconds) {
          best.wall_seconds = wall;
          best.stats = stats;
        }
        if (rep == 0) {
          // Cross-algorithm byte-identity: the index path must emit the
          // exact SFS bytes, not merely the same multiset.
          std::vector<char> rows;
          SKYLINE_CHECK(result.value().ReadAllRows(&rows).ok());
          if (algorithm == SkylineAlgorithm::kSfs) {
            reference_rows = std::move(rows);
          } else {
            SKYLINE_CHECK(rows == reference_rows)
                << "BBS output diverged from SFS bytes";
          }
        }
      }
      std::cerr << "index algo=" << best.algorithm
                << " wall=" << best.wall_seconds
                << "s blocks_skipped=" << best.stats.index_blocks_skipped
                << "/" << index_total_blocks
                << " skyline=" << best.stats.output_rows << "\n";
      index_results.push_back(std::move(best));
    }
  }

  JsonWriter json;
  json.BeginObject();
  json.KeyValue("schema_version", RunReport::kSchemaVersion);
  json.KeyValue("benchmark", "parallel_sfs");
  json.KeyValue("distribution", "anti_correlated");
  json.KeyValue("dimensions", kDims);
  json.KeyValue("rows", table.row_count());
  json.KeyValue("repetitions", reps);
  json.KeyValue("hardware_threads", std::thread::hardware_concurrency());
  json.Key("runs");
  json.BeginArray();
  for (const RunResult& r : results) {
    const SkylineRunStats& s = r.stats;
    json.BeginObject();
    json.KeyValue("threads", static_cast<uint64_t>(r.threads_requested));
    json.KeyValue("threads_requested", s.threads_requested);
    json.KeyValue("threads_used", static_cast<uint64_t>(s.threads_used));
    json.KeyValue("degraded_parallelism", s.DegradedParallelism());
    json.KeyValue("threads_limited_by", s.threads_limited_by);
    json.KeyValue("sort_threads_used",
                  static_cast<uint64_t>(s.sort_stats.threads_used));
    json.KeyValue("wall_seconds", r.wall_seconds);
    json.KeyValue("rows_per_sec",
                  static_cast<uint64_t>(table.row_count() / r.wall_seconds));
    json.KeyValue("sort_seconds", s.sort_seconds);
    json.KeyValue("filter_seconds", s.filter_seconds);
    // Rows the presort's elimination filters dropped before any sort run
    // or slice, and the sort's own page traffic (the deal's slice writes
    // included).
    json.KeyValue("records_filtered", s.sort_stats.records_filtered);
    json.KeyValue("sort_pages_written", s.sort_stats.io.pages_written);
    json.KeyValue("sort_pages_read", s.sort_stats.io.pages_read);
    json.KeyValue("deal_seconds", s.deal_seconds);
    json.KeyValue("slice_sort_seconds", s.slice_sort_seconds);
    json.KeyValue("block_scan_seconds", s.block_scan_seconds);
    json.KeyValue("block_merge_seconds", s.block_merge_seconds);
    json.KeyValue("passes", s.passes);
    json.KeyValue("window_comparisons", s.window_comparisons);
    json.KeyValue("merge_comparisons", s.merge_comparisons);
    json.KeyValue("batch_comparisons", s.batch_comparisons);
    json.KeyValue("window_blocks_pruned", s.window_blocks_pruned);
    json.KeyValue("merge_blocks_pruned", s.merge_blocks_pruned);
    json.KeyValue("merge_candidates", s.merge_candidates);
    json.KeyValue("representative_prunes", s.representative_prunes);
    json.KeyValue("cascade_levels", s.cascade_levels);
    json.KeyValue("scan_avg_busy_workers", s.scan_avg_busy_workers);
    json.KeyValue("merge_avg_busy_workers", s.merge_avg_busy_workers);
    json.KeyValue("scan_merge_overlap_seconds", s.scan_merge_overlap_seconds);
    json.KeyValue("table_zone_blocks_pruned", s.table_zone_blocks_pruned);
    json.KeyValue("column_file_blocks_read", s.column_file_blocks_read);
    json.KeyValue("dict_probe_hits", s.dict_probe_hits);
    json.KeyValue("zone_map_source", s.zone_map_source);
    json.KeyValue("dominance_kernel", s.dominance_kernel);
    json.KeyValue(
        "comparisons_per_sec",
        static_cast<uint64_t>(r.wall_seconds > 0
                                  ? static_cast<double>(s.window_comparisons) /
                                        r.wall_seconds
                                  : 0));
    json.KeyValue("output_rows", s.output_rows);
    // The versioned observability artifact for the winning repetition:
    // full stats, aggregated metrics, and the trace span log.
    RunReport report;
    report.tool = "parallel_sfs_bench";
    report.algorithm = "sfs";
    report.stats = s;
    report.wall_seconds = r.wall_seconds;
    report.numbers.emplace_back(
        "threads_requested", static_cast<double>(r.threads_requested));
    report.metrics = r.metrics.get();
    report.trace = r.trace.get();
    json.Key("report");
    AppendRunReportObject(&json, report);
    json.EndObject();
  }
  json.EndArray();
  json.Key("mixed_workload");
  json.BeginObject();
  json.KeyValue("rows", mixed.row_count());
  json.KeyValue("dimensions", kMixedDims);
  json.KeyValue("attribute_types", "f64,f64,i64,i64,i32");
  json.KeyValue("payload_diff", "dict60");
  json.KeyValue("threads", static_cast<uint64_t>(mixed_threads));
  if (mixed_results.size() == 2 && mixed_results[1].wall_seconds > 0) {
    json.KeyValue("row_over_columnar_speedup",
                  mixed_results[0].wall_seconds /
                      mixed_results[1].wall_seconds);
  }
  json.Key("runs");
  json.BeginArray();
  for (const MixedResult& r : mixed_results) {
    const SkylineRunStats& s = r.stats;
    json.BeginObject();
    json.KeyValue("kernel_mode", r.kernel_mode);
    json.KeyValue("dominance_kernel", s.dominance_kernel);
    json.KeyValue("wall_seconds", r.wall_seconds);
    json.KeyValue("rows_per_sec",
                  static_cast<uint64_t>(mixed.row_count() / r.wall_seconds));
    json.KeyValue("filter_seconds", s.filter_seconds);
    json.KeyValue("window_comparisons", s.window_comparisons);
    json.KeyValue("batch_comparisons", s.batch_comparisons);
    json.KeyValue("window_blocks_pruned", s.window_blocks_pruned);
    json.KeyValue("dict_probe_hits", s.dict_probe_hits);
    json.KeyValue("output_rows", s.output_rows);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (run_index && index_table != nullptr) {
    json.Key("index");
    json.BeginObject();
    json.KeyValue("distribution", "correlated");
    json.KeyValue("dimensions", kDims);
    json.KeyValue("rows", index_table->row_count());
    json.KeyValue("total_blocks", index_total_blocks);
    json.KeyValue("cluster_seconds", index_cluster_seconds);
    json.KeyValue("column_file_build_seconds", index_column_file_seconds);
    json.KeyValue("index_build_seconds", index_build_seconds);
    if (index_results.size() == 2 && index_results[1].wall_seconds > 0) {
      json.KeyValue("sfs_over_bbs_speedup",
                    index_results[0].wall_seconds /
                        index_results[1].wall_seconds);
    }
    json.Key("runs");
    json.BeginArray();
    for (const IndexResult& r : index_results) {
      const SkylineRunStats& s = r.stats;
      json.BeginObject();
      json.KeyValue("algorithm", r.algorithm);
      json.KeyValue("wall_seconds", r.wall_seconds);
      json.KeyValue("rows_per_sec",
                    static_cast<uint64_t>(index_table->row_count() /
                                          r.wall_seconds));
      json.KeyValue("index_nodes_visited", s.index_nodes_visited);
      json.KeyValue("index_blocks_skipped", s.index_blocks_skipped);
      json.KeyValue("heap_peak", s.heap_peak);
      if (index_total_blocks > 0) {
        json.KeyValue("blocks_skipped_fraction",
                      static_cast<double>(s.index_blocks_skipped) /
                          static_cast<double>(index_total_blocks));
      }
      json.KeyValue("window_comparisons", s.window_comparisons);
      json.KeyValue("output_rows", s.output_rows);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();
  out << json.TakeString();
  if (!out) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace skyline

int main(int argc, char** argv) { return skyline::bench::Main(argc, argv); }
