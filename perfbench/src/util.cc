#include <algorithm>
#include <chrono>
#include <fstream>
#include <string_view>
#include <thread>

#include "common/thread_pool.h"
#include "core/canonical_order.h"
#include "core/scoring.h"
#include "core/sfs_parallel.h"
#include "perfbench.h"
#include "sort/external_sort.h"
#include "storage/temp_file_manager.h"

namespace perfbench {

using namespace skyline;

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

Samples::Tail Samples::TailQuantile(double target) const {
  const double n = static_cast<double>(values_.size());
  for (double q : {0.99, 0.95, 0.90, 0.75}) {
    if (q <= target + 1e-9 && n * (1 - q) >= 10) {
      return Tail{Quantile(q), q, values_.size()};
    }
  }
  return Tail{Median(), 0.5, values_.size()};
}

void Report::Failure(const std::string& what) {
  ++failed;
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

void Report::TailMetric(const std::string& name, const Samples::Tail& tail,
                        const std::string& unit, bool detail) {
  if (detail) {
    Detail(name, tail.value, unit);
  } else {
    Metric(name, tail.value, unit);
  }
  Detail(name + ".percentile", tail.q * 100, "%");
  Detail(name + ".samples", static_cast<double>(tail.n), "count");
}

Tracer::Tracer(bool enabled) : enabled_(enabled), sink_(1 << 16) {}

LayerSpan::LayerSpan(Tracer* tracer, const char* name)
    : span_(tracer->sink(), name), start_(NowSeconds()) {}

double LayerSpan::End() {
  if (elapsed_ < 0) {
    elapsed_ = NowSeconds() - start_;
    span_.End();
  }
  return elapsed_;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

unsigned HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

uint64_t CanonicalDigest(const SkylineSpec& spec, std::vector<char> rows) {
  SortSkylineRowsCanonical(spec, &rows);
  uint64_t h = 1469598103934665603ull;
  for (char c : rows) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h ^ rows.size();
}

Result<uint64_t> TableDigest(const SkylineSpec& spec, const Table& table) {
  std::vector<char> rows;
  SKYLINE_RETURN_IF_ERROR(table.ReadAllRows(&rows));
  return CanonicalDigest(spec, std::move(rows));
}

std::vector<Criterion> MaxCriteria(int dims) {
  std::vector<Criterion> criteria;
  for (int i = 0; i < dims; ++i) {
    criteria.push_back({"a" + std::to_string(i), Directive::kMax});
  }
  return criteria;
}

Result<Table> LayeredSfs(const Table& input, const SkylineSpec& spec,
                         size_t threads, const std::string& output_path,
                         Tracer* tracer, LayerTimes* out) {
  Env* env = input.env();
  const size_t workers = ClampThreadsToHardware(threads);
  TempFileManager temp_files(env, output_path + ".sfs_tmp");

  // The sort's own run-formation / merge spans give its sub-phases.
  TraceSink sort_spans(1024);
  ExecContext sort_ctx;
  sort_ctx.trace = &sort_spans;
  EntropyOrdering ordering(&spec, input);
  SortOptions sort_options;
  sort_options.threads = workers;
  LayerSpan sort_span(tracer, "sort.SortHeapFile");
  Result<std::string> sorted =
      SortHeapFile(env, &temp_files, input.path(), spec.schema().row_width(),
                   ordering, sort_options, sort_ctx, &out->sort_stats);
  out->presort_s.Add(sort_span.End());
  SKYLINE_RETURN_IF_ERROR(sorted.status());
  double run_formation_s = 0;
  double merge_s = 0;
  for (const TraceEvent& event : sort_spans.Snapshot()) {
    const double s = static_cast<double>(event.duration_ns) * 1e-9;
    if (event.name_view().rfind("run-formation", 0) == 0) run_formation_s += s;
    if (event.name_view().rfind("merge", 0) == 0) merge_s += s;
  }
  out->run_formation_s.Add(run_formation_s);
  out->merge_s.Add(merge_s);

  ExecContext ctx;
  ParallelSfsOptions filter_options;
  filter_options.threads = workers;
  filter_options.exec = &ctx;
  TableBuilder builder(env, output_path, spec.schema());
  SKYLINE_RETURN_IF_ERROR(builder.Open());
  out->filter_stats = SkylineRunStats{};
  LayerSpan core_span(tracer, "core.ParallelSfsFilter");
  Status status = ParallelSfsFilter(
      env, sorted.value(), spec, filter_options,
      [&builder](const char* row) { return builder.AppendRaw(row); },
      &out->filter_stats);
  out->filter_s.Add(core_span.End());
  SKYLINE_RETURN_IF_ERROR(status);
  out->block_scan_s.Add(out->filter_stats.block_scan_seconds);
  out->block_merge_s.Add(out->filter_stats.block_merge_seconds);
  return builder.Finish();
}

void ReportSortAndCore(const LayerTimes& layers, Report* report) {
  const SortStats& sort = layers.sort_stats;
  const SkylineRunStats& filter = layers.filter_stats;
  report->Metric("sort.presort_s", layers.presort_s.Median(), "s");
  report->Metric("sort.run_formation_s", layers.run_formation_s.Median(), "s");
  report->Metric("sort.merge_s", layers.merge_s.Median(), "s");
  report->Metric("sort.pages_written",
                 static_cast<double>(sort.io.pages_written), "count");
  report->Metric("sort.pages_read", static_cast<double>(sort.io.pages_read),
                 "count");
  report->Metric("sort.runs", static_cast<double>(sort.runs_generated),
                 "count");
  report->Metric("core.filter_s", layers.filter_s.Median(), "s");
  report->Metric("core.block_scan_s", layers.block_scan_s.Median(), "s");
  report->Metric("core.block_merge_s", layers.block_merge_s.Median(), "s");
  report->Metric("core.scan_busy_workers", filter.scan_avg_busy_workers,
                 "workers");
  report->Metric("core.merge_busy_workers", filter.merge_avg_busy_workers,
                 "workers");
  report->Metric("core.window_comparisons",
                 static_cast<double>(filter.window_comparisons), "count");
  report->Metric("core.merge_comparisons",
                 static_cast<double>(filter.merge_comparisons), "count");
  report->Metric("core.window_blocks_pruned",
                 static_cast<double>(filter.window_blocks_pruned), "count");
  // No merge (one block) means every candidate survived.
  report->Metric("core.merge_survivor_ratio",
                 filter.merge_candidates == 0
                     ? 1.0
                     : static_cast<double>(filter.output_rows) /
                           static_cast<double>(filter.merge_candidates),
                 "ratio");
}

}  // namespace perfbench
