// Shared pieces of the engine benchmark: arguments, latency samples, the
// result that main() prints, and the benchmark's own trace spans.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "core/run_stats.h"
#include "core/skyline_spec.h"
#include "relation/table.h"

namespace perfbench {

struct Args {
  std::string workload;
  /// Working directory for workloads that keep files on disk.
  std::string workdir;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Latency (or any) samples of one kind, in the unit the caller records.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;
  double Sum() const;

  /// The tail percentile rule: `target` when at least 10 samples lie
  /// beyond it; otherwise the highest of p99, p95, p90, p75 below `target`
  /// that has them; otherwise the median.
  struct Tail {
    double value = 0;
    double q = 0.5;
    size_t n = 0;
  };
  Tail TailQuantile(double target) const;

 private:
  std::vector<double> values_;
};

/// One benchmark run's outcome. `metrics` are the names BENCHMARK.json
/// declares for the run's mode; `details` carries everything else the run
/// measured (host shape, sample counts, percentile fallbacks, extra
/// metrics) for the line printed before the result.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  struct Value {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Value> metrics;
  std::vector<Value> details;
  std::vector<std::string> errors;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, value, unit});
  }
  /// Records an operation that failed, was refused, or returned a wrong
  /// output. Fails the run.
  void Failure(const std::string& what);
  /// Reports `tail` under `name` and notes which percentile it is.
  void TailMetric(const std::string& name, const Samples::Tail& tail,
                  const std::string& unit, bool detail);
};

/// The benchmark's own spans, recorded around each call into an engine
/// layer. Disabled runs keep the timing but record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  skyline::TraceSink* sink() { return enabled_ ? &sink_ : nullptr; }
  bool enabled() const { return enabled_; }

 private:
  bool enabled_;
  skyline::TraceSink sink_;
};

/// RAII span plus stopwatch: End() returns the elapsed seconds and records
/// the span to the tracer's sink when it is enabled.
class LayerSpan {
 public:
  LayerSpan(Tracer* tracer, const char* name);
  double End();

 private:
  skyline::TraceSpan span_;
  double start_;
  double elapsed_ = -1;
};

double NowSeconds();
/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();
unsigned HardwareThreads();

/// FNV-1a digest of a skyline's rows in canonical order — independent of
/// the algorithm, thread count and presort that produced them.
uint64_t CanonicalDigest(const skyline::SkylineSpec& spec,
                         std::vector<char> rows);
skyline::Result<uint64_t> TableDigest(const skyline::SkylineSpec& spec,
                                      const skyline::Table& table);

/// Criteria a0..a{dims-1}, all MAX.
std::vector<skyline::Criterion> MaxCriteria(int dims);

/// Per-layer numbers read from the public calls' stats, shared by the
/// batch loop and the layer probes.
struct LayerTimes {
  Samples presort_s, run_formation_s, merge_s, filter_s, block_scan_s,
      block_merge_s;
  skyline::SortStats sort_stats;
  skyline::SkylineRunStats filter_stats;
};

/// The SFS query split at its layer boundary: SortHeapFile with the
/// entropy ordering (sort), then ParallelSfsFilter over the sorted file
/// (core), both with `threads` workers — the same calls and options
/// ComputeSkyline(kSfs) makes. Writes the skyline to `output_path`.
skyline::Result<skyline::Table> LayeredSfs(const skyline::Table& input,
                                           const skyline::SkylineSpec& spec,
                                           size_t threads,
                                           const std::string& output_path,
                                           Tracer* tracer, LayerTimes* out);
/// Adds the sort.* and core.* per-layer metrics from `layers`.
void ReportSortAndCore(const LayerTimes& layers, Report* report);

/// Runs the service-layer probe (relation, index, sql, exec, storage,
/// server) on the first `rows` rows of `table`, served by its own engine
/// and server in the table's Env. Batch workloads use it so that every
/// layer reports a number; their timed query calls none of these layers.
void ProbeServiceLayersOnSlice(const skyline::Table& table, int dims,
                               uint64_t rows, uint64_t seed, Tracer* tracer,
                               Report* report);

bool IsBatchWorkload(const std::string& name);
/// Each runs one workload for args.seconds. With an enabled tracer they
/// report the per-layer metrics, otherwise the end-to-end ones.
Report RunBatch(const Args& args, Tracer* tracer);
Report RunService(const Args& args, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
