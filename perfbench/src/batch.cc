// Batch workloads: back-to-back ComputeSkyline(kSfs) queries over an
// anti-correlated table in an in-memory Env, checked against a sequential
// reference.
#include <optional>

#include "core/compute_skyline.h"
#include "env/env.h"
#include "perfbench.h"
#include "relation/generator.h"

namespace perfbench {

using namespace skyline;

namespace {

struct BatchWorkload {
  const char* name;
  uint64_t rows;
  int dims;
};

// paper_5d_anticorr is the paper's workload (1M 100-byte tuples, 5
// anti-correlated attributes): the presort is ~60% of a query, so sort
// changes show here. anticorr_7d_filter keeps the tuple size but moves to
// 7 attributes over 300k rows: the filter is ~93% of a query, so kernel,
// partition and merge changes show here and presort-only changes do not.
// (7-d at 1M rows takes 10-18 s per query.)
constexpr BatchWorkload kWorkloads[] = {
    {"paper_5d_anticorr", 1'000'000, 5},
    {"anticorr_7d_filter", 300'000, 7},
};
constexpr size_t kQueryThreads = 4;
constexpr int kSetups = 5;
// Rows of the slice the service-layer probe runs on in traced runs.
constexpr uint64_t kProbeRows = 20'000;

}  // namespace

Report RunBatch(const Args& args, Tracer* tracer) {
  Report report;
  const BatchWorkload* workload = nullptr;
  for (const BatchWorkload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  std::unique_ptr<Env> env = NewMemEnv();

  GeneratorOptions generator;
  generator.num_rows = workload->rows;
  generator.num_attributes = workload->dims;
  generator.payload_bytes = 100 - static_cast<size_t>(workload->dims) * 4;
  generator.distribution = Distribution::kAntiCorrelated;
  generator.seed = args.seed;
  Samples setup_s;
  std::optional<Table> table;
  for (int i = 0; i < kSetups; ++i) {
    table.reset();
    (void)env->DeleteFile("table");
    const double start = NowSeconds();
    Result<Table> generated = GenerateTable(env.get(), "table", generator);
    setup_s.Add(NowSeconds() - start);
    if (!generated.ok()) {
      report.Failure("generate: " + generated.status().ToString());
      return report;
    }
    table.emplace(std::move(generated).value());
  }
  const SkylineSpec spec =
      SkylineSpec::Make(table->schema(), MaxCriteria(workload->dims)).value();

  // Reference: sequential SFS. Every query's canonical digest must match
  // it. It also warms the process up (allocator, page faults) before any
  // query is timed.
  ExecContext sequential;
  sequential.threads = 1;
  SkylineComputeOptions reference_options;
  reference_options.sfs.threads = 1;
  double start = NowSeconds();
  Result<Table> reference =
      ComputeSkyline(SkylineAlgorithm::kSfs, *table, spec, sequential,
                     "reference", nullptr, reference_options);
  const double reference_s = NowSeconds() - start;
  if (!reference.ok()) {
    report.Failure("reference: " + reference.status().ToString());
    return report;
  }
  const uint64_t skyline_rows = reference.value().row_count();
  const uint64_t expected = TableDigest(spec, reference.value()).value();
  (void)env->DeleteFile("reference");

  auto check = [&](Result<Table> output) {
    ++report.attempted;
    if (!output.ok()) {
      report.Failure("query: " + output.status().ToString());
      return;
    }
    Result<uint64_t> digest = TableDigest(spec, output.value());
    if (!digest.ok() || digest.value() != expected) {
      report.Failure("query output differs from the sequential reference (" +
                     std::to_string(output.value().row_count()) + " rows, " +
                     std::to_string(skyline_rows) + " expected)");
    }
    (void)env->DeleteFile("query");
  };

  // Untraced queries, back to back. Checking happens between queries and
  // is not timed.
  Samples query_s;
  SkylineComputeOptions options;
  options.sfs.threads = kQueryThreads;
  start = NowSeconds();
  while (query_s.empty() || NowSeconds() - start < args.seconds) {
    const double begin = NowSeconds();
    Result<Table> output = ComputeSkyline(SkylineAlgorithm::kSfs, *table,
                                          spec, ExecContext{}, "query",
                                          nullptr, options);
    query_s.Add(NowSeconds() - begin);
    check(std::move(output));
  }

  const double rows = static_cast<double>(workload->rows);
  report.Detail("reference_s", reference_s, "s");
  report.Detail("skyline_rows", static_cast<double>(skyline_rows), "count");
  report.Detail("queries", static_cast<double>(query_s.size()), "count");
  if (!tracer->enabled()) {
    Samples read_ms;
    for (double s : query_s.values()) read_ms.Add(s * 1000);
    report.Metric("setup_s", setup_s.Median(), "s");
    report.Metric("query_s_p50", query_s.Median(), "s");
    report.Metric("rows_per_s", rows / query_s.Median(), "rows/s");
    report.Metric("read_ms_p50", read_ms.Median(), "ms");
    report.TailMetric("read_ms_p99", read_ms.TailQuantile(0.99), "ms",
                      /*detail=*/false);
    report.Metric("ops_per_s",
                  static_cast<double>(query_s.size()) / query_s.Sum(), "1/s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    return report;
  }

  // Traced: the same query split into its sort and core calls, each under
  // a span, for as long again.
  LayerTimes layers;
  Samples traced_s;
  start = NowSeconds();
  while (traced_s.empty() || NowSeconds() - start < args.seconds) {
    const double begin = NowSeconds();
    Result<Table> output =
        LayeredSfs(*table, spec, kQueryThreads, "query", tracer, &layers);
    traced_s.Add(NowSeconds() - begin);
    check(std::move(output));
  }
  ReportSortAndCore(layers, &report);
  ProbeServiceLayersOnSlice(*table, workload->dims, kProbeRows, args.seed,
                            tracer, &report);
  report.Metric("trace.coverage",
                (layers.presort_s.Median() + layers.filter_s.Median()) /
                    query_s.Median(),
                "ratio");
  report.Metric("trace.overhead_frac",
                traced_s.Median() / query_s.Median() - 1, "ratio");
  return report;
}

bool IsBatchWorkload(const std::string& name) {
  for (const BatchWorkload& w : kWorkloads) {
    if (name == w.name) return true;
  }
  return false;
}

}  // namespace perfbench
