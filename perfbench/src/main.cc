// Engine benchmark program. Runs one workload for a fixed time and prints,
// as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it ("perfbench-detail ...") records the host
// shape, the seed and everything else the run measured.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --workdir DIR [--trace-file FILE]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/dominance_batch.h"
#include "perfbench.h"

namespace {

using perfbench::Report;

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Metrics(const std::vector<Report::Value>& values) {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quote(values[i].name) + ": {\"value\": " +
           Number(values[i].value) + ", \"unit\": " + Quote(values[i].unit) +
           "}";
  }
  return out + "}";
}

std::string Strings(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quote(values[i]);
  }
  return out + "]";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--trace-file FILE]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string trace_file;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else if (key == "--trace-file") {
      trace_file = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be positive");
  if (args.workdir.empty()) return Usage("--workdir is required");

  perfbench::Tracer tracer(args.trace);
  Report report;
  if (perfbench::IsBatchWorkload(args.workload)) {
    report = perfbench::RunBatch(args, &tracer);
  } else if (args.workload == "service_mixed") {
    report = perfbench::RunService(args, &tracer);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (report.attempted == 0) report.Failure("no operation ran");
  for (Report::Value& metric : report.metrics) {
    if (!std::isfinite(metric.value)) {
      report.Failure(metric.name + " is not a finite number");
      metric.value = 0;
    }
  }
  const uint64_t attempted = std::max<uint64_t>(report.attempted, 1);
  report.Detail("ops_failed_frac",
                static_cast<double>(report.failed) /
                    static_cast<double>(attempted),
                "ratio");
  const char* forced = std::getenv("SKYLINE_DOMINANCE_KERNEL");
  const std::string kernel = forced != nullptr && std::string(forced) == "row"
                                 ? "row"
                                 : skyline::ActiveDominanceKernel().name;
  if (!trace_file.empty() && tracer.sink() != nullptr) {
    std::ofstream(trace_file) << tracer.sink()->ExportChromeTrace();
  }

  std::printf(
      "perfbench-detail {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"shape\": {\"hardware_threads\": %u, "
      "\"build_type\": %s, \"dominance_kernel\": %s}, \"details\": %s, "
      "\"errors\": %s}\n",
      Quote(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      Number(args.seconds).c_str(), args.trace ? 1 : 0,
      perfbench::HardwareThreads(), Quote(PERFBENCH_BUILD_TYPE).c_str(),
      Quote(kernel).c_str(), Metrics(report.details).c_str(),
      Strings(report.errors).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      Metrics(report.metrics).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
