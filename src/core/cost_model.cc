#include "core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "core/cardinality.h"
#include "core/dominance.h"
#include "storage/heap_file.h"
#include "storage/page.h"

namespace skyline {
namespace {

/// Rows sampled to measure a skyline cardinality for kAuto. The quadratic
/// in-memory skyline over it is ~4M dominance tests worst case —
/// microseconds-scale against the scan it stands to save.
constexpr uint64_t kAccessSampleRows = 2048;

/// In-memory skyline cardinality of `count` rows (quadratic, sample-sized
/// inputs only). Counts distinct-position skyline members: duplicates all
/// count, matching what SFS emits.
uint64_t SampleSkylineCount(const SkylineSpec& spec, const char* rows,
                            uint64_t count) {
  const size_t width = spec.schema().row_width();
  uint64_t skyline = 0;
  for (uint64_t i = 0; i < count; ++i) {
    bool dominated = false;
    for (uint64_t j = 0; j < count && !dominated; ++j) {
      if (j == i) continue;
      dominated = Dominates(spec, rows + j * width, rows + i * width);
    }
    if (!dominated) ++skyline;
  }
  return skyline;
}

}  // namespace

uint64_t SfsPassesForSkyline(uint64_t skyline_count,
                             uint64_t window_capacity) {
  SKYLINE_CHECK_GT(window_capacity, 0u);
  if (skyline_count == 0) return 1;  // one scan to find out
  return (skyline_count + window_capacity - 1) / window_capacity;
}

SfsCostEstimate EstimateSfsCost(uint64_t n, int dims, size_t row_width,
                                size_t projected_width,
                                const SfsOptions& options) {
  SfsCostEstimate estimate;
  estimate.skyline_cardinality = ExpectedSkylineSize(n, dims);
  const size_t entry_width =
      options.use_projection ? projected_width : row_width;
  estimate.window_capacity =
      options.window_pages * RecordsPerPage(entry_width);
  estimate.passes = SfsPassesForSkyline(
      static_cast<uint64_t>(std::llround(estimate.skyline_cardinality)),
      estimate.window_capacity);
  estimate.input_pages = HeapFilePageCount(n, row_width);

  // Spill bound: during pass p (0-based), at least p*capacity skyline
  // tuples are already confirmed; every tuple they dominate is eliminated
  // on sight. What spills is (a) the remaining skyline tuples and (b)
  // non-skyline tuples not dominated by the cached prefix. (b) shrinks
  // fast under an entropy order; we bound it loosely by assuming each
  // subsequent pass carries at most half of the previous pass's spill
  // mass plus the outstanding skyline tuples.
  double remaining_skyline = estimate.skyline_cardinality;
  double carried = static_cast<double>(n);
  double spilled = 0;
  for (uint64_t p = 0; p < estimate.passes; ++p) {
    const double confirmed = std::min(
        remaining_skyline, static_cast<double>(estimate.window_capacity));
    remaining_skyline -= confirmed;
    if (remaining_skyline <= 0) break;
    carried = carried / 2 + remaining_skyline;
    spilled += carried;
  }
  estimate.spilled_tuples_bound = spilled;
  const double per_page = static_cast<double>(RecordsPerPage(row_width));
  estimate.extra_pages_bound = 2.0 * std::ceil(spilled / per_page);
  return estimate;
}

SfsCostEstimate EstimateSfsCost(uint64_t n, const SkylineSpec& spec,
                                const SfsOptions& options) {
  return EstimateSfsCost(n, static_cast<int>(spec.num_dimensions()),
                         spec.schema().row_width(),
                         spec.projected_schema().row_width(), options);
}

SkylineAccessChoice ChooseSkylineAccess(const Table& input,
                                        const SkylineSpec& spec,
                                        bool index_available) {
  SkylineAccessChoice choice;
  if (spec.value_columns().size() == 2) {
    choice.path = SkylineAccessPath::kSpecial2d;
    return choice;
  }
  if (spec.value_columns().size() == 3) {
    choice.path = SkylineAccessPath::kSpecial3d;
    return choice;
  }
  choice.path = SkylineAccessPath::kSfs;
  const uint64_t n = input.row_count();
  if (!index_available || spec.has_diff() || n < 2) return choice;

  const uint64_t sample_n = std::min<uint64_t>(kAccessSampleRows, n);
  // Stride across the whole file rather than reading a prefix: a prefix is
  // unrepresentative whenever the table is presorted or z-order clustered —
  // it then covers one corner of key space, and that corner's local
  // skyline wildly over- or under-states the global one.
  Result<std::vector<char>> rows = ReadEvenlySpacedRecords(
      input.env(), input.path(), spec.schema().row_width(), sample_n);
  if (!rows.ok()) return choice;
  // The first sample_n records sit at multiples of n / sample_n.
  rows->resize(static_cast<size_t>(sample_n) * spec.schema().row_width());
  choice.sample_rows = sample_n;
  choice.sample_skyline = SampleSkylineCount(spec, rows->data(), sample_n);
  choice.estimated_skyline = ExtrapolateSkylineSize(
      static_cast<double>(choice.sample_skyline), sample_n, n,
      static_cast<int>(spec.num_dimensions()));
  choice.bbs_threshold = std::max(64.0, static_cast<double>(n) / 2000.0);
  if (choice.estimated_skyline <= choice.bbs_threshold) {
    choice.path = SkylineAccessPath::kBbs;
  }
  return choice;
}

}  // namespace skyline
