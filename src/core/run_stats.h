#ifndef SKYLINE_CORE_RUN_STATS_H_
#define SKYLINE_CORE_RUN_STATS_H_

#include <cstdint>

#include "sort/external_sort.h"
#include "storage/io_stats.h"

namespace skyline {

/// Observability for one skyline computation (SFS or BNL), matching the
/// quantities the paper reports: pass counts, the "extra pages" I/O measure
/// (temp pages written plus read back, excluding the initial input scan),
/// dominance-comparison counts (CPU-effort proxy), and phase timings.
struct SkylineRunStats {
  uint64_t input_rows = 0;
  uint64_t output_rows = 0;
  /// Filter passes over (progressively shrinking) input.
  uint64_t passes = 0;
  /// Tuples written to temp files across all passes.
  uint64_t spilled_tuples = 0;
  /// Temp-file page traffic: each spilled page costs one write plus one
  /// read on the next pass — the paper's Figures 10/14/15 metric.
  IoStats temp_io;
  /// Presort cost (SFS always; BNL only for forced input orders). The
  /// slice-parallel path sums its slice sorts (merge_levels is the deepest
  /// slice's, threads_used the number of slices sorted side by side) and
  /// counts the deal's page writes.
  SortStats sort_stats;
  /// Pairwise dominance tests against the window. For the block-parallel
  /// filter this sums every worker's local-window tests plus the merge
  /// phase's cross-block tests. On the columnar window path a tested block
  /// counts all of its entries (the batched kernel relates them at once)
  /// and a zone-map-pruned block counts none.
  uint64_t window_comparisons = 0;
  /// Dominance tests executed through the batched SIMD kernel — a subset
  /// of window_comparisons; zero when the spec forces the row fallback.
  uint64_t batch_comparisons = 0;
  /// 64-entry window blocks skipped outright because their zone maps
  /// proved no entry could dominate, equal, or be dominated by the probe.
  uint64_t window_blocks_pruned = 0;
  /// Same, for the block-parallel merge phase's candidate indexes.
  uint64_t merge_blocks_pruned = 0;
  /// Dominance kernel variant the filter ran with: "scalar", "sse2", or
  /// "avx2" for the columnar window; "row" when the spec's criterion types
  /// force the row-at-a-time comparator. Static string, never null.
  const char* dominance_kernel = "row";
  /// BNL only: tuples that replaced dominated window entries.
  uint64_t window_replacements = 0;
  /// SFS block prefilter (presorted-input path): 64-row input blocks
  /// skipped wholesale because a window entry dominates the block's
  /// zone-map corner.
  uint64_t table_zone_blocks_pruned = 0;
  /// Blocks of the persisted column file read to serve this query (zero
  /// when the zones came from a scan or the in-process cache).
  uint64_t column_file_blocks_read = 0;
  /// Successful dictionary probe lookups (string DIFF specs only).
  uint64_t dict_probe_hits = 0;
  /// Where the table zone maps came from: "column_file" (persisted
  /// sidecar), "cache" (in-process TableZoneCache hit), "scan" (rebuilt
  /// this query), or "none" (prefilter not engaged). Static string.
  const char* zone_map_source = "none";
  /// BBS only: index nodes (interior and leaf entries) popped from the
  /// branch-and-bound heap and actually examined.
  uint64_t index_nodes_visited = 0;
  /// BBS only: column-file blocks the index proved dominated (or outside
  /// the constraint box) and therefore never read from disk — out of
  /// ceil(input_rows / 64) total.
  uint64_t index_blocks_skipped = 0;
  /// BBS only: high-water mark of the branch-and-bound heap.
  uint64_t heap_peak = 0;
  /// Access path the computation actually ran ("sfs", "bnl", "less",
  /// "bbs", "special2d", "special3d", ...; "" = not recorded). For kAuto
  /// this is the routing outcome; for explicit algorithms it echoes the
  /// request. Static string.
  const char* access_path = "";
  /// kAuto routing evidence (ChooseSkylineAccess): rows sampled, skyline
  /// measured on the sample, the extrapolated full-table estimate, and the
  /// BBS cutoff it was compared against. All zero when no sample was taken
  /// (special scans, no index, explicit algorithm).
  uint64_t route_sample_rows = 0;
  uint64_t route_sample_skyline = 0;
  double route_estimated_skyline = 0.0;
  double route_bbs_threshold = 0.0;
  /// Worker threads the filter phase actually used (1 = sequential SFS).
  uint64_t threads_used = 1;
  /// Worker threads the caller asked for, after "0 = all hardware"
  /// resolution but before any clamp or small-input block reduction.
  /// 0 = not recorded (single-threaded entry points). threads_used <
  /// threads_requested is the degraded-parallelism signal: a host or
  /// input too small to honor the request must never masquerade as a
  /// scaling measurement.
  uint64_t threads_requested = 0;
  /// Why threads_used fell short of threads_requested: "hardware" (the
  /// request exceeds the host's hardware threads), "input_rows" (too few
  /// rows for that many min_block_rows-sized blocks), "residue_path" (the
  /// residue side output forces the sequential filter), or "none".
  /// Static string.
  const char* threads_limited_by = "none";
  /// Block-parallel only: cross-block dominance tests of the merge phase
  /// (representative pre-prune probes included).
  uint64_t merge_comparisons = 0;
  /// Block-parallel only: local-skyline candidates entering the merge.
  uint64_t merge_candidates = 0;
  /// Candidates eliminated by the cross-partition representative
  /// pre-filter before any block-to-block probing.
  uint64_t representative_prunes = 0;
  /// Pairwise merge rounds of the filtered cascade (0 = single partition).
  uint64_t cascade_levels = 0;
  /// Presort time. For the slice-parallel path this is deal_seconds plus
  /// slice_sort_seconds.
  double sort_seconds = 0.0;
  double filter_seconds = 0.0;
  /// Slice-parallel only: the single pass that sends every input row to
  /// its angular slice, and the slowest slice's sort (zero when the input
  /// came presorted).
  double deal_seconds = 0.0;
  double slice_sort_seconds = 0.0;
  /// Slice-parallel only: the slowest slice's local filter, and time spent
  /// in the cross-slice merge phase.
  double block_scan_seconds = 0.0;
  double block_merge_seconds = 0.0;
  /// Average workers busy during the slice filters (their summed time over
  /// the slowest one) and during the merge (pool busy-nanoseconds over the
  /// phase's wall time; the caller participating in the merge's
  /// ParallelFor adds up to one uncounted worker). Zero when the phase did
  /// not run.
  double scan_avg_busy_workers = 0.0;
  double merge_avg_busy_workers = 0.0;
  /// Merge-side work (candidate index building) that ran while block
  /// scans were still in flight — real scan/merge phase overlap, not
  /// attributable to either phase's exclusive wall time.
  double scan_merge_overlap_seconds = 0.0;

  /// True when the filter could not use as many workers as requested;
  /// threads_limited_by says why. Meaningless when threads_requested was
  /// not recorded.
  bool DegradedParallelism() const {
    return threads_requested > 0 && threads_used < threads_requested;
  }

  double total_seconds() const { return sort_seconds + filter_seconds; }

  /// The paper's extra-pages metric (writes + re-reads of temp pages).
  uint64_t ExtraPages() const { return temp_io.TotalPages(); }
};

}  // namespace skyline

#endif  // SKYLINE_CORE_RUN_STATS_H_
