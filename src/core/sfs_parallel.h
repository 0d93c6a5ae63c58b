#ifndef SKYLINE_CORE_SFS_PARALLEL_H_
#define SKYLINE_CORE_SFS_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/run_stats.h"
#include "core/skyline_spec.h"
#include "env/env.h"
#include "relation/table.h"
#include "sort/comparator.h"
#include "sort/external_sort.h"
#include "storage/temp_file_manager.h"

namespace skyline {

/// Options for the slice-first parallel SFS.
struct ParallelSfsOptions {
  /// Buffer pages for each worker's filter window (same meaning as
  /// SfsOptions::window_pages; the budget is per worker).
  size_t window_pages = 500;
  /// Store projected rows in the windows, with duplicate elimination.
  bool use_projection = true;
  /// Worker threads (slices), used as given: callers resolve the request
  /// first (ComputeSkylineSfs through ResolveSfsThreads). Tests pass more
  /// workers than the machine has to *simulate* that many slices.
  size_t threads = 1;
  /// Blocks smaller than this are not worth a task; the block count is
  /// reduced until every block has at least this many rows.
  uint64_t min_block_rows = 4096;
  /// Execution context (trace sink for the "deal", "block-scan",
  /// "slice-sort-<k>", "filter-block-<k>" and "block-merge" spans,
  /// cancellation hook polled by the deal, the workers and the merge
  /// phases). Null means no sinks and no cancellation; thread selection
  /// stays with `threads` above.
  const ExecContext* exec = nullptr;
};

/// Slice-first parallel SFS over `input` (spec.schema() rows).
///
/// The paper's presort guarantees (Theorems 6/7) that a tuple can only be
/// dominated by tuples *earlier* in a monotone order, and that holds for
/// any subsequence of that order. So the input is cut into P angular
/// slices (core/partition.h) first, and each slice is sorted and filtered
/// on its own:
///
///  1. Deal. The AngularPartitioner is fitted on a sample of the input;
///     one pass then appends every row, tagged with its input row index,
///     to its slice's temp heap file, keeping input order. With
///     `eliminate`, each worker's stretch of the pass runs its own seeded
///     EliminationFilter (core/less.h): a row it drops reaches no slice.
///  2. Sort and filter. Worker k sorts its slice with SortHeapFile at one
///     thread (so the P slice sorts and their merges run side by side),
///     deletes the unsorted slice, and runs the standard window filter
///     over the sorted slice alone. The sort is stable, so the sorted
///     slice is exactly the global presort order restricted to the slice.
///  3. Merge. Candidates get their global positions by ranking them on
///     (ordering, input row index) — the global sort's own order. The
///     filtered cascade then removes the candidates some other slice
///     dominates: every candidate is first pre-pruned against a pooled set
///     of the slices' strongest representatives (core/representatives.h),
///     then the slices merge pairwise in position order — each candidate
///     probed only against the blocks of its pair partner that can still
///     dominate it (dominator-side zone-map corner test first, SIMD batch
///     probe second), each level halving the list count until one
///     survivor list remains.
///
/// A slice's local skyline is a superset of the global skyline's
/// restriction to it, so the survivors are exactly the global skyline,
/// emitted in global sorted order: byte-identical across thread counts,
/// and to the sequential filter whenever it completes in one pass.
///
/// `ordering` null means the input is already in a monotone order: the
/// slices are not sorted, nothing is eliminated, and a row's position is
/// its index in the input. With one block (one thread, or too few rows for
/// two min_block_rows blocks) there is no deal: the worker sorts (with the
/// elimination filter, if any) and filters the input itself.
/// `sort_options` supplies the slice sorts' buffer pages only.
/// Temp files come from `temp_files`; every slice file is deleted as soon
/// as it has been consumed.
///
/// `sink` receives each confirmed skyline row (full schema() row) and may
/// not be called again after returning an error. `stats` may be null; the
/// per-phase timings it receives are deal_seconds, slice_sort_seconds
/// (slowest slice), block_scan_seconds (slowest slice filter) and
/// block_merge_seconds, with sort_seconds = deal + slowest slice sort when
/// the pipeline sorts, and filter_seconds the rest of the wall time.
Status ParallelSfs(TempFileManager* temp_files, const Table& input,
                   const SkylineSpec& spec, const RowOrdering* ordering,
                   bool eliminate, const SortOptions& sort_options,
                   const ParallelSfsOptions& options,
                   const std::function<Status(const char* row)>& sink,
                   SkylineRunStats* stats);

/// ParallelSfs over an already presorted heap file (no slice sorts; a
/// row's position is its index in `sorted_path`). Slice temp files are
/// named after `sorted_path`.
Status ParallelSfsFilter(Env* env, const std::string& sorted_path,
                         const SkylineSpec& spec,
                         const ParallelSfsOptions& options,
                         const std::function<Status(const char* row)>& sink,
                         SkylineRunStats* stats);

}  // namespace skyline

#endif  // SKYLINE_CORE_SFS_PARALLEL_H_
