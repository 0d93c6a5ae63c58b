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

namespace skyline {

/// Options for the block-parallel SFS filter.
struct ParallelSfsOptions {
  /// Buffer pages for each worker's filter window (same meaning as
  /// SfsOptions::window_pages; the budget is per worker).
  size_t window_pages = 500;
  /// Store projected rows in the windows, with duplicate elimination.
  bool use_projection = true;
  /// Worker threads; 0 means one per hardware thread. Callers may pass
  /// more workers than the machine has to *simulate* that many shards
  /// (the CI harness validating pruning ratios on small hosts does);
  /// production entry points clamp before getting here.
  size_t threads = 0;
  /// Blocks smaller than this are not worth a task; the block count is
  /// reduced until every block has at least this many rows.
  uint64_t min_block_rows = 4096;
  /// Execution context (trace sink for the "block-scan" / "block-merge"
  /// spans, cancellation hook polled by the workers and the merge
  /// phases). Null means no sinks and no cancellation; thread selection
  /// stays with `threads` above.
  const ExecContext* exec = nullptr;
};

/// Block-parallel SFS filter over a presorted heap file.
///
/// The paper's presort guarantees (Theorems 6/7) that a tuple can only be
/// dominated by tuples *earlier* in the sorted stream. An
/// AngularPartitioner (core/partition.h) assigns every row to one of P
/// partitions; a partition's rows form a subsequence of the sorted stream,
/// so each is itself monotone-sorted (with DIFF groups contiguous) and
/// independently filterable with the standard window machinery. Every
/// worker scans the whole stream and keeps the rows of its own slice.
///
/// Block k's local skyline is a superset of the global skyline's
/// restriction to block k. The filtered cascade removes the candidates
/// some other partition dominates: every candidate is first pre-pruned
/// against a pooled set of the partitions' strongest representatives
/// (core/representatives.h), then the partitions merge pairwise in
/// sorted-position order — each candidate probed only against the blocks
/// of its pair partner that can still dominate it (dominator-side
/// zone-map corner test first, SIMD batch probe second), each level
/// halving the list count until one survivor list remains. Survivors are
/// exactly the global skyline, emitted in global sorted order —
/// byte-identical across thread counts (and to the sequential filter
/// whenever it completes in one pass).
///
/// `sink` receives each confirmed skyline row (full schema() row) and may
/// not be called again after returning an error. `stats` may be null.
Status ParallelSfsFilter(Env* env, const std::string& sorted_path,
                         const SkylineSpec& spec,
                         const ParallelSfsOptions& options,
                         const std::function<Status(const char* row)>& sink,
                         SkylineRunStats* stats);

}  // namespace skyline

#endif  // SKYLINE_CORE_SFS_PARALLEL_H_
