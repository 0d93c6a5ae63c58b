#ifndef SKYLINE_SORT_EXTERNAL_SORT_H_
#define SKYLINE_SORT_EXTERNAL_SORT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "env/env.h"
#include "sort/comparator.h"
#include "storage/io_stats.h"
#include "storage/temp_file_manager.h"

namespace skyline {

/// Record-level filter applied while the sorter reads its input — the hook
/// behind the paper's Section 6 suggestion that "removal of non-skyline
/// tuples could be done during the external sort passes" (realized by the
/// elimination-filter window of core/less.h, which every SFS presort runs).
class RowFilter {
 public:
  virtual ~RowFilter() = default;

  /// Returns false to drop the record before it enters a sort run.
  virtual bool Keep(const char* row) = 0;
};

/// Tuning knobs for the external merge sort.
struct SortOptions {
  /// Pages of record buffer available: bounds both the in-memory run size
  /// and the merge fan-in. The paper's experiments give the sort a
  /// 1,000-page allocation.
  size_t buffer_pages = 1000;
  /// Optional input filter (must outlive the sort); see RowFilter.
  RowFilter* filter = nullptr;
  /// Worker threads for run formation and merging. 1 (the default) keeps
  /// the classic sequential sort; 0 means one per hardware thread. Resolved
  /// by ExecContext::ResolveThreads (context override, hardware clamp). The
  /// sorted output is byte-identical for every thread count: parallelism
  /// only changes *when* each run is sorted and each group merged, never
  /// the run boundaries or merge tree. With T > 1, up to T in-memory runs
  /// are in flight at once, so peak memory is ~T × buffer_pages pages.
  size_t threads = 1;
};

/// Observability counters for one Sort() call.
struct SortStats {
  uint64_t runs_generated = 0;
  uint64_t merge_levels = 0;
  /// Records dropped by SortOptions::filter.
  uint64_t records_filtered = 0;
  /// Worker threads the sort actually used.
  uint64_t threads_used = 1;
  /// Pages written+read for runs and merges (excludes reading the input and
  /// counts the final output's write).
  IoStats io;
};

/// Classic external merge sort over heap files of fixed-width records:
/// sorted initial runs of `buffer_pages` pages each, then k-way merges
/// with fan-in `buffer_pages - 1` until one sorted file remains.
///
/// The sort is stable: records the ordering ranks equal leave in input
/// order (runs are stable-sorted, and merges break ties by run).
///
/// When `ordering->has_key()` the sorter caches one scalar key per record
/// (computed once per run / merge cursor) instead of invoking the
/// multi-column comparator per comparison.
///
/// With SortOptions::threads > 1 the sorter parallelizes on a ThreadPool:
/// run formation pipelines the (sequential) input scan against concurrent
/// sort+write of whole runs, merge levels process independent run groups
/// concurrently, and a single-group (final) merge overlaps its comparison
/// work with page writes via a double-buffered background appender.
class ExternalSorter {
 public:
  /// All pointers must outlive the sorter. `stats_out` may be null. The
  /// context supplies the thread override, trace sink ("run-formation" and
  /// per-level "merge-N" spans), and the cancellation hook polled during
  /// the input scan and each merge.
  ExternalSorter(Env* env, TempFileManager* temp_files,
                 const RowOrdering* ordering, size_t record_size,
                 const SortOptions& options, const ExecContext& ctx,
                 SortStats* stats_out);

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  /// Sorts the heap file at `input_path` and returns the path of a new
  /// sorted temp heap file (owned by the TempFileManager).
  Result<std::string> Sort(const std::string& input_path);

 private:
  Result<std::string> GenerateRuns(const std::string& input_path,
                                   std::vector<std::string>* runs);
  /// Sorts `count` records in `buffer` and writes them to `run_path`,
  /// accumulating page I/O into `io` (caller-local; merged later).
  Status SortAndWriteRun(std::vector<char> buffer, size_t count,
                         const std::string& run_path, IoStats* io);
  Result<std::string> MergeRuns(std::vector<std::string> runs);
  /// Merges `group` into `out_path`. `append_pool`, when non-null, receives
  /// the page-append work so it overlaps with comparisons; it must only be
  /// set when MergeOnce runs on the caller thread (never from inside a pool
  /// task, which must not wait on tasks it submitted).
  Status MergeOnce(const std::vector<std::string>& group,
                   const std::string& out_path, ThreadPool* append_pool,
                   IoStats* io);

  Env* env_;
  TempFileManager* temp_files_;
  const RowOrdering* ordering_;
  size_t record_size_;
  SortOptions options_;
  const ExecContext* ctx_;
  SortStats* stats_out_;
  SortStats local_stats_;
  SortStats* stats_;
  std::unique_ptr<ThreadPool> pool_;
  std::mutex stats_mu_;
};

/// Convenience: sort `input_path` with `ordering` using fresh temp files in
/// `env`, returning the sorted file path. `stats` may be null.
Result<std::string> SortHeapFile(Env* env, TempFileManager* temp_files,
                                 const std::string& input_path,
                                 size_t record_size,
                                 const RowOrdering& ordering,
                                 const SortOptions& options,
                                 const ExecContext& ctx, SortStats* stats);

}  // namespace skyline

#endif  // SKYLINE_SORT_EXTERNAL_SORT_H_
