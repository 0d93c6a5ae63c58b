#ifndef SKYLINE_CORE_SFS_H_
#define SKYLINE_CORE_SFS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/run_stats.h"
#include "core/sfs_parallel.h"
#include "core/skyline_spec.h"
#include "core/window.h"
#include "core/zone_prefilter.h"
#include "relation/table.h"
#include "sort/external_sort.h"
#include "storage/heap_file.h"
#include "storage/temp_file_manager.h"

namespace skyline {

/// Which monotone presort order SFS applies before filtering.
enum class Presort {
  /// Nested lexicographic sort over the skyline attributes (Figure 6).
  kNested,
  /// Entropy-score sort (the w/E optimization; single-key, better window
  /// dominance numbers).
  kEntropy,
  /// Input is already in a monotone order — skip sorting. SFS still
  /// detects violations and fails with InvalidArgument.
  kNone,
  /// Sort by SfsOptions::custom_ordering — the paper's Section 4.4
  /// "combined with any preference ordering": if the user's preference is
  /// a monotone scoring, SFS emits the skyline *in preference order*, so
  /// the first results are the user's favorites (ideal with top-N). The
  /// ordering must be monotone w.r.t. dominance; violations are detected
  /// during filtering and reported as InvalidArgument, so this presort
  /// keeps every row for the window to check.
  kCustom,
};

/// Options for the Sort-Filter-Skyline algorithm.
struct SfsOptions {
  /// Buffer pages allocated to the filter window.
  size_t window_pages = 500;
  /// Store only projected skyline attributes in the window, with duplicate
  /// elimination (the w/P optimization).
  bool use_projection = true;
  Presort presort = Presort::kEntropy;
  /// Worker threads for the whole computation. 1 (the default) is the
  /// classic sequential algorithm; 0 means one worker per hardware thread.
  /// The request is clamped to the hardware and then to the blocks the
  /// input fills (ParallelSfsOptions::min_block_rows rows each). Above one
  /// worker the slice-first parallel path (core/sfs_parallel.h) runs
  /// instead of the global presort: the input is dealt into angular
  /// slices, each worker sorts and filters its own slice, and the filtered
  /// cascade merges the slices' candidates. It emits the same rows in the
  /// same order as sequential SFS (byte-identical when the sequential
  /// filter needs a single pass), but materializes each slice's candidates
  /// in memory and does not support residue_path (residue_path forces the
  /// sequential path). SkylineRunStats::threads_limited_by says why fewer
  /// workers ran than requested.
  size_t threads = 1;
  /// Buffer pages for the presort (the paper grants the sort 1,000 pages,
  /// separate from the filter window allocation). On the parallel path
  /// every slice sort gets this budget and runs on one thread. Its filter
  /// is not used: the presort installs its own EliminationFilter.
  SortOptions sort_options;
  /// If non-empty, every eliminated (dominated) tuple is also written to a
  /// heap file at this path — the complement of the skyline, used by the
  /// iterative strata labeller. The residue is in no particular order.
  std::string residue_path;
  /// The preference ordering used when presort == Presort::kCustom. Must
  /// outlive the call and be monotone w.r.t. dominance (any order induced
  /// by a monotone scoring function qualifies — Theorem 6).
  const RowOrdering* custom_ordering = nullptr;
};

/// Pull-based, pipelined SFS filter over an already-sorted heap file.
/// Every row returned by Next() is a confirmed skyline tuple the moment it
/// is returned — the property that makes SFS's output stream non-blocking
/// and usable for top-N early termination.
///
/// Handles multi-pass operation transparently: non-dominated tuples that
/// overflow the window spill to a temp file which seeds the next pass, until
/// a pass spills nothing.
class SfsIterator {
 public:
  /// `sorted_path` must be a heap file of spec->schema() rows in a monotone
  /// (topological w.r.t. dominance) order, with DIFF columns outermost.
  /// All pointers must outlive the iterator; `stats` may be null.
  SfsIterator(Env* env, TempFileManager* temp_files, std::string sorted_path,
              const SkylineSpec* spec, size_t window_pages,
              bool use_projection, SkylineRunStats* stats);

  SfsIterator(const SfsIterator&) = delete;
  SfsIterator& operator=(const SfsIterator&) = delete;

  /// Opens the first pass.
  Status Open();

  /// Routes eliminated (dominated) tuples to `writer` (already open) as a
  /// side output; the iterator finishes it when the last pass ends. Must be
  /// set before Open. Without one, eliminated tuples are discarded.
  void set_residue_writer(std::unique_ptr<HeapFileWriter> writer) {
    residue_writer_ = std::move(writer);
  }

  /// Attaches a zone-map prefilter over the input file's row blocks (sound
  /// only for Presort::kNone input, whose file blocks are the zone blocks):
  /// a block whose corner row a window entry dominates is skipped unread.
  /// Ignored with a residue writer (skipped rows must reach the residue).
  /// Set before Open. Later passes use zone maps built over their own
  /// spill files as they are written.
  void set_block_prefilter(std::shared_ptr<const BlockCornerBuilder> p) {
    prefilter_ = std::move(p);
  }

  /// Attaches an execution context (must outlive the iterator; set before
  /// Open). The iterator then emits one "filter-pass-N" trace span per
  /// pass plus sampled "window-probe" spans (one in every
  /// kProbeSampleStride window tests), and polls the cancellation hook
  /// every few thousand rows.
  void set_exec_context(const ExecContext* ctx) { ctx_ = ctx; }

  /// Every this-many window probes, one is wrapped in a "window-probe"
  /// span — dense enough to see probe latency, sparse enough to keep the
  /// per-row cost to a counter increment.
  static constexpr uint64_t kProbeSampleStride = 8192;

  /// Returns the next skyline row (full schema row, valid until the next
  /// call), or nullptr when exhausted or on error (check status()). On
  /// exhaustion the stats get filter_seconds, timed from construction.
  const char* Next();

  const Status& status() const { return status_; }

 private:
  /// Finishes the current pass's spill file and starts the next pass.
  /// Returns false when the computation is complete (or on error).
  bool StartNextPass();

  /// Publishes the window's comparison/pruning counters into stats_.
  void SyncWindowStats();

  /// First pass only: while positioned at a zone block boundary, tests the
  /// next block's corner row against the window and seeks past wholly
  /// dominated blocks. May set status_.
  void MaybeSkipBlocks();

  /// Opens the "filter-pass-<passes>" span (closing any previous one).
  void BeginPassSpan();

  /// Builds zone maps over the spill file as it is written, so the next
  /// pass can skip wholly dominated 64-row spill blocks the same way the
  /// first pass skips input blocks. Tracks only the spec's criterion
  /// columns (the ones BlockCornerBuilder reads) and only when they are
  /// all numeric — string criteria would need a cross-pass dictionary for
  /// codes to stay comparable, and the win there is marginal.
  struct SpillZoneTracker {
    bool enabled = false;
    /// Parallel arrays over the tracked criterion columns.
    std::vector<size_t> columns;     // schema column index
    std::vector<ColumnType> types;
    std::vector<size_t> offsets;
    size_t num_schema_columns = 0;
    uint64_t rows = 0;
    std::vector<int64_t> cur_min, cur_max;       // open block accumulators
    std::vector<std::vector<int64_t>> zmin, zmax;  // sealed blocks

    /// Configures the tracked columns from `spec`; disables itself when
    /// any criterion column is non-numeric.
    void Init(const SkylineSpec& spec);
    /// Folds one spilled row into the open block (sealing it at 64 rows).
    void Observe(const char* row);
    void SealBlock();
    /// Returns zones describing every observed row and restarts the
    /// tracker for the next pass's spill.
    std::shared_ptr<const TableColumnZones> Take();
  };

  Env* env_;
  TempFileManager* temp_files_;
  std::string input_path_;  // current pass's input
  const SkylineSpec* spec_;
  Window window_;
  SkylineRunStats local_stats_;
  SkylineRunStats* stats_;

  std::unique_ptr<HeapFileReader> reader_;
  std::unique_ptr<HeapFileWriter> spill_writer_;
  std::unique_ptr<HeapFileWriter> residue_writer_;
  std::shared_ptr<const BlockCornerBuilder> prefilter_;
  SpillZoneTracker spill_zones_;
  std::vector<char> corner_row_;
  uint64_t pass_rows_read_ = 0;
  const ExecContext* ctx_ = nullptr;
  Stopwatch filter_timer_;
  std::unique_ptr<TraceSpan> pass_span_;
  uint64_t probe_count_ = 0;
  std::string spill_path_;
  std::vector<char> out_row_;
  std::vector<char> prev_row_;  // DIFF group tracking
  bool have_prev_ = false;
  bool first_pass_ = true;
  bool done_ = false;
  Status status_;
};

/// A presort order: null for Presort::kNone, else `owned` (kNested,
/// kEntropy) or the caller's ordering (kCustom).
struct PresortOrdering {
  std::unique_ptr<RowOrdering> owned;
  const RowOrdering* ordering = nullptr;
};

/// Maps `presort` to its monotone order (Theorems 6/7); the entropy order
/// normalizes by `input`'s column stats. kCustom without `custom` is
/// InvalidArgument. The result borrows `spec` and `custom`.
Result<PresortOrdering> MakePresortOrdering(Presort presort,
                                            const SkylineSpec& spec,
                                            const Table& input,
                                            const RowOrdering* custom);

/// The presort step: sorts `input_path` by `ordering` in a "presort" span,
/// recording the sort's stats and seconds. A null ordering returns
/// `input_path` unsorted.
Result<std::string> RunPresort(Env* env, TempFileManager* temp_files,
                               const std::string& input_path, size_t row_width,
                               const RowOrdering* ordering,
                               const SortOptions& sort_options,
                               const ExecContext& ctx, SortStats* sort_stats,
                               double* sort_seconds);

/// An SFS thread request resolved by ResolveSfsThreads.
struct SfsThreads {
  size_t requested = 1;       // ctx.threads over options.threads; 0 = hw
  size_t workers = 1;         // `requested` clamped to the hardware
  bool parallel = false;      // workers > 1 and no residue_path
  SortOptions sort_options;   // options.sort_options, presort workers set
};

/// The one translation of an SFS thread request into filter workers, path
/// and presort workers (`workers` under a context override, or for a
/// request above one when the sort asked for one). Every SFS caller and
/// ComputeSkyline's special scans share it, so they clamp alike.
SfsThreads ResolveSfsThreads(const SfsOptions& options, const ExecContext& ctx);

/// The one sequential SFS: presorts `input`, then returns the open filter,
/// which pipelines each row out as the window confirms it. ComputeSkylineSfs
/// drains it, SkylineOperator streams from it (LIMIT stops it early). A
/// kNested or kEntropy presort drops dominated rows (core/less.h) unless
/// there is a residue. It attaches the exec context, the Presort::kNone zone
/// prefilter and the residue writer, and records threads_requested /
/// threads_limited_by for a request that resolves to this path. Arguments
/// must outlive the stream.
Result<std::unique_ptr<SfsIterator>> OpenSfsStream(
    const Table& input, const SkylineSpec& spec, const SfsOptions& options,
    const ExecContext& ctx, TempFileManager* temp_files,
    SkylineRunStats* stats);

/// Computes the skyline of `input` under `spec` with SFS, writing the
/// result (full rows, in the presort's monotone order) to a new table at
/// `output_path`: the slice-parallel path when ResolveSfsThreads says so,
/// else the drained OpenSfsStream. `stats` may be null.
///
/// The context supplies the thread override (ctx.threads beats
/// options.threads; see ResolveSfsThreads), the temp-file
/// prefix, the trace sink, the metrics sink, and cancellation. Trace spans:
/// sequentially, "presort" wrapping the external sort's "run-formation" /
/// "merge-N", then "filter-pass-N"; in parallel, "deal" (which eliminates
/// like the sequential presort), then "block-scan"
/// wrapping each worker's "slice-sort-<k>" (with its sort's own spans) and
/// "filter-block-<k>", then "block-merge".
Result<Table> ComputeSkylineSfs(const Table& input, const SkylineSpec& spec,
                                const SfsOptions& options,
                                const ExecContext& ctx,
                                const std::string& output_path,
                                SkylineRunStats* stats);

}  // namespace skyline

#endif  // SKYLINE_CORE_SFS_H_
