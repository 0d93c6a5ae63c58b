#include "core/sfs_parallel.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/dominance_batch.h"
#include "core/less.h"
#include "core/partition.h"
#include "core/representatives.h"
#include "core/window.h"
#include "storage/heap_file.h"
#include "storage/temp_file_manager.h"

namespace skyline {
namespace {

/// Representatives each partition broadcasts for the cross-partition
/// pre-prune.
constexpr size_t kRepresentatives = 16;
/// Upper bound on the *pooled* representative set. Broadcasting from many
/// partitions inflates the pool (partitions x representatives) and every
/// candidate probes the whole pool, so past a point the pool costs more
/// than it saves; re-selecting the pooled rows down to a small global
/// top-K keeps the strongest eliminators (kill counts barely move) while
/// capping the per-candidate probe cost.
constexpr size_t kRepresentativePoolCap = 32;

Status SortViolationError() {
  return Status::InvalidArgument(
      "SFS input is not sorted by a monotone scoring order: a tuple "
      "dominates one that precedes it");
}

/// Bytes of the input-row tag the deal appends to every slice record.
constexpr size_t kTagBytes = sizeof(uint64_t);

/// One slice of the input as its worker sees it. A dealt slice is a temp
/// file whose records carry their input row index in the kTagBytes after
/// the row; a single slice is the input itself, where a row's index is its
/// tag.
struct Slice {
  std::string path;
  bool owned = false;  // a temp file of this run, deleted once consumed
  bool tagged = false;
};

/// Result of one worker's sort and local filter of its slice: candidate
/// skyline rows in slice order plus that worker's counters.
struct SliceResult {
  Status status;
  std::vector<char> rows;      // candidate full rows, slice order
  std::vector<uint64_t> tags;  // input row index per candidate
  /// Indices into rows/tags of this slice's broadcast representatives
  /// (highest-entropy candidates), ascending; empty when not requested.
  std::vector<uint32_t> rep_indices;
  uint64_t comparisons = 0;
  uint64_t batch_comparisons = 0;
  uint64_t blocks_pruned = 0;
  uint64_t dict_hits = 0;
  uint64_t passes = 1;
  SortStats sort_stats;
  double sort_seconds = 0.0;
  double filter_seconds = 0.0;
};

/// Reorders `result`'s candidates by `seq` (slice order; rows are
/// `width` wide), leaving `seq` ascending.
void RestoreSliceOrder(size_t width, std::vector<uint64_t>* seq,
                       SliceResult* result) {
  std::vector<uint32_t> order(seq->size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [seq](uint32_t a, uint32_t b) { return (*seq)[a] < (*seq)[b]; });
  std::vector<char> rows(result->rows.size());
  std::vector<uint64_t> tags(order.size());
  std::vector<uint64_t> sorted_seq(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    std::memcpy(rows.data() + i * width,
                result->rows.data() + order[i] * width, width);
    tags[i] = result->tags[order[i]];
    sorted_seq[i] = (*seq)[order[i]];
  }
  result->rows = std::move(rows);
  result->tags = std::move(tags);
  *seq = std::move(sorted_seq);
}

/// Runs the standard window filter over one sorted slice. The slice is
/// monotone-sorted with DIFF groups contiguous (it is a subsequence of the
/// global presort order), so the window machinery applies unchanged.
/// Window overflow is handled with in-memory multi-pass rounds over the
/// deferred rows (the slice is bounded, so deferral stays in memory rather
/// than spilling to a temp file); candidates are restored to slice order
/// afterwards.
void FilterSlice(Env* env, const Slice& slice, const SkylineSpec& spec,
                 const ParallelSfsOptions& options, const ExecContext& ctx,
                 size_t rep_count, SliceResult* result) {
  const size_t width = spec.schema().row_width();
  const size_t record_width = slice.tagged ? width + kTagBytes : width;
  HeapFileReader reader(env, slice.path, record_width, nullptr);
  result->status = reader.Open();
  if (!result->status.ok()) return;
  const bool poll_cancel = ctx.has_cancel_hook();

  Window window(&spec, options.window_pages, options.use_projection);
  // Slice-order sequence numbers of the candidates and of the deferred
  // rows; deferral rounds append out of order.
  std::vector<uint64_t> seq;
  std::vector<char> deferred;
  std::vector<uint64_t> deferred_tag;
  std::vector<uint64_t> deferred_seq;
  std::vector<char> prev_row(width);
  bool have_prev = false;

  // One filtering round shared by the streaming pass and the in-memory
  // deferral rounds.
  auto test_row = [&](const char* row, uint64_t tag, uint64_t n) -> Status {
    if (spec.has_diff()) {
      if (have_prev && !spec.SameDiffGroup(prev_row.data(), row)) {
        window.Clear();
      }
      std::memcpy(prev_row.data(), row, width);
      have_prev = true;
    }
    switch (window.Test(row)) {
      case Window::Verdict::kDominated:
        break;
      case Window::Verdict::kAdded:
      case Window::Verdict::kDuplicateSkyline:
        result->rows.insert(result->rows.end(), row, row + width);
        result->tags.push_back(tag);
        seq.push_back(n);
        break;
      case Window::Verdict::kWindowFull:
        deferred.insert(deferred.end(), row, row + width);
        deferred_tag.push_back(tag);
        deferred_seq.push_back(n);
        break;
      case Window::Verdict::kSortViolation:
        return SortViolationError();
    }
    return Status::OK();
  };

  const uint64_t total = reader.record_count();
  for (uint64_t i = 0; i < total; ++i) {
    const char* record = reader.Next();
    if (record == nullptr) {
      result->status = reader.status().ok()
                           ? Status::Corruption("slice truncated")
                           : reader.status();
      return;
    }
    if (poll_cancel && ((i + 1) & 4095u) == 0) {
      result->status = ctx.CheckCancelled();
      if (!result->status.ok()) return;
    }
    uint64_t tag = i;
    if (slice.tagged) std::memcpy(&tag, record + width, kTagBytes);
    result->status = test_row(record, tag, i);
    if (!result->status.ok()) return;
  }

  while (!deferred.empty()) {
    ++result->passes;
    window.Clear();
    have_prev = false;
    std::vector<char> round = std::move(deferred);
    std::vector<uint64_t> round_tag = std::move(deferred_tag);
    std::vector<uint64_t> round_seq = std::move(deferred_seq);
    deferred = {};
    deferred_tag = {};
    deferred_seq = {};
    for (size_t i = 0; i < round_seq.size(); ++i) {
      result->status =
          test_row(round.data() + i * width, round_tag[i], round_seq[i]);
      if (!result->status.ok()) return;
    }
  }
  if (result->passes > 1) RestoreSliceOrder(width, &seq, result);
  // Slice order is the global order restricted to the slice, so the
  // sequence numbers rank the candidates as their global positions will.
  if (rep_count > 0 && !seq.empty()) {
    result->rep_indices =
        SelectRepresentatives(spec, result->rows.data(), seq, rep_count);
  }
  result->comparisons = window.comparisons();
  result->batch_comparisons = window.batch_comparisons();
  result->blocks_pruned = window.blocks_pruned();
  result->dict_hits = window.dict_hits();
}

/// Env view for one slice sort: opening the slice for reading also
/// unlinks it, so the unsorted slice is freed the moment the sorter's run
/// formation closes it instead of coexisting with the runs and the merged
/// output. An open file outlives its unlinking (a MemEnv file is
/// ref-counted; POSIX keeps an unlinked inode alive until close).
class ConsumeOnReadEnv : public Env {
 public:
  ConsumeOnReadEnv(Env* base, std::string path)
      : base_(base), path_(std::move(path)) {}

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override {
    return base_->NewWritableFile(path, out);
  }
  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override {
    SKYLINE_RETURN_IF_ERROR(base_->NewRandomAccessFile(path, out));
    if (path == path_) return base_->DeleteFile(path);
    return Status::OK();
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  bool FileExists(const std::string& path) const override {
    return base_->FileExists(path);
  }
  Result<uint64_t> FileSize(const std::string& path) const override {
    return base_->FileSize(path);
  }

 private:
  Env* base_;
  std::string path_;
};

/// Owner value of rows the sort's RowFilter dropped.
constexpr uint32_t kDropped = ~0u;

/// The first half of the deal: the slice of every input row, computed
/// once per row on `pool`'s workers over contiguous stretches of the
/// input. With a `scorer`, each stretch runs its own EliminationFilter and
/// marks the rows it drops kDropped, so they reach no slice.
Status AssignSlices(const Table& input, const SkylineSpec& spec,
                    const AngularPartitioner& partitioner,
                    const EntropyScorer* scorer, const ExecContext& ctx,
                    ThreadPool* pool, std::vector<uint32_t>* owners,
                    uint64_t* filtered) {
  const size_t width = spec.schema().row_width();
  const uint64_t total = owners->size();
  const size_t stretches = pool->num_threads();
  std::atomic<uint64_t> dropped{0};
  auto assign = [&](uint64_t begin, uint64_t end) -> Status {
    std::optional<EliminationFilter> ef;
    if (scorer != nullptr) {
      ef.emplace(&spec, scorer, kEliminationWindowPages);
      SKYLINE_RETURN_IF_ERROR(ef->Seed(input));
    }
    HeapFileReader reader(input.env(), input.path(), width, nullptr);
    SKYLINE_RETURN_IF_ERROR(reader.Open());
    SKYLINE_RETURN_IF_ERROR(reader.SeekToRecord(begin));
    const bool poll_cancel = ctx.has_cancel_hook();
    for (uint64_t i = begin; i < end; ++i) {
      const char* row = reader.Next();
      if (row == nullptr) {
        return reader.status().ok() ? Status::Corruption("input truncated")
                                    : reader.status();
      }
      if (poll_cancel && ((i + 1) & 4095u) == 0) {
        SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());
      }
      if (ef.has_value() && !ef->Keep(row)) {
        (*owners)[i] = kDropped;
        dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      (*owners)[i] = static_cast<uint32_t>(partitioner.OwnerOf(row));
    }
    return Status::OK();
  };
  std::vector<std::future<Status>> done;
  for (size_t c = 0; c < stretches; ++c) {
    const uint64_t begin = total * c / stretches;
    const uint64_t end = total * (c + 1) / stretches;
    done.push_back(pool->Submit([&assign, begin, end]() {
      return assign(begin, end);
    }));
  }
  Status first_error;
  for (auto& d : done) {
    Status st = d.get();
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  *filtered = dropped.load();
  return first_error;
}

/// The second half of the deal, one call per slice on its own worker:
/// appends the input rows `owners` assigns to slice `k`, each tagged with
/// its input row index, to `slice_path`, keeping input order.
Status WriteSlice(Env* env, const std::string& input_path, size_t width,
                  const std::vector<uint32_t>& owners, uint32_t k,
                  const std::string& slice_path, const ExecContext& ctx,
                  IoStats* io) {
  HeapFileReader reader(env, input_path, width, nullptr);
  SKYLINE_RETURN_IF_ERROR(reader.Open());
  HeapFileWriter writer(env, slice_path, width + kTagBytes, io);
  SKYLINE_RETURN_IF_ERROR(writer.Open());
  const bool poll_cancel = ctx.has_cancel_hook();
  std::vector<char> record(width + kTagBytes);
  for (uint64_t i = 0; i < owners.size(); ++i) {
    const char* row = reader.Next();
    if (row == nullptr) {
      return reader.status().ok() ? Status::Corruption("input truncated")
                                  : reader.status();
    }
    if (poll_cancel && ((i + 1) & 4095u) == 0) {
      SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());
    }
    if (owners[i] != k) continue;
    std::memcpy(record.data(), row, width);
    std::memcpy(record.data() + width, &i, kTagBytes);
    SKYLINE_RETURN_IF_ERROR(writer.Append(record.data()));
  }
  return writer.Finish();
}

/// Worker body for slice k: sorts the slice by `ordering` (when given) on
/// this thread alone, drops the unsorted slice, filters the sorted one and
/// drops that too.
SliceResult SortAndFilterSlice(Env* env, TempFileManager* temp_files,
                               Slice slice, const SkylineSpec& spec,
                               const RowOrdering* ordering,
                               const SortOptions& sort_options,
                               const ParallelSfsOptions& options,
                               const ExecContext& ctx, size_t k,
                               size_t rep_count) {
  SliceResult result;
  const size_t width = spec.schema().row_width();
  if (ordering != nullptr) {
    Stopwatch sort_timer;
    TraceSpan sort_span(ctx.trace, "slice-sort", static_cast<int64_t>(k));
    SortOptions slice_sort = sort_options;
    slice_sort.threads = 1;  // the slices are the parallelism
    ConsumeOnReadEnv consume(env, slice.owned ? slice.path : std::string());
    Result<std::string> sorted = SortHeapFile(
        &consume, temp_files, slice.path,
        slice.tagged ? width + kTagBytes : width, *ordering, slice_sort, ctx,
        &result.sort_stats);
    sort_span.End();
    result.sort_seconds = sort_timer.ElapsedSeconds();
    if (!sorted.ok()) {
      result.status = sorted.status();
      return result;
    }
    slice.path = std::move(sorted).value();
    slice.owned = true;
  }
  Stopwatch filter_timer;
  {
    // Worker-side spans: an exported trace shows each slice's sort and
    // filter on its own timeline row.
    TraceSpan block_span(ctx.trace, "filter-block", static_cast<int64_t>(k));
    FilterSlice(env, slice, spec, options, ctx, rep_count, &result);
  }
  if (slice.owned) temp_files->Delete(slice.path);
  result.filter_seconds = filter_timer.ElapsedSeconds();
  return result;
}

/// Global positions of every slice's candidates: their ranks in the
/// presort order, which is the sorter's (key, Compare) order with ties in
/// input order. Without an ordering the input is the sorted stream and a
/// candidate's tag (its row index) is its position.
std::vector<std::vector<uint64_t>> RankCandidates(
    const std::vector<SliceResult>& results, const RowOrdering* ordering,
    size_t width) {
  std::vector<std::vector<uint64_t>> pos(results.size());
  if (ordering == nullptr) {
    for (size_t k = 0; k < results.size(); ++k) pos[k] = results[k].tags;
    return pos;
  }
  struct Ref {
    double key;
    uint64_t tag;
    const char* row;
    uint32_t slice;
    uint32_t index;
  };
  std::vector<Ref> refs;
  const bool by_key = ordering->has_key();
  for (size_t k = 0; k < results.size(); ++k) {
    pos[k].resize(results[k].tags.size());
    for (size_t i = 0; i < results[k].tags.size(); ++i) {
      const char* row = results[k].rows.data() + i * width;
      refs.push_back({by_key ? ordering->Key(row) : 0.0, results[k].tags[i],
                      row, static_cast<uint32_t>(k),
                      static_cast<uint32_t>(i)});
    }
  }
  std::sort(refs.begin(), refs.end(),
            [ordering, by_key](const Ref& a, const Ref& b) {
              if (by_key && a.key != b.key) return a.key > b.key;
              const int cmp = ordering->Compare(a.row, b.row);
              if (cmp != 0) return cmp < 0;
              return a.tag < b.tag;
            });
  for (size_t r = 0; r < refs.size(); ++r) {
    pos[refs[r].slice][refs[r].index] = r;
  }
  return pos;
}

/// One position-sorted candidate list of the filtered cascade (a level-0
/// partition, the pooled representatives, or a merged survivor list).
/// `index` is the columnar mirror of ALL entries — including entries whose
/// keep bit has dropped: a dominated candidate is still a sound eliminator
/// (whatever it dominates, its own dominator dominates too, by
/// transitivity), so indexes never need rebuilding mid-level.
struct CascadeList {
  std::vector<char> rows;
  std::vector<uint64_t> pos;
  std::vector<uint8_t> keep;
  std::unique_ptr<DominanceIndex> index;  // null on the row fallback
};

std::unique_ptr<DominanceIndex> BuildIndex(
    const SkylineSpec& spec, const std::shared_ptr<SpecDictionaries>& dicts,
    const char* rows, size_t count, size_t width) {
  auto index = std::make_unique<DominanceIndex>(&spec, nullptr, dicts);
  index->Reserve(count);
  for (size_t i = 0; i < count; ++i) index->Append(rows + i * width);
  return index;
}

/// True when some entry of `list` at a position strictly before
/// `probe_pos` dominates `probe` (only earlier-position tuples can
/// dominate — the sort order is topological w.r.t. dominance). Columnar
/// lists zone-prune with the dominator-only corner test before each
/// batched kernel call; the row fallback scans the candidate's contiguous
/// DIFF group backward (DIFF specs) or the prefix forward.
bool ListDominates(const SkylineSpec& spec, size_t width, bool has_diff,
                   const CascadeList& list, const DominanceIndex::Probe& keys,
                   const char* probe, uint64_t probe_pos, uint64_t* tests,
                   uint64_t* pruned) {
  const size_t limit =
      std::lower_bound(list.pos.begin(), list.pos.end(), probe_pos) -
      list.pos.begin();
  if (limit == 0) return false;
  if (list.index != nullptr) {
    const size_t index_blocks = DominanceIndex::BlockCountFor(limit);
    for (size_t b = 0; b < index_blocks; ++b) {
      if (list.index->CanPruneBlockForDominators(keys, b)) {
        ++*pruned;
        continue;
      }
      *tests += list.index->BlockEntries(b, limit);
      if (list.index->TestBlock(keys, b, limit).dominates != 0) return true;
    }
  } else if (has_diff) {
    // Position order keeps DIFF groups contiguous, so the probe's group —
    // the only comparable entries — is exactly the tail of the
    // earlier-position prefix.
    for (size_t m = limit; m-- > 0;) {
      const char* entry = list.rows.data() + m * width;
      if (!spec.SameDiffGroup(entry, probe)) break;
      ++*tests;
      if (CompareDominance(spec, entry, probe) == DomResult::kFirstDominates) {
        return true;
      }
    }
  } else {
    // Forward scan: the earliest (best-scoring) tuples are the strongest
    // eliminators — the same heuristic that makes the window effective.
    for (size_t m = 0; m < limit; ++m) {
      ++*tests;
      if (CompareDominance(spec, list.rows.data() + m * width, probe) ==
          DomResult::kFirstDominates) {
        return true;
      }
    }
  }
  return false;
}

/// Merges the surviving entries of `a` and `b` into one position-sorted
/// list (two-pointer merge; both inputs are position-sorted subsequences,
/// so the union is too, and DIFF groups stay contiguous). Dominated
/// entries are dropped here — survivor-only lists are sound eliminator
/// sets at the next level by the transitivity chain argument.
CascadeList CompactPair(const SkylineSpec& spec, size_t width, bool columnar,
                        const std::shared_ptr<SpecDictionaries>& dicts,
                        const CascadeList& a, const CascadeList& b) {
  CascadeList out;
  size_t alive = 0;
  for (uint8_t k : a.keep) alive += k;
  for (uint8_t k : b.keep) alive += k;
  out.rows.reserve(alive * width);
  out.pos.reserve(alive);
  size_t i = 0;
  size_t j = 0;
  auto skip_dead = [](const CascadeList& list, size_t* c) {
    while (*c < list.pos.size() && !list.keep[*c]) ++*c;
  };
  for (;;) {
    skip_dead(a, &i);
    skip_dead(b, &j);
    const bool have_a = i < a.pos.size();
    const bool have_b = j < b.pos.size();
    if (!have_a && !have_b) break;
    const CascadeList* src = &a;
    size_t* c = &i;
    if (!have_a || (have_b && b.pos[j] < a.pos[i])) {
      src = &b;
      c = &j;
    }
    out.rows.insert(out.rows.end(), src->rows.data() + *c * width,
                    src->rows.data() + (*c + 1) * width);
    out.pos.push_back(src->pos[*c]);
    ++*c;
  }
  out.keep.assign(out.pos.size(), 1);
  if (columnar && !out.pos.empty()) {
    out.index = BuildIndex(spec, dicts, out.rows.data(), out.pos.size(), width);
  }
  return out;
}

/// Drops dominated entries from a single list in place (rebuilding its
/// index when columnar). Used between the representative pre-prune and the
/// first cascade level: the representatives kill most non-skyline
/// candidates, and level 0 is the largest level — probing survivor-only
/// lists there avoids re-scanning every kill the pool already made.
void CompactList(const SkylineSpec& spec, size_t width, bool columnar,
                 const std::shared_ptr<SpecDictionaries>& dicts,
                 CascadeList* list) {
  size_t alive = 0;
  for (uint8_t k : list->keep) alive += k;
  if (alive == list->pos.size()) return;
  CascadeList out;
  out.rows.reserve(alive * width);
  out.pos.reserve(alive);
  for (size_t i = 0; i < list->pos.size(); ++i) {
    if (!list->keep[i]) continue;
    out.rows.insert(out.rows.end(), list->rows.data() + i * width,
                    list->rows.data() + (i + 1) * width);
    out.pos.push_back(list->pos[i]);
  }
  out.keep.assign(out.pos.size(), 1);
  if (columnar && !out.pos.empty()) {
    out.index = BuildIndex(spec, dicts, out.rows.data(), out.pos.size(), width);
  }
  *list = std::move(out);
}

}  // namespace

Status ParallelSfs(TempFileManager* temp_files, const Table& input,
                   const SkylineSpec& spec, const RowOrdering* ordering,
                   bool eliminate, const SortOptions& sort_options,
                   const ParallelSfsOptions& options,
                   const std::function<Status(const char* row)>& sink,
                   SkylineRunStats* stats) {
  Stopwatch total_timer;
  SkylineRunStats local_stats;
  SkylineRunStats* s = stats != nullptr ? stats : &local_stats;
  static const ExecContext* const kNoContext = new ExecContext();
  const ExecContext& ctx = options.exec != nullptr ? *options.exec : *kNoContext;
  if (!input.schema().Equals(spec.schema())) {
    return Status::InvalidArgument("table schema does not match skyline spec");
  }
  SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());

  Env* env = input.env();
  const std::string& input_path = input.path();
  const size_t width = spec.schema().row_width();
  const uint64_t total = input.row_count();
  s->input_rows = total;
  s->passes = 1;

  const size_t threads = std::max<size_t>(1, options.threads);
  s->threads_requested = threads;
  const uint64_t min_block = std::max<uint64_t>(1, options.min_block_rows);
  const size_t blocks = static_cast<size_t>(std::max<uint64_t>(
      1, std::min<uint64_t>(threads, total / min_block)));
  s->threads_used = blocks;
  if (blocks < threads) s->threads_limited_by = "input_rows";
  if (total == 0) return Status::OK();

  ThreadPool pool(std::min(threads, blocks));

  // Dominated rows never reach a slice (the deal) or a sort run (a single
  // block's sort), as in the sequential presort.
  const EntropyScorer scorer(&spec, input);
  const EntropyScorer* ef_scorer =
      eliminate && ordering != nullptr ? &scorer : nullptr;

  // The deal: fit the angular slices on a deterministic sample of the
  // input (sorted or not — the fit only needs the value distribution),
  // compute every row's slice once, then let each worker write its own
  // slice. A single block needs none of it: its worker takes the whole
  // input.
  std::vector<Slice> slices(blocks);
  SortOptions slice_sort = sort_options;
  slice_sort.filter = nullptr;
  std::optional<EliminationFilter> single_ef;
  if (blocks == 1) {
    slices[0].path = input_path;
    if (ef_scorer != nullptr) {
      single_ef.emplace(&spec, ef_scorer, kEliminationWindowPages);
      SKYLINE_RETURN_IF_ERROR(single_ef->Seed(input));
      slice_sort.filter = &*single_ef;
    }
  } else {
    Stopwatch deal_timer;
    TraceSpan deal_span(ctx.trace, "deal");
    SKYLINE_ASSIGN_OR_RETURN(
        AngularPartitioner partitioner,
        AngularPartitioner::Fit(env, input_path, spec, blocks));
    std::vector<uint32_t> owners(total);
    uint64_t filtered = 0;
    SKYLINE_RETURN_IF_ERROR(AssignSlices(input, spec, partitioner, ef_scorer,
                                         ctx, &pool, &owners, &filtered));
    std::vector<IoStats> io(blocks);
    std::vector<std::future<Status>> written;
    for (size_t k = 0; k < blocks; ++k) {
      slices[k].path = temp_files->Allocate("slice");
      slices[k].owned = true;
      slices[k].tagged = true;
      written.push_back(pool.Submit([env, &input_path, width, &owners, k,
                                     path = slices[k].path, &ctx, &io]() {
        return WriteSlice(env, input_path, width, owners,
                          static_cast<uint32_t>(k), path, ctx, &io[k]);
      }));
    }
    Status first_error;
    for (size_t k = 0; k < blocks; ++k) {
      Status st = written[k].get();
      if (!st.ok() && first_error.ok()) first_error = st;
      if (ordering != nullptr) s->sort_stats.io += io[k];
    }
    SKYLINE_RETURN_IF_ERROR(first_error);
    s->sort_stats.records_filtered += filtered;
    deal_span.End();
    s->deal_seconds = deal_timer.ElapsedSeconds();
  }

  const bool columnar = DominanceIndex(&spec).columnar();
  const size_t rep_count = blocks > 1 ? kRepresentatives : 0;

  // All merge-side indexes (level-0 partitions, representative pool, and
  // every cascade level) share one dictionary set — a probe encoded
  // against one index is tested against others, which is only sound when
  // all of them code through the same dictionary. Index builds run on this
  // thread only (Encode is single-writer) in deterministic order; the
  // merge's parallel probes go through the const Find path.
  auto merge_dicts = std::make_shared<SpecDictionaries>(&spec);

  TraceSpan scan_span(ctx.trace, "block-scan");
  std::vector<std::future<SliceResult>> futures;
  futures.reserve(blocks);
  for (size_t k = 0; k < blocks; ++k) {
    futures.push_back(pool.Submit([env, temp_files, slice = slices[k], &spec,
                                   ordering, &slice_sort, &options, &ctx, k,
                                   rep_count]() {
      return SortAndFilterSlice(env, temp_files, slice, spec, ordering,
                                slice_sort, options, ctx, k, rep_count);
    }));
  }
  // Collect in slice order. Each slice's level-0 candidate index is built
  // the moment its filter lands — merge-side work overlapping the
  // still-running later slices; builds that complete before the last
  // slice are charged to scan_merge_overlap_seconds.
  std::vector<SliceResult> results;
  results.reserve(blocks);
  std::vector<std::unique_ptr<DominanceIndex>> eager_indexes(blocks);
  const bool eager_build = columnar && blocks > 1;
  double filter_busy_seconds = 0.0;
  for (size_t k = 0; k < blocks; ++k) {
    SliceResult slice = futures[k].get();
    s->window_comparisons += slice.comparisons;
    s->batch_comparisons += slice.batch_comparisons;
    s->window_blocks_pruned += slice.blocks_pruned;
    s->dict_probe_hits += slice.dict_hits;
    s->passes = std::max<uint64_t>(s->passes, slice.passes);
    s->slice_sort_seconds = std::max(s->slice_sort_seconds,
                                     slice.sort_seconds);
    s->block_scan_seconds = std::max(s->block_scan_seconds,
                                     slice.filter_seconds);
    filter_busy_seconds += slice.filter_seconds;
    s->sort_stats.runs_generated += slice.sort_stats.runs_generated;
    s->sort_stats.merge_levels = std::max(s->sort_stats.merge_levels,
                                          slice.sort_stats.merge_levels);
    s->sort_stats.records_filtered += slice.sort_stats.records_filtered;
    s->sort_stats.io += slice.sort_stats.io;
    if (eager_build && slice.status.ok() && !slice.tags.empty()) {
      Stopwatch build_timer;
      eager_indexes[k] = BuildIndex(spec, merge_dicts, slice.rows.data(),
                                    slice.tags.size(), width);
      if (k + 1 < blocks) {
        s->scan_merge_overlap_seconds += build_timer.ElapsedSeconds();
      }
    }
    results.push_back(std::move(slice));
  }
  if (ordering != nullptr) {
    // Every slice sort ran on one worker thread.
    s->sort_stats.threads_used = blocks;
    s->sort_seconds = s->deal_seconds + s->slice_sort_seconds;
  }
  if (s->block_scan_seconds > 0) {
    s->scan_avg_busy_workers = filter_busy_seconds / s->block_scan_seconds;
  }
  scan_span.End();
  for (const SliceResult& slice : results) {
    SKYLINE_RETURN_IF_ERROR(slice.status);
  }

  size_t candidate_count = 0;
  for (const SliceResult& slice : results) candidate_count += slice.tags.size();
  if (blocks > 1) s->merge_candidates = candidate_count;

  // Merge phase: a candidate is a global skyline tuple iff no other block's
  // local survivor dominates it (its own block already resolved intra-block
  // dominance). This is sound by transitivity: any eliminated dominator of
  // a candidate is itself dominated by some locally-surviving tuple, which
  // then dominates the candidate too; and it is complete because local
  // skylines are supersets of the global skyline's restriction. A single
  // block is a cascade of one list: nothing to probe, every candidate is
  // emitted.
  Stopwatch merge_timer;
  TraceSpan merge_span(ctx.trace, "block-merge");
  std::vector<std::vector<uint64_t>> pos =
      RankCandidates(results, ordering, width);
  const ThreadPool::BusyTotals merge_busy0 = pool.Totals();
  std::atomic<bool> cancel_requested{false};
  const bool poll_cancel = ctx.has_cancel_hook();
  const bool has_diff = spec.has_diff();
  std::atomic<uint64_t> merge_comparisons{0};
  std::atomic<uint64_t> merge_blocks_pruned{0};
  std::atomic<uint64_t> merge_batch_comparisons{0};
  std::atomic<uint64_t> representative_prunes{0};

  // The pooled representatives are copied before the candidate arrays
  // move into the cascade lists (rep_indices index the original arrays).
  CascadeList reps;
  if (rep_count > 0) {
    std::vector<std::pair<uint64_t, const char*>> pool_rows;
    for (size_t k = 0; k < blocks; ++k) {
      for (uint32_t idx : results[k].rep_indices) {
        pool_rows.emplace_back(pos[k][idx],
                               results[k].rows.data() + idx * width);
      }
    }
    std::sort(pool_rows.begin(), pool_rows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    reps.rows.reserve(pool_rows.size() * width);
    reps.pos.reserve(pool_rows.size());
    for (const auto& [rep_pos, row] : pool_rows) {
      reps.rows.insert(reps.rows.end(), row, row + width);
      reps.pos.push_back(rep_pos);
    }
    // Re-select the pooled rows down to the global top-K: every candidate
    // probes the whole pool, so the pool's size is a direct per-candidate
    // cost while its kill count saturates quickly.
    if (reps.pos.size() > kRepresentativePoolCap) {
      const std::vector<uint32_t> top = SelectRepresentatives(
          spec, reps.rows.data(), reps.pos, kRepresentativePoolCap);
      CascadeList capped;
      capped.rows.reserve(top.size() * width);
      capped.pos.reserve(top.size());
      for (uint32_t idx : top) {
        capped.rows.insert(capped.rows.end(), reps.rows.data() + idx * width,
                           reps.rows.data() + (idx + 1) * width);
        capped.pos.push_back(reps.pos[idx]);
      }
      reps = std::move(capped);
    }
    if (columnar && !reps.pos.empty()) {
      reps.index = BuildIndex(spec, merge_dicts, reps.rows.data(),
                              reps.pos.size(), width);
    }
  }

  std::vector<CascadeList> lists;
  lists.reserve(blocks);
  for (size_t k = 0; k < blocks; ++k) {
    if (pos[k].empty()) continue;
    CascadeList list;
    list.rows = std::move(results[k].rows);
    list.pos = std::move(pos[k]);
    list.keep.assign(list.pos.size(), 1);
    list.index = std::move(eager_indexes[k]);
    lists.push_back(std::move(list));
  }
  // Pair neighbors in stream order so a pair's position ranges overlap as
  // much as possible — overlap is where eliminations happen.
  std::stable_sort(lists.begin(), lists.end(),
                   [](const CascadeList& a, const CascadeList& b) {
                     return a.pos.front() < b.pos.front();
                   });

  std::vector<size_t> base;
  auto rebase = [&]() {
    base.assign(lists.size() + 1, 0);
    for (size_t li = 0; li < lists.size(); ++li) {
      base[li + 1] = base[li] + lists[li].pos.size();
    }
    return base.back();
  };
  auto locate = [&](size_t flat, size_t* li, size_t* i) {
    *li = std::upper_bound(base.begin(), base.end(), flat) - base.begin() - 1;
    *i = flat - base[*li];
  };
  auto poll = [&](size_t flat) {
    if (!poll_cancel) return false;
    if (cancel_requested.load(std::memory_order_relaxed)) return true;
    if ((flat & 63u) == 0 && ctx.cancelled()) {
      cancel_requested.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };
  auto grain_for = [&](size_t n) {
    return std::max<size_t>(16, n / (8 * pool.num_threads() + 1));
  };
  // Probes candidate i of lists[li] against `other`, dropping its keep bit
  // when some earlier-position entry of `other` dominates it.
  auto probe_against = [&](const CascadeList& other, size_t li, size_t i) {
    const char* probe = lists[li].rows.data() + i * width;
    uint64_t tests = 0;
    uint64_t pruned = 0;
    DominanceIndex::Probe keys;
    if (other.index != nullptr) other.index->EncodeProbe(probe, &keys);
    const bool dominated = ListDominates(spec, width, has_diff, other, keys,
                                         probe, lists[li].pos[i], &tests,
                                         &pruned);
    if (dominated) lists[li].keep[i] = 0;
    merge_comparisons.fetch_add(tests, std::memory_order_relaxed);
    merge_blocks_pruned.fetch_add(pruned, std::memory_order_relaxed);
    if (columnar) {
      merge_batch_comparisons.fetch_add(tests, std::memory_order_relaxed);
    }
    return dominated;
  };

  // Representative pre-prune: every candidate against the pooled
  // representatives of ALL partitions, before any block-to-block probing.
  // Own-partition representatives are harmless (local skylines are
  // pairwise non-dominating) and the lower_bound position limit excludes
  // the candidate itself.
  if (!reps.pos.empty() && lists.size() > 1) {
    const size_t n = rebase();
    ParallelFor(
        &pool, n,
        [&](size_t flat) {
          if (poll(flat)) return;
          size_t li = 0;
          size_t i = 0;
          locate(flat, &li, &i);
          if (probe_against(reps, li, i)) {
            representative_prunes.fetch_add(1, std::memory_order_relaxed);
          }
        },
        grain_for(n));
    if (cancel_requested.load(std::memory_order_relaxed)) {
      return Status::Cancelled("operation cancelled by ExecContext hook");
    }
    // Compact before the first (largest) cascade level so its probes scan
    // survivor-only lists instead of rediscovering the pool's kills. Sound
    // for the same reason as inter-level compaction: every dropped entry
    // has a dominator that is still present (a representative is itself a
    // local-skyline candidate in some list).
    if (representative_prunes.load(std::memory_order_relaxed) > 0) {
      for (CascadeList& list : lists) {
        CompactList(spec, width, columnar, merge_dicts, &list);
      }
      lists.erase(
          std::remove_if(lists.begin(), lists.end(),
                         [](const CascadeList& l) { return l.pos.empty(); }),
          lists.end());
    }
  }

  // Cascade levels: lists merge pairwise (neighbors in stream order); each
  // candidate probes only its pair partner, and each level halves the list
  // count. Within a level every candidate tests independently — keep bits
  // are written only by the candidate's own iteration — and
  // freshly-dominated entries remain sound eliminators for the rest of the
  // level, so no synchronization beyond the level barrier is needed.
  uint64_t cascade_levels = 0;
  while (lists.size() > 1) {
    ++cascade_levels;
    const size_t n = rebase();
    const size_t nlists = lists.size();
    ParallelFor(
        &pool, n,
        [&](size_t flat) {
          if (poll(flat)) return;
          size_t li = 0;
          size_t i = 0;
          locate(flat, &li, &i);
          if (!lists[li].keep[i]) return;
          const size_t partner = li ^ 1;
          if (partner >= nlists) return;  // unpaired tail passes through
          probe_against(lists[partner], li, i);
        },
        grain_for(n));
    if (cancel_requested.load(std::memory_order_relaxed)) {
      return Status::Cancelled("operation cancelled by ExecContext hook");
    }
    std::vector<CascadeList> next;
    next.reserve((nlists + 1) / 2);
    for (size_t p = 0; p + 1 < nlists; p += 2) {
      CascadeList merged = CompactPair(spec, width, columnar, merge_dicts,
                                       lists[p], lists[p + 1]);
      if (!merged.pos.empty()) next.push_back(std::move(merged));
    }
    if (nlists & 1) {
      CascadeList tail = std::move(lists.back());
      if (!tail.pos.empty()) next.push_back(std::move(tail));
    }
    lists = std::move(next);
  }
  s->cascade_levels = cascade_levels;

  // The final list is position-sorted by construction: survivors leave in
  // global sorted order.
  if (!lists.empty()) {
    const CascadeList& last = lists.front();
    for (size_t i = 0; i < last.pos.size(); ++i) {
      if (!last.keep[i]) continue;
      SKYLINE_RETURN_IF_ERROR(sink(last.rows.data() + i * width));
      ++s->output_rows;
    }
  }

  s->block_merge_seconds += merge_timer.ElapsedSeconds();
  const ThreadPool::BusyTotals merge_busy1 = pool.Totals();
  if (s->block_merge_seconds > 0) {
    s->merge_avg_busy_workers =
        static_cast<double>(merge_busy1.busy_nanos - merge_busy0.busy_nanos) /
        1e9 / s->block_merge_seconds;
  }
  s->merge_comparisons = merge_comparisons.load();
  s->window_comparisons += s->merge_comparisons;
  s->batch_comparisons += merge_batch_comparisons.load();
  s->merge_blocks_pruned = merge_blocks_pruned.load();
  s->representative_prunes = representative_prunes.load();
  s->dict_probe_hits += merge_dicts->TotalProbeHits();
  s->dominance_kernel = columnar ? ActiveDominanceKernel().name : "row";
  s->filter_seconds = total_timer.ElapsedSeconds() - s->sort_seconds;
  return Status::OK();
}

Status ParallelSfsFilter(Env* env, const std::string& sorted_path,
                         const SkylineSpec& spec,
                         const ParallelSfsOptions& options,
                         const std::function<Status(const char* row)>& sink,
                         SkylineRunStats* stats) {
  // No presort, so no elimination filter reads the column stats.
  SKYLINE_ASSIGN_OR_RETURN(
      Table sorted,
      Table::Attach(spec.schema(), env, sorted_path,
                    std::vector<ColumnStats>(spec.schema().num_columns())));
  TempFileManager temp_files(env, sorted_path + ".slices");
  return ParallelSfs(&temp_files, sorted, spec, /*ordering=*/nullptr,
                     /*eliminate=*/false, SortOptions{}, options, sink, stats);
}

}  // namespace skyline
