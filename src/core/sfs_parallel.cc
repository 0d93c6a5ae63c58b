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
#include "core/partition.h"
#include "core/representatives.h"
#include "core/window.h"
#include "storage/heap_file.h"

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

/// Result of one worker's local filter over its partition: candidate
/// skyline rows in position order plus that worker's counters.
struct BlockResult {
  Status status;
  std::vector<char> rows;      // candidate full rows, position order
  std::vector<uint64_t> pos;   // global record index per candidate
  /// Indices into rows/pos of this partition's broadcast representatives
  /// (highest-entropy candidates), ascending; empty when not requested.
  std::vector<uint32_t> rep_indices;
  uint64_t comparisons = 0;
  uint64_t batch_comparisons = 0;
  uint64_t blocks_pruned = 0;
  uint64_t dict_hits = 0;
  uint64_t passes = 1;
};

/// Runs the standard window filter over partition `block_index`'s rows:
/// the worker scans the whole sorted stream and keeps the rows
/// `partitioner` assigns here (all rows when it is null — a single block).
/// The partition is a subsequence of the sorted stream, so it is itself
/// monotone-sorted (and DIFF groups stay contiguous in it) — the window
/// machinery applies unchanged. Window overflow is handled with in-memory
/// multi-pass rounds over the deferred rows (the partition is a bounded
/// slice, so deferral stays in memory rather than spilling to a temp
/// file); candidates are restored to position order afterwards.
BlockResult FilterBlock(Env* env, const std::string& sorted_path,
                        const SkylineSpec& spec,
                        const ParallelSfsOptions& options,
                        const ExecContext& ctx, uint64_t total,
                        size_t block_index,
                        const AngularPartitioner* partitioner,
                        size_t rep_count) {
  BlockResult result;
  const size_t width = spec.schema().row_width();
  HeapFileReader reader(env, sorted_path, width, nullptr);
  result.status = reader.Open();
  if (!result.status.ok()) return result;
  const bool poll_cancel = ctx.has_cancel_hook();

  Window window(&spec, options.window_pages, options.use_projection);
  std::vector<char> deferred;
  std::vector<uint64_t> deferred_pos;
  std::vector<char> prev_row(width);
  bool have_prev = false;

  // One filtering round shared by the streaming pass and the in-memory
  // deferral rounds.
  auto test_row = [&](const char* row, uint64_t global_pos) -> Status {
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
        result.rows.insert(result.rows.end(), row, row + width);
        result.pos.push_back(global_pos);
        break;
      case Window::Verdict::kWindowFull:
        deferred.insert(deferred.end(), row, row + width);
        deferred_pos.push_back(global_pos);
        break;
      case Window::Verdict::kSortViolation:
        return SortViolationError();
    }
    return Status::OK();
  };

  for (uint64_t i = 0; i < total; ++i) {
    const char* row = reader.Next();
    if (row == nullptr) {
      result.status = reader.status().ok()
                          ? Status::Corruption("sorted input truncated")
                          : reader.status();
      return result;
    }
    if (poll_cancel && ((i + 1) & 4095u) == 0) {
      result.status = ctx.CheckCancelled();
      if (!result.status.ok()) return result;
    }
    if (partitioner != nullptr && partitioner->OwnerOf(row) != block_index) {
      continue;
    }
    result.status = test_row(row, i);
    if (!result.status.ok()) return result;
  }

  while (!deferred.empty()) {
    ++result.passes;
    window.Clear();
    have_prev = false;
    std::vector<char> round = std::move(deferred);
    std::vector<uint64_t> round_pos = std::move(deferred_pos);
    deferred = {};
    deferred_pos = {};
    for (size_t i = 0; i < round_pos.size(); ++i) {
      result.status = test_row(round.data() + i * width, round_pos[i]);
      if (!result.status.ok()) return result;
    }
  }

  if (result.passes > 1) {
    // Deferral rounds append out of order; restore position order so the
    // global merge emits a deterministic stream.
    std::vector<uint32_t> order(result.pos.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&result](uint32_t a, uint32_t b) {
                       return result.pos[a] < result.pos[b];
                     });
    std::vector<char> sorted_rows(result.rows.size());
    std::vector<uint64_t> sorted_pos(result.pos.size());
    for (size_t i = 0; i < order.size(); ++i) {
      std::memcpy(sorted_rows.data() + i * width,
                  result.rows.data() + order[i] * width, width);
      sorted_pos[i] = result.pos[order[i]];
    }
    result.rows = std::move(sorted_rows);
    result.pos = std::move(sorted_pos);
  }
  if (rep_count > 0 && !result.pos.empty()) {
    result.rep_indices =
        SelectRepresentatives(spec, result.rows.data(), result.pos, rep_count);
  }
  result.comparisons = window.comparisons();
  result.batch_comparisons = window.batch_comparisons();
  result.blocks_pruned = window.blocks_pruned();
  result.dict_hits = window.dict_hits();
  return result;
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

Status ParallelSfsFilter(Env* env, const std::string& sorted_path,
                         const SkylineSpec& spec,
                         const ParallelSfsOptions& options,
                         const std::function<Status(const char* row)>& sink,
                         SkylineRunStats* stats) {
  SkylineRunStats local_stats;
  SkylineRunStats* s = stats != nullptr ? stats : &local_stats;
  static const ExecContext* const kNoContext = new ExecContext();
  const ExecContext& ctx = options.exec != nullptr ? *options.exec : *kNoContext;
  SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());

  const size_t width = spec.schema().row_width();
  uint64_t total = 0;
  {
    HeapFileReader probe(env, sorted_path, width, nullptr);
    SKYLINE_RETURN_IF_ERROR(probe.Open());
    total = probe.record_count();
  }
  s->input_rows = total;
  s->passes = 1;

  const size_t threads = ResolveThreadCount(options.threads);
  s->threads_requested = threads;
  const uint64_t min_block = std::max<uint64_t>(1, options.min_block_rows);
  const size_t blocks = static_cast<size_t>(std::max<uint64_t>(
      1, std::min<uint64_t>(threads, total / min_block)));
  s->threads_used = blocks;
  if (blocks < threads) s->threads_limited_by = "input_rows";
  if (total == 0) return Status::OK();

  // Fit the partitioner before spinning up workers (it reads a
  // deterministic row sample). A single block needs none: its worker keeps
  // the whole stream.
  std::optional<AngularPartitioner> partitioner;
  if (blocks > 1) {
    SKYLINE_ASSIGN_OR_RETURN(
        partitioner, AngularPartitioner::Fit(env, sorted_path, spec, blocks));
  }
  const AngularPartitioner* partitioner_ptr =
      partitioner.has_value() ? &*partitioner : nullptr;

  const bool columnar = DominanceIndex(&spec).columnar();
  const size_t rep_count = blocks > 1 ? kRepresentatives : 0;

  ThreadPool pool(std::min(threads, blocks));

  // All merge-side indexes (level-0 partitions, representative pool, and
  // every cascade level) share one dictionary set — a probe encoded
  // against one index is tested against others, which is only sound when
  // all of them code through the same dictionary. Index builds run on this
  // thread only (Encode is single-writer) in deterministic order; the
  // merge's parallel probes go through the const Find path.
  auto merge_dicts = std::make_shared<SpecDictionaries>(&spec);

  Stopwatch scan_timer;
  const ThreadPool::BusyTotals scan_busy0 = pool.Totals();
  TraceSpan scan_span(ctx.trace, "block-scan");
  std::vector<std::future<BlockResult>> futures;
  futures.reserve(blocks);
  for (size_t k = 0; k < blocks; ++k) {
    futures.push_back(pool.Submit([env, &sorted_path, &spec, &options, &ctx,
                                   total, k, partitioner_ptr, rep_count]() {
      // Worker-side span: these are the only events recorded off the
      // submitting thread, so an exported trace shows the per-block scans
      // on their own timeline rows.
      TraceSpan block_span(ctx.trace, "filter-block",
                           static_cast<int64_t>(k));
      return FilterBlock(env, sorted_path, spec, options, ctx, total, k,
                         partitioner_ptr, rep_count);
    }));
  }
  // Collect in partition order. Each partition's level-0 candidate index
  // is built the moment its scan lands — merge-side work overlapping the
  // still-running later scans; builds that complete before the last scan
  // are charged to scan_merge_overlap_seconds.
  std::vector<BlockResult> results;
  results.reserve(blocks);
  std::vector<std::unique_ptr<DominanceIndex>> eager_indexes(blocks);
  const bool eager_build = columnar && blocks > 1;
  for (size_t k = 0; k < blocks; ++k) {
    BlockResult block = futures[k].get();
    s->window_comparisons += block.comparisons;
    s->batch_comparisons += block.batch_comparisons;
    s->window_blocks_pruned += block.blocks_pruned;
    s->dict_probe_hits += block.dict_hits;
    s->passes = std::max<uint64_t>(s->passes, block.passes);
    if (eager_build && block.status.ok() && !block.pos.empty()) {
      Stopwatch build_timer;
      eager_indexes[k] = BuildIndex(spec, merge_dicts, block.rows.data(),
                                    block.pos.size(), width);
      if (k + 1 < blocks) {
        s->scan_merge_overlap_seconds += build_timer.ElapsedSeconds();
      }
    }
    results.push_back(std::move(block));
  }
  s->block_scan_seconds = scan_timer.ElapsedSeconds();
  const ThreadPool::BusyTotals scan_busy1 = pool.Totals();
  if (s->block_scan_seconds > 0) {
    s->scan_avg_busy_workers =
        static_cast<double>(scan_busy1.busy_nanos - scan_busy0.busy_nanos) /
        1e9 / s->block_scan_seconds;
  }
  scan_span.End();
  for (const BlockResult& block : results) {
    SKYLINE_RETURN_IF_ERROR(block.status);
  }

  size_t candidate_count = 0;
  for (const BlockResult& block : results) candidate_count += block.pos.size();
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
    for (const BlockResult& block : results) {
      for (uint32_t idx : block.rep_indices) {
        pool_rows.emplace_back(block.pos[idx], block.rows.data() + idx * width);
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
    if (results[k].pos.empty()) continue;
    CascadeList list;
    list.rows = std::move(results[k].rows);
    list.pos = std::move(results[k].pos);
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
  return Status::OK();
}

}  // namespace skyline
