#include "sort/external_sort.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <future>
#include <queue>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "storage/heap_file.h"
#include "storage/page.h"

namespace skyline {
namespace {

/// One input cursor of a k-way merge: wraps a reader and buffers the
/// current record (reader pointers are invalidated by Next()).
class MergeCursor {
 public:
  MergeCursor(Env* env, const std::string& path, size_t record_size,
              const RowOrdering* ordering, size_t run, IoStats* io)
      : reader_(env, path, record_size, io),
        ordering_(ordering),
        run_(run),
        record_(record_size) {}

  Status Open() {
    SKYLINE_RETURN_IF_ERROR(reader_.Open());
    return Advance();
  }

  bool exhausted() const { return exhausted_; }
  const char* record() const { return record_.data(); }
  double key() const { return key_; }
  /// Position of this cursor's run in the merge group; runs hold
  /// consecutive input stretches, so it orders equal records by input.
  size_t run() const { return run_; }

  Status Advance() {
    const char* next = reader_.Next();
    if (next == nullptr) {
      SKYLINE_RETURN_IF_ERROR(reader_.status());
      exhausted_ = true;
      return Status::OK();
    }
    std::memcpy(record_.data(), next, record_.size());
    if (ordering_->has_key()) key_ = ordering_->Key(record_.data());
    return Status::OK();
  }

 private:
  HeapFileReader reader_;
  const RowOrdering* ordering_;
  size_t run_;
  std::vector<char> record_;
  double key_ = 0.0;
  bool exhausted_ = false;
};

/// Double-buffered record sink: the merge thread deposits records into the
/// front batch while a background task appends the back batch to the
/// writer, overlapping comparison work with page I/O. Appends are chained
/// through a single future, so writer calls stay strictly ordered.
class OverlappedAppender {
 public:
  OverlappedAppender(HeapFileWriter* writer, ThreadPool* pool,
                     size_t record_size)
      : writer_(writer), pool_(pool), record_size_(record_size) {
    // Batch a few pages' worth so one handoff amortizes task overhead.
    batch_capacity_ = 8 * RecordsPerPage(record_size);
    if (batch_capacity_ == 0) batch_capacity_ = 1;
    front_.reserve(batch_capacity_ * record_size_);
    back_.reserve(batch_capacity_ * record_size_);
  }

  Status Append(const char* record) {
    front_.insert(front_.end(), record, record + record_size_);
    if (front_.size() >= batch_capacity_ * record_size_) {
      return FlushBatch();
    }
    return Status::OK();
  }

  /// Waits for the in-flight batch and appends the tail synchronously.
  Status Finish() {
    SKYLINE_RETURN_IF_ERROR(FlushBatch());
    return WaitInFlight();
  }

 private:
  Status FlushBatch() {
    SKYLINE_RETURN_IF_ERROR(WaitInFlight());
    if (front_.empty()) return Status::OK();
    front_.swap(back_);
    front_.clear();
    in_flight_ = pool_->Submit([this]() {
      const size_t count = back_.size() / record_size_;
      for (size_t i = 0; i < count; ++i) {
        Status st = writer_->Append(back_.data() + i * record_size_);
        if (!st.ok()) return st;
      }
      return Status::OK();
    });
    return Status::OK();
  }

  Status WaitInFlight() {
    if (!in_flight_.valid()) return Status::OK();
    Status st = in_flight_.get();
    in_flight_ = std::future<Status>();
    return st;
  }

  HeapFileWriter* writer_;
  ThreadPool* pool_;
  size_t record_size_;
  size_t batch_capacity_;
  std::vector<char> front_;
  std::vector<char> back_;
  std::future<Status> in_flight_;
};

}  // namespace

ExternalSorter::ExternalSorter(Env* env, TempFileManager* temp_files,
                               const RowOrdering* ordering, size_t record_size,
                               const SortOptions& options,
                               const ExecContext& ctx, SortStats* stats_out)
    : env_(env),
      temp_files_(temp_files),
      ordering_(ordering),
      record_size_(record_size),
      options_(options),
      ctx_(&ctx),
      stats_out_(stats_out),
      stats_(stats_out_ != nullptr ? stats_out_ : &local_stats_) {
  SKYLINE_CHECK_GE(options_.buffer_pages, 3u)
      << "external sort needs at least 3 buffer pages";
}

Result<std::string> ExternalSorter::Sort(const std::string& input_path) {
  *stats_ = SortStats{};
  SKYLINE_RETURN_IF_ERROR(ctx_->CheckCancelled());
  const size_t threads = ctx_->ResolveThreads(options_.threads);
  stats_->threads_used = threads;
  if (threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  std::vector<std::string> runs;
  TraceSpan run_span(ctx_->trace, "run-formation");
  SKYLINE_ASSIGN_OR_RETURN(std::string single, GenerateRuns(input_path, &runs));
  run_span.End();
  if (!single.empty()) return single;  // fit in one run
  return MergeRuns(std::move(runs));
}

Status ExternalSorter::SortAndWriteRun(std::vector<char> buffer, size_t count,
                                       const std::string& run_path,
                                       IoStats* io) {
  std::vector<uint32_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = static_cast<uint32_t>(i);
  if (ordering_->has_key()) {
    std::vector<double> keys(count);
    for (size_t i = 0; i < count; ++i) {
      keys[i] = ordering_->Key(buffer.data() + i * record_size_);
    }
    const char* base = buffer.data();
    const size_t width = record_size_;
    std::stable_sort(order.begin(), order.end(),
                     [this, &keys, base, width](uint32_t a, uint32_t b) {
                       if (keys[a] > keys[b]) return true;  // larger key first
                       if (keys[a] < keys[b]) return false;
                       // Equal scalar keys may still hide an ordering (the
                       // ordering's exact tie-break); delegate.
                       return ordering_->Compare(base + a * width,
                                                 base + b * width) < 0;
                     });
  } else {
    const char* base = buffer.data();
    const size_t width = record_size_;
    std::stable_sort(order.begin(), order.end(),
                     [this, base, width](uint32_t a, uint32_t b) {
                       return ordering_->Compare(base + a * width,
                                                 base + b * width) < 0;
                     });
  }

  HeapFileWriter writer(env_, run_path, record_size_, io);
  SKYLINE_RETURN_IF_ERROR(writer.Open());
  for (size_t i = 0; i < count; ++i) {
    SKYLINE_RETURN_IF_ERROR(
        writer.Append(buffer.data() + order[i] * record_size_));
  }
  return writer.Finish();
}

Result<std::string> ExternalSorter::GenerateRuns(
    const std::string& input_path, std::vector<std::string>* runs) {
  const size_t per_page = RecordsPerPage(record_size_);
  const size_t run_capacity = options_.buffer_pages * per_page;

  HeapFileReader reader(env_, input_path, record_size_, nullptr);
  SKYLINE_RETURN_IF_ERROR(reader.Open());

  const uint64_t total_records = reader.record_count();
  const bool single_run = total_records <= run_capacity;
  RowFilter* filter = options_.filter;

  // Pipelined run formation: the input scan stays sequential (so run
  // boundaries — and therefore the final sorted bytes — are identical for
  // every thread count), but whole runs are sorted and written as pool
  // tasks while the scan fills the next buffer.
  struct PendingRun {
    std::future<Status> done;
    IoStats io;
  };
  std::deque<PendingRun> pending;
  const size_t max_in_flight = pool_ != nullptr ? pool_->num_threads() : 0;
  Status background_error;

  auto reap_front = [&]() {
    Status st = pending.front().done.get();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_->io += pending.front().io;
    }
    pending.pop_front();
    if (!st.ok() && background_error.ok()) background_error = st;
  };
  auto reap_all = [&]() {
    while (!pending.empty()) reap_front();
  };

  std::vector<char> buffer;
  buffer.reserve(run_capacity * record_size_);
  const bool poll_cancel = ctx_->has_cancel_hook();
  uint64_t scanned = 0;

  while (true) {
    buffer.clear();
    size_t n = 0;
    while (n < run_capacity) {
      const char* rec = reader.Next();
      if (rec == nullptr) break;
      if (poll_cancel && (++scanned & 4095u) == 0) {
        Status st = ctx_->CheckCancelled();
        if (!st.ok()) {
          reap_all();
          return st;
        }
      }
      if (filter != nullptr && !filter->Keep(rec)) {
        ++stats_->records_filtered;
        continue;
      }
      buffer.insert(buffer.end(), rec, rec + record_size_);
      ++n;
    }
    if (!reader.status().ok()) {
      reap_all();
      return reader.status();
    }
    if (n == 0) break;

    std::string run_path = temp_files_->Allocate("sortrun");
    runs->push_back(run_path);
    ++stats_->runs_generated;

    if (pool_ != nullptr && !single_run) {
      if (pending.size() >= max_in_flight) reap_front();
      if (!background_error.ok()) break;  // stop scanning on task failure
      pending.emplace_back();
      PendingRun& slot = pending.back();
      slot.done = pool_->Submit(
          [this, buf = std::move(buffer), n, run_path, io = &slot.io]() mutable {
            return SortAndWriteRun(std::move(buf), n, run_path, io);
          });
      buffer = std::vector<char>();
      buffer.reserve(run_capacity * record_size_);
    } else {
      IoStats io;
      Status st = SortAndWriteRun(std::move(buffer), n, run_path, &io);
      stats_->io += io;
      buffer = std::vector<char>();
      buffer.reserve(run_capacity * record_size_);
      if (!st.ok()) {
        reap_all();
        return st;
      }
      if (single_run) {
        // The whole input fit in the buffer: done after one run.
        return runs->front();
      }
    }
  }
  reap_all();
  SKYLINE_RETURN_IF_ERROR(background_error);

  if (runs->empty()) {
    // Empty input: produce an empty sorted file.
    std::string path = temp_files_->Allocate("sortrun");
    HeapFileWriter writer(env_, path, record_size_, &stats_->io);
    SKYLINE_RETURN_IF_ERROR(writer.Open());
    SKYLINE_RETURN_IF_ERROR(writer.Finish());
    ++stats_->runs_generated;
    return path;
  }
  if (runs->size() == 1) return runs->front();
  return std::string();  // multiple runs: caller merges
}

Result<std::string> ExternalSorter::MergeRuns(std::vector<std::string> runs) {
  const size_t fan_in = std::max<size_t>(2, options_.buffer_pages - 1);
  while (runs.size() > 1) {
    ++stats_->merge_levels;
    SKYLINE_RETURN_IF_ERROR(ctx_->CheckCancelled());
    TraceSpan merge_span(ctx_->trace, "merge",
                         static_cast<int64_t>(stats_->merge_levels));
    // Form this level's groups up front so their outputs are allocated in
    // order; independent groups then merge concurrently.
    std::vector<std::vector<std::string>> groups;
    std::vector<std::string> next_level;
    std::vector<size_t> group_slot;  // index into next_level per group
    for (size_t i = 0; i < runs.size(); i += fan_in) {
      const size_t end = std::min(runs.size(), i + fan_in);
      std::vector<std::string> group(runs.begin() + i, runs.begin() + end);
      if (group.size() == 1) {
        next_level.push_back(std::move(group.front()));
        continue;
      }
      next_level.push_back(temp_files_->Allocate("sortmerge"));
      group_slot.push_back(next_level.size() - 1);
      groups.push_back(std::move(group));
    }

    if (pool_ != nullptr && groups.size() > 1) {
      std::vector<std::future<Status>> done(groups.size());
      std::vector<IoStats> io(groups.size());
      for (size_t g = 0; g < groups.size(); ++g) {
        done[g] = pool_->Submit([this, &groups, &next_level, &group_slot, &io,
                                 g]() {
          // No append_pool from inside a pool task: a task must not wait
          // on work it queued behind its siblings.
          return MergeOnce(groups[g], next_level[group_slot[g]],
                           /*append_pool=*/nullptr, &io[g]);
        });
      }
      Status first_error;
      for (size_t g = 0; g < groups.size(); ++g) {
        Status st = done[g].get();
        stats_->io += io[g];
        if (!st.ok() && first_error.ok()) first_error = st;
      }
      SKYLINE_RETURN_IF_ERROR(first_error);
    } else {
      for (size_t g = 0; g < groups.size(); ++g) {
        IoStats io;
        Status st = MergeOnce(groups[g], next_level[group_slot[g]],
                              /*append_pool=*/pool_.get(), &io);
        stats_->io += io;
        SKYLINE_RETURN_IF_ERROR(st);
      }
    }
    for (const auto& group : groups) {
      for (const auto& run : group) temp_files_->Delete(run);
    }
    runs = std::move(next_level);
  }
  return runs.front();
}

Status ExternalSorter::MergeOnce(const std::vector<std::string>& group,
                                 const std::string& out_path,
                                 ThreadPool* append_pool, IoStats* io) {
  std::vector<std::unique_ptr<MergeCursor>> cursors;
  cursors.reserve(group.size());
  for (size_t run = 0; run < group.size(); ++run) {
    auto cursor = std::make_unique<MergeCursor>(env_, group[run], record_size_,
                                                ordering_, run, io);
    SKYLINE_RETURN_IF_ERROR(cursor->Open());
    if (!cursor->exhausted()) cursors.push_back(std::move(cursor));
  }

  const bool by_key = ordering_->has_key();
  auto before = [this, by_key](const MergeCursor* a,
                               const MergeCursor* b) {
    if (by_key) {
      if (a->key() > b->key()) return true;
      if (a->key() < b->key()) return false;
      // Fall through: equal keys resolve by the ordering's exact
      // tie-break, keeping the merge consistent with run formation.
    }
    const int cmp = ordering_->Compare(a->record(), b->record());
    if (cmp != 0) return cmp < 0;
    // Equal records leave in input order: runs are stable-sorted stretches
    // of the input, and a group's runs are consecutive, so the earlier run
    // holds the earlier record. This makes the whole sort stable.
    return a->run() < b->run();
  };
  // Min-heap on "before": comparator for push_heap must say "worse first".
  auto heap_cmp = [&before](MergeCursor* a, MergeCursor* b) {
    return before(b, a);
  };

  std::vector<MergeCursor*> heap;
  heap.reserve(cursors.size());
  for (auto& c : cursors) heap.push_back(c.get());
  std::make_heap(heap.begin(), heap.end(), heap_cmp);

  HeapFileWriter writer(env_, out_path, record_size_, io);
  SKYLINE_RETURN_IF_ERROR(writer.Open());
  std::unique_ptr<OverlappedAppender> overlapped;
  if (append_pool != nullptr) {
    overlapped =
        std::make_unique<OverlappedAppender>(&writer, append_pool,
                                             record_size_);
  }

  const bool poll_cancel = ctx_->has_cancel_hook();
  uint64_t merged = 0;
  while (!heap.empty()) {
    if (poll_cancel && (++merged & 4095u) == 0) {
      SKYLINE_RETURN_IF_ERROR(ctx_->CheckCancelled());
    }
    std::pop_heap(heap.begin(), heap.end(), heap_cmp);
    MergeCursor* top = heap.back();
    if (overlapped != nullptr) {
      SKYLINE_RETURN_IF_ERROR(overlapped->Append(top->record()));
    } else {
      SKYLINE_RETURN_IF_ERROR(writer.Append(top->record()));
    }
    SKYLINE_RETURN_IF_ERROR(top->Advance());
    if (top->exhausted()) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), heap_cmp);
    }
  }
  if (overlapped != nullptr) {
    SKYLINE_RETURN_IF_ERROR(overlapped->Finish());
  }
  SKYLINE_RETURN_IF_ERROR(writer.Finish());
  return Status::OK();
}

Result<std::string> SortHeapFile(Env* env, TempFileManager* temp_files,
                                 const std::string& input_path,
                                 size_t record_size,
                                 const RowOrdering& ordering,
                                 const SortOptions& options,
                                 const ExecContext& ctx, SortStats* stats) {
  ExternalSorter sorter(env, temp_files, &ordering, record_size, options, ctx,
                        stats);
  return sorter.Sort(input_path);
}

}  // namespace skyline
