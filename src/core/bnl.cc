#include "core/bnl.h"

#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/dominance.h"
#include "core/dominance_batch.h"
#include "core/sfs.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/temp_file_manager.h"

namespace skyline {
namespace {

/// BNL's window: full tuples with replacement and confirmation timestamps.
///
/// Timestamp protocol (from the original BNL): a tuple inserted into the
/// window during pass p is stamped with the number of tuples already
/// written to pass p's temp file; it has been compared against every later
/// spill but not the earlier ones. During pass p+1 (whose input *is* that
/// temp file, read in write order), upon reading temp tuple i every window
/// entry from pass p with timestamp <= i has now met all its predecessors
/// and is confirmed skyline. At end of a pass all entries from the previous
/// pass are confirmed; if the pass spilled nothing, the current pass's
/// entries are confirmed too and the algorithm terminates.
struct BnlEntry {
  uint64_t timestamp;
  uint64_t pass;
};

class BnlWindow {
 public:
  BnlWindow(const SkylineSpec* spec, size_t window_pages)
      : spec_(spec),
        width_(spec->schema().row_width()),
        capacity_(window_pages * RecordsPerPage(width_)),
        index_(spec) {
    SKYLINE_CHECK_GT(capacity_, 0u);
    rows_.reserve(capacity_ * width_);
    index_.Reserve(capacity_);
  }

  size_t size() const { return meta_.size(); }
  bool full() const { return meta_.size() == capacity_; }
  const char* RowAt(size_t i) const { return rows_.data() + i * width_; }
  const BnlEntry& MetaAt(size_t i) const { return meta_[i]; }
  uint64_t comparisons() const { return comparisons_; }
  uint64_t replacements() const { return replacements_; }
  uint64_t batch_comparisons() const { return batch_comparisons_; }
  uint64_t blocks_pruned() const { return blocks_pruned_; }
  const char* kernel_name() const {
    return index_.columnar() ? index_.kernel_name() : "row";
  }

  /// Compares `row` against all entries. Returns true if `row` survives
  /// (caller inserts or spills); dominated entries have been evicted.
  /// Returns false if `row` is dominated (discard it).
  bool TestAndEvict(const char* row) {
    return index_.columnar() ? TestAndEvictColumnar(row)
                             : TestAndEvictRows(row);
  }

  void Insert(const char* row, uint64_t timestamp, uint64_t pass) {
    SKYLINE_CHECK(!full());
    rows_.insert(rows_.end(), row, row + width_);
    index_.Append(row);
    meta_.push_back({timestamp, pass});
  }

  void RemoveAt(size_t i) {
    SKYLINE_CHECK_LT(i, meta_.size());
    const size_t last = meta_.size() - 1;
    if (i != last) {
      std::memcpy(rows_.data() + i * width_, rows_.data() + last * width_,
                  width_);
      meta_[i] = meta_[last];
    }
    index_.RemoveSwapLast(i);
    rows_.resize(last * width_);
    meta_.pop_back();
  }

 private:
  /// Batched variant: one zone-map check plus at most one kernel call per
  /// 64-entry block. Window entries are pairwise non-dominating, so a
  /// dominator of `row` and a victim of `row` cannot coexist — if any block
  /// dominates, no evictions were pending, and returning early is exactly
  /// what the row-at-a-time loop would have done.
  bool TestAndEvictColumnar(const char* row) {
    index_.EncodeProbe(row, &probe_);
    evict_scratch_.clear();
    const size_t count = meta_.size();
    const size_t blocks = DominanceIndex::BlockCountFor(count);
    for (size_t b = 0; b < blocks; ++b) {
      if (index_.CanPruneBlock(probe_, b)) {
        ++blocks_pruned_;
        continue;
      }
      const uint64_t tested = index_.BlockEntries(b, count);
      comparisons_ += tested;
      batch_comparisons_ += tested;
      const BlockMasks masks = index_.TestBlock(probe_, b, count);
      if (masks.dominates != 0) return false;
      uint64_t victims = masks.dominated;
      while (victims != 0) {
        const int bit = __builtin_ctzll(victims);
        victims &= victims - 1;
        evict_scratch_.push_back(b * DominanceIndex::kBlockEntries + bit);
      }
    }
    // Evict back-to-front so swap-with-last never disturbs a smaller
    // pending index.
    for (size_t k = evict_scratch_.size(); k-- > 0;) {
      ++replacements_;
      RemoveAt(evict_scratch_[k]);
    }
    return true;
  }

  bool TestAndEvictRows(const char* row) {
    size_t i = 0;
    while (i < meta_.size()) {
      ++comparisons_;
      switch (CompareDominance(*spec_, RowAt(i), row)) {
        case DomResult::kFirstDominates:
          return false;  // row is dominated; entries are incomparable, so
                         // none of them can have been evicted by row
        case DomResult::kSecondDominates:
          ++replacements_;
          RemoveAt(i);
          continue;  // i now holds a different entry
        case DomResult::kEquivalent:
        case DomResult::kIncomparable:
          ++i;
          break;
      }
    }
    return true;
  }

  const SkylineSpec* spec_;
  size_t width_;
  size_t capacity_;
  std::vector<char> rows_;
  std::vector<BnlEntry> meta_;
  DominanceIndex index_;
  DominanceIndex::Probe probe_;
  std::vector<uint32_t> evict_scratch_;
  uint64_t comparisons_ = 0;
  uint64_t replacements_ = 0;
  uint64_t batch_comparisons_ = 0;
  uint64_t blocks_pruned_ = 0;
};

}  // namespace

Result<Table> ComputeSkylineBnl(const Table& input, const SkylineSpec& spec,
                                const BnlOptions& options,
                                const ExecContext& ctx,
                                const std::string& output_path,
                                SkylineRunStats* stats) {
  if (!input.schema().Equals(spec.schema())) {
    return Status::InvalidArgument("table schema does not match skyline spec");
  }
  SkylineRunStats local;
  SkylineRunStats* s = stats != nullptr ? stats : &local;
  *s = SkylineRunStats{};
  SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());

  Env* env = input.env();
  const size_t width = spec.schema().row_width();
  TempFileManager temp_files(env, ctx.TempPrefixOr(output_path + ".bnl_tmp"));

  // Optional forced arrival order (e.g. reverse entropy).
  SKYLINE_ASSIGN_OR_RETURN(
      std::string input_path,
      RunPresort(env, &temp_files, input.path(), width, options.input_ordering,
                 options.sort_options, ctx, &s->sort_stats, &s->sort_seconds));

  Stopwatch filter_timer;
  TableBuilder builder(env, output_path, spec.schema());
  SKYLINE_RETURN_IF_ERROR(builder.Open());

  BnlWindow window(&spec, options.window_pages);
  uint64_t pass = 1;
  bool first_pass = true;

  const bool poll_cancel = ctx.has_cancel_hook();
  while (true) {
    ++s->passes;
    TraceSpan pass_span(ctx.trace, "filter-pass",
                        static_cast<int64_t>(s->passes));
    // The first pass reads the input table (not counted as extra pages);
    // later passes read the previous pass's temp file.
    HeapFileReader reader(env, input_path, width,
                          first_pass ? nullptr : &s->temp_io);
    SKYLINE_RETURN_IF_ERROR(reader.Open());
    if (first_pass) s->input_rows = reader.record_count();

    std::unique_ptr<HeapFileWriter> spill;
    std::string spill_path;
    uint64_t spilled_this_pass = 0;
    uint64_t read_index = 0;

    while (const char* row = reader.Next()) {
      if (poll_cancel && (read_index & 4095u) == 0) {
        SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());
      }
      // Confirm entries from the previous pass that have now met every
      // tuple that preceded them into this pass's input.
      for (size_t i = 0; i < window.size();) {
        const BnlEntry& meta = window.MetaAt(i);
        if (meta.pass == pass - 1 && meta.timestamp <= read_index) {
          SKYLINE_RETURN_IF_ERROR(builder.AppendRaw(window.RowAt(i)));
          ++s->output_rows;
          window.RemoveAt(i);
        } else {
          ++i;
        }
      }

      if (window.TestAndEvict(row)) {
        if (!window.full()) {
          window.Insert(row, spilled_this_pass, pass);
        } else {
          if (spill == nullptr) {
            spill_path = temp_files.Allocate("bnl_spill");
            spill = std::make_unique<HeapFileWriter>(env, spill_path, width,
                                                     &s->temp_io);
            SKYLINE_RETURN_IF_ERROR(spill->Open());
          }
          SKYLINE_RETURN_IF_ERROR(spill->Append(row));
          ++spilled_this_pass;
          ++s->spilled_tuples;
        }
      }
      ++read_index;
    }
    SKYLINE_RETURN_IF_ERROR(reader.status());

    // End of pass: everything inserted during the previous pass has now
    // been compared against the whole remaining input.
    for (size_t i = 0; i < window.size();) {
      if (window.MetaAt(i).pass <= pass - 1) {
        SKYLINE_RETURN_IF_ERROR(builder.AppendRaw(window.RowAt(i)));
        ++s->output_rows;
        window.RemoveAt(i);
      } else {
        ++i;
      }
    }

    if (spill == nullptr) {
      // Nothing deferred: this pass's window entries are all confirmed.
      for (size_t i = 0; i < window.size(); ++i) {
        SKYLINE_RETURN_IF_ERROR(builder.AppendRaw(window.RowAt(i)));
        ++s->output_rows;
      }
      break;
    }
    SKYLINE_RETURN_IF_ERROR(spill->Finish());
    if (!first_pass) temp_files.Delete(input_path);
    input_path = spill_path;
    first_pass = false;
    ++pass;
  }

  s->window_comparisons = window.comparisons();
  s->batch_comparisons = window.batch_comparisons();
  s->window_blocks_pruned = window.blocks_pruned();
  s->dominance_kernel = window.kernel_name();
  s->window_replacements = window.replacements();
  s->filter_seconds = filter_timer.ElapsedSeconds();
  return builder.Finish();
}

}  // namespace skyline
