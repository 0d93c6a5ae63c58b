#include "core/sfs.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/canonical_key.h"
#include "core/dominance_batch.h"
#include "core/less.h"
#include "core/scoring.h"
#include "core/sfs_parallel.h"
#include "relation/column_store.h"

namespace skyline {

/// Whether the presort eliminates: not without a presort, not when a
/// residue_path wants every dominated row, and not for a caller's kCustom
/// order, whose sort violations the window must see to report.
static bool PresortEliminates(const SfsOptions& options) {
  return options.presort != Presort::kNone &&
         options.presort != Presort::kCustom && options.residue_path.empty();
}

SfsIterator::SfsIterator(Env* env, TempFileManager* temp_files,
                         std::string sorted_path, const SkylineSpec* spec,
                         size_t window_pages, bool use_projection,
                         SkylineRunStats* stats)
    : env_(env),
      temp_files_(temp_files),
      input_path_(std::move(sorted_path)),
      spec_(spec),
      window_(spec, window_pages, use_projection),
      stats_(stats != nullptr ? stats : &local_stats_),
      out_row_(spec->schema().row_width()),
      prev_row_(spec->schema().row_width()) {}

void SfsIterator::SpillZoneTracker::Init(const SkylineSpec& spec) {
  enabled = true;
  num_schema_columns = spec.schema().num_columns();
  const auto& value_cols = spec.value_columns();
  const auto& dom_values = spec.dom_value_columns();
  for (size_t i = 0; i < value_cols.size(); ++i) {
    if (dom_values[i].type == ColumnType::kFixedString) {
      enabled = false;
      return;
    }
    columns.push_back(value_cols[i].column);
    types.push_back(dom_values[i].type);
    offsets.push_back(dom_values[i].offset);
  }
  const auto& diff_cols = spec.diff_columns();
  const auto& dom_diffs = spec.dom_diff_columns();
  for (size_t i = 0; i < diff_cols.size(); ++i) {
    if (dom_diffs[i].type == ColumnType::kFixedString) {
      enabled = false;
      return;
    }
    columns.push_back(diff_cols[i]);
    types.push_back(dom_diffs[i].type);
    offsets.push_back(dom_diffs[i].offset);
  }
  const size_t n = columns.size();
  cur_min.assign(n, std::numeric_limits<int64_t>::max());
  cur_max.assign(n, std::numeric_limits<int64_t>::min());
  zmin.resize(n);
  zmax.resize(n);
}

void SfsIterator::SpillZoneTracker::Observe(const char* row) {
  for (size_t i = 0; i < columns.size(); ++i) {
    const int64_t key = CanonicalKeyOf(types[i], row + offsets[i]);
    cur_min[i] = std::min(cur_min[i], key);
    cur_max[i] = std::max(cur_max[i], key);
  }
  ++rows;
  if (rows % DominanceIndex::kBlockEntries == 0) SealBlock();
}

void SfsIterator::SpillZoneTracker::SealBlock() {
  for (size_t i = 0; i < columns.size(); ++i) {
    zmin[i].push_back(cur_min[i]);
    zmax[i].push_back(cur_max[i]);
    cur_min[i] = std::numeric_limits<int64_t>::max();
    cur_max[i] = std::numeric_limits<int64_t>::min();
  }
}

std::shared_ptr<const TableColumnZones>
SfsIterator::SpillZoneTracker::Take() {
  if (rows % DominanceIndex::kBlockEntries != 0) SealBlock();
  auto zones = std::make_shared<TableColumnZones>();
  zones->block_rows = DominanceIndex::kBlockEntries;
  zones->row_count = rows;
  zones->source = "spill";
  zones->columns.resize(num_schema_columns);
  for (size_t i = 0; i < columns.size(); ++i) {
    zones->columns[columns[i]].zmin = std::move(zmin[i]);
    zones->columns[columns[i]].zmax = std::move(zmax[i]);
    zmin[i].clear();
    zmax[i].clear();
  }
  rows = 0;
  return zones;
}

Status SfsIterator::Open() {
  // The first pass reads the (sorted) input; per the paper's accounting
  // that scan is not part of the algorithm's "extra pages", so it does not
  // feed temp_io.
  reader_ = std::make_unique<HeapFileReader>(
      env_, input_path_, spec_->schema().row_width(), nullptr);
  SKYLINE_RETURN_IF_ERROR(reader_->Open());
  stats_->input_rows = reader_->record_count();
  stats_->passes = 1;
  stats_->dominance_kernel = window_.kernel_name();
  // The prefilter is only sound when its zones describe exactly this file.
  if (prefilter_ != nullptr &&
      (!prefilter_->usable() || residue_writer_ != nullptr ||
       prefilter_->row_count() != reader_->record_count())) {
    prefilter_.reset();
  }
  // Spill-pass zone tracking is sound whenever skipped rows don't need to
  // reach a residue side-output.
  if (residue_writer_ == nullptr) spill_zones_.Init(*spec_);
  if (prefilter_ != nullptr || spill_zones_.enabled) {
    corner_row_.resize(spec_->schema().row_width());
  }
  BeginPassSpan();
  return Status::OK();
}

void SfsIterator::BeginPassSpan() {
  pass_span_.reset();  // records the previous pass's span, if any
  if (ctx_ != nullptr && ctx_->trace != nullptr) {
    pass_span_ = std::make_unique<TraceSpan>(
        ctx_->trace, "filter-pass", static_cast<int64_t>(stats_->passes));
  }
}

void SfsIterator::SyncWindowStats() {
  stats_->window_comparisons = window_.comparisons();
  stats_->batch_comparisons = window_.batch_comparisons();
  stats_->window_blocks_pruned = window_.blocks_pruned();
  stats_->dict_probe_hits = window_.dict_hits();
}

void SfsIterator::MaybeSkipBlocks() {
  const uint64_t block = prefilter_->block_rows();
  const uint64_t rows = reader_->record_count();
  while (pass_rows_read_ < rows && pass_rows_read_ % block == 0) {
    const size_t b = static_cast<size_t>(pass_rows_read_ / block);
    // A corner needs uniform DIFF values over the block; otherwise the
    // block is filtered row by row.
    if (!prefilter_->BuildCorner(b, corner_row_.data())) return;
    if (!window_.AnyEntryDominates(corner_row_.data())) return;
    // Every row of the block is at most the corner on every criterion and
    // shares its DIFF group, so a strict dominator of the corner strictly
    // dominates them all: skip the block wholesale.
    ++stats_->table_zone_blocks_pruned;
    pass_rows_read_ = std::min<uint64_t>(pass_rows_read_ + block, rows);
    Status st = reader_->SeekToRecord(pass_rows_read_);
    if (!st.ok()) {
      status_ = st;
      return;
    }
  }
}

const char* SfsIterator::Next() {
  if (done_ || !status_.ok()) return nullptr;
  const bool poll_cancel = ctx_ != nullptr && ctx_->has_cancel_hook();
  const bool sample_probes = ctx_ != nullptr && ctx_->trace != nullptr;
  while (true) {
    if (prefilter_ != nullptr) {
      MaybeSkipBlocks();
      if (!status_.ok()) return nullptr;
    }
    const char* row = reader_->Next();
    if (row == nullptr) {
      if (!reader_->status().ok()) {
        status_ = reader_->status();
        return nullptr;
      }
      if (!StartNextPass()) return nullptr;
      continue;
    }
    ++pass_rows_read_;
    ++probe_count_;
    if (poll_cancel && (probe_count_ & 4095u) == 0) {
      status_ = ctx_->CheckCancelled();
      if (!status_.ok()) {
        pass_span_.reset();
        return nullptr;
      }
    }
    // DIFF group boundary: groups are contiguous in the sorted input, and
    // tuples in different groups never dominate each other, so the window
    // can be cleared wholesale (the paper's diff optimization).
    if (spec_->has_diff()) {
      if (have_prev_ && !spec_->SameDiffGroup(prev_row_.data(), row)) {
        window_.Clear();
      }
      std::memcpy(prev_row_.data(), row, prev_row_.size());
      have_prev_ = true;
    }

    Window::Verdict verdict;
    if (sample_probes && probe_count_ % kProbeSampleStride == 0) {
      TraceSpan probe_span(ctx_->trace, "window-probe");
      verdict = window_.Test(row);
    } else {
      verdict = window_.Test(row);
    }
    switch (verdict) {
      case Window::Verdict::kDominated:
        if (residue_writer_ != nullptr) {
          Status st = residue_writer_->Append(row);
          if (!st.ok()) {
            status_ = st;
            return nullptr;
          }
        }
        break;  // eliminated; fetch next
      case Window::Verdict::kAdded:
      case Window::Verdict::kDuplicateSkyline:
        // Confirmed skyline: pipeline it out immediately.
        ++stats_->output_rows;
        std::memcpy(out_row_.data(), row, out_row_.size());
        SyncWindowStats();
        return out_row_.data();
      case Window::Verdict::kWindowFull: {
        // Not dominated but no window space: defer to the next pass.
        if (spill_writer_ == nullptr) {
          spill_path_ = temp_files_->Allocate("sfs_spill");
          spill_writer_ = std::make_unique<HeapFileWriter>(
              env_, spill_path_, spec_->schema().row_width(),
              &stats_->temp_io);
          Status st = spill_writer_->Open();
          if (!st.ok()) {
            status_ = st;
            return nullptr;
          }
        }
        Status st = spill_writer_->Append(row);
        if (!st.ok()) {
          status_ = st;
          return nullptr;
        }
        if (spill_zones_.enabled) spill_zones_.Observe(row);
        ++stats_->spilled_tuples;
        break;
      }
      case Window::Verdict::kSortViolation:
        status_ = Status::InvalidArgument(
            "SFS input is not sorted by a monotone scoring order: a tuple "
            "dominates one that precedes it");
        return nullptr;
    }
  }
}

bool SfsIterator::StartNextPass() {
  SyncWindowStats();
  if (spill_writer_ == nullptr) {
    // Nothing was deferred: every input tuple was either emitted or
    // eliminated, so the skyline is complete.
    done_ = true;
    pass_span_.reset();
    if (residue_writer_ != nullptr) status_ = residue_writer_->Finish();
    stats_->filter_seconds = filter_timer_.ElapsedSeconds();
    return false;
  }
  Status st = spill_writer_->Finish();
  if (!st.ok()) {
    status_ = st;
    pass_span_.reset();
    return false;
  }
  spill_writer_.reset();

  // The previous pass's temp input (if any) is no longer needed.
  if (!first_pass_) {
    temp_files_->Delete(input_path_);
  }
  first_pass_ = false;
  input_path_ = spill_path_;
  spill_path_.clear();

  reader_ = std::make_unique<HeapFileReader>(
      env_, input_path_, spec_->schema().row_width(), &stats_->temp_io);
  st = reader_->Open();
  if (!st.ok()) {
    status_ = st;
    pass_span_.reset();
    return false;
  }
  // Swap in the zone maps tracked while writing this spill file; the next
  // pass then skips spill blocks wholly dominated by its growing window.
  // The first pass's input prefilter no longer describes the current file
  // either way.
  prefilter_.reset();
  if (spill_zones_.enabled) {
    auto corner = std::make_shared<BlockCornerBuilder>(spec_,
                                                       spill_zones_.Take());
    if (corner->usable()) prefilter_ = std::move(corner);
  }
  window_.Clear();
  have_prev_ = false;
  pass_rows_read_ = 0;
  ++stats_->passes;
  BeginPassSpan();
  return true;
}

static void WarnIfDegraded(const SkylineRunStats& s) {
  if (!s.DegradedParallelism()) return;
  LogWarning("degraded parallelism: " + std::to_string(s.threads_requested) +
             " threads requested but only " + std::to_string(s.threads_used) +
             " used (limited by " + s.threads_limited_by +
             "); timings are not a scaling measurement");
}

Result<PresortOrdering> MakePresortOrdering(Presort presort,
                                            const SkylineSpec& spec,
                                            const Table& input,
                                            const RowOrdering* custom) {
  PresortOrdering order;
  switch (presort) {
    case Presort::kNested:
      order.owned = MakeNestedSkylineOrdering(spec);
      break;
    case Presort::kEntropy:
      order.owned = std::make_unique<EntropyOrdering>(&spec, input);
      break;
    case Presort::kCustom:
      if (custom == nullptr) {
        return Status::InvalidArgument(
            "Presort::kCustom requires a custom ordering");
      }
      order.ordering = custom;
      return order;
    case Presort::kNone:
      return order;
  }
  order.ordering = order.owned.get();
  return order;
}

Result<std::string> RunPresort(Env* env, TempFileManager* temp_files,
                               const std::string& input_path, size_t row_width,
                               const RowOrdering* ordering,
                               const SortOptions& sort_options,
                               const ExecContext& ctx, SortStats* sort_stats,
                               double* sort_seconds) {
  if (ordering == nullptr) return input_path;
  Stopwatch sort_timer;
  TraceSpan presort_span(ctx.trace, "presort");
  SKYLINE_ASSIGN_OR_RETURN(
      std::string sorted_path,
      SortHeapFile(env, temp_files, input_path, row_width, *ordering,
                   sort_options, ctx, sort_stats));
  presort_span.End();
  *sort_seconds = sort_timer.ElapsedSeconds();
  return sorted_path;
}

SfsThreads ResolveSfsThreads(const SfsOptions& options,
                             const ExecContext& ctx) {
  SfsThreads t;
  const size_t request = ctx.RequestedThreads(options.threads);
  t.requested = ResolveThreadCount(request);
  // Clamped to the hardware: every extra slice re-filters its sample and
  // inflates the merge, so oversubscription is a strict loss (a 1-core
  // host ran threads=2 1.6x slower than sequential). The parallel path
  // then cuts the count to the blocks the input fills.
  t.workers = ClampThreadsToHardware(request);
  t.parallel = t.workers > 1 && options.residue_path.empty();
  t.sort_options = options.sort_options;
  if (ctx.threads.has_value() ||
      (request != 1 && t.sort_options.threads == 1)) {
    t.sort_options.threads = t.workers;
  }
  return t;
}

Result<std::unique_ptr<SfsIterator>> OpenSfsStream(
    const Table& input, const SkylineSpec& spec, const SfsOptions& options,
    const ExecContext& ctx, TempFileManager* temp_files,
    SkylineRunStats* stats) {
  Env* env = input.env();
  const SfsThreads threads = ResolveSfsThreads(options, ctx);
  SKYLINE_ASSIGN_OR_RETURN(
      PresortOrdering order,
      MakePresortOrdering(options.presort, spec, input,
                          options.custom_ordering));
  // Dominated rows never reach a sort run (the paper's Section 6, as LESS).
  EntropyScorer scorer(&spec, input);
  EliminationFilter eliminate(&spec, &scorer, kEliminationWindowPages);
  SortOptions sort_options = threads.sort_options;
  sort_options.filter = nullptr;
  if (PresortEliminates(options)) {
    SKYLINE_RETURN_IF_ERROR(eliminate.Seed(input));
    sort_options.filter = &eliminate;
  }
  SKYLINE_ASSIGN_OR_RETURN(
      std::string sorted_path,
      RunPresort(env, temp_files, input.path(), spec.schema().row_width(),
                 order.ordering, sort_options, ctx, &stats->sort_stats,
                 &stats->sort_seconds));
  SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());

  // A request that resolves to the sequential path fell back: say why.
  if (!threads.parallel) {
    stats->threads_requested = threads.requested;
    if (threads.requested > 1) {
      stats->threads_limited_by =
          options.residue_path.empty() ? "hardware" : "residue_path";
    }
    WarnIfDegraded(*stats);
  }
  auto iter = std::make_unique<SfsIterator>(
      env, temp_files, sorted_path, &spec, options.window_pages,
      options.use_projection, stats);
  iter->set_exec_context(&ctx);
  // Zone-map block prefilter: only the unsorted-in-place path
  // (Presort::kNone) filters the original table file, whose 64-row blocks
  // are what the cached/persisted zone maps describe. Zone maps are
  // advisory — any load failure just means no block skipping.
  if (options.presort == Presort::kNone && options.residue_path.empty()) {
    bool cache_hit = false;
    auto zones_or = TableZoneCache::Instance().GetOrLoad(input, &cache_hit);
    if (zones_or.ok()) {
      std::shared_ptr<const TableColumnZones> zones =
          std::move(zones_or).value();
      stats->zone_map_source = cache_hit ? "cache" : zones->source;
      if (!cache_hit && std::string_view(zones->source) == "column_file") {
        stats->column_file_blocks_read =
            (zones->row_count + zones->block_rows - 1) / zones->block_rows;
      }
      auto corner =
          std::make_shared<BlockCornerBuilder>(&spec, std::move(zones));
      if (corner->usable()) iter->set_block_prefilter(std::move(corner));
    }
  }
  if (!options.residue_path.empty()) {
    auto residue = std::make_unique<HeapFileWriter>(
        env, options.residue_path, spec.schema().row_width(), nullptr);
    SKYLINE_RETURN_IF_ERROR(residue->Open());
    iter->set_residue_writer(std::move(residue));
  }
  SKYLINE_RETURN_IF_ERROR(iter->Open());
  // The filter reads only the rows the presort kept.
  stats->input_rows = input.row_count();
  return iter;
}

Result<Table> ComputeSkylineSfs(const Table& input, const SkylineSpec& spec,
                                const SfsOptions& options,
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
  TempFileManager temp_files(env, ctx.TempPrefixOr(output_path + ".sfs_tmp"));
  TableBuilder builder(env, output_path, spec.schema());
  SKYLINE_RETURN_IF_ERROR(builder.Open());
  const SfsThreads threads = ResolveSfsThreads(options, ctx);
  if (!threads.parallel) {
    SKYLINE_ASSIGN_OR_RETURN(
        std::unique_ptr<SfsIterator> stream,
        OpenSfsStream(input, spec, options, ctx, &temp_files, s));
    while (const char* row = stream->Next()) {
      SKYLINE_RETURN_IF_ERROR(builder.AppendRaw(row));
    }
    SKYLINE_RETURN_IF_ERROR(stream->status());
    return builder.Finish();
  }

  // The slice-parallel path (core/sfs_parallel.h) deals the input into
  // angular slices and sorts and filters each on its own worker; there is
  // no global presort.
  SKYLINE_ASSIGN_OR_RETURN(
      PresortOrdering order,
      MakePresortOrdering(options.presort, spec, input,
                          options.custom_ordering));
  ParallelSfsOptions popt;
  popt.window_pages = options.window_pages;
  popt.use_projection = options.use_projection;
  popt.threads = threads.workers;
  popt.exec = &ctx;
  SKYLINE_RETURN_IF_ERROR(ParallelSfs(
      &temp_files, input, spec, order.ordering, PresortEliminates(options),
      options.sort_options, popt,
      [&builder](const char* row) { return builder.AppendRaw(row); }, s));
  // The parallel path only knows its clamped thread count; restore the
  // caller's actual request so the degraded flag survives the clamp. An
  // input cut (recorded by the parallel path) is the binding limit over
  // the host's.
  s->threads_requested = threads.requested;
  if (threads.workers < threads.requested &&
      std::string_view(s->threads_limited_by) == "none") {
    s->threads_limited_by = "hardware";
  }
  WarnIfDegraded(*s);
  return builder.Finish();
}

}  // namespace skyline
