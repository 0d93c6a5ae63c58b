#include "core/bbs.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <queue>
#include <vector>

#include "common/stopwatch.h"
#include "core/canonical_key.h"
#include "core/dominance_batch.h"
#include "index/block_index.h"

namespace skyline {
namespace {

/// Per-criterion "badness": 0 for the best possible value, monotonically
/// increasing as the value worsens, in the full uint64 range. Built from
/// the canonical ascending key k: flip to preferred-ascending (k for MAX,
/// ~k for MIN), bias to unsigned, complement. A strict dominator is
/// strictly better on some criterion and no worse anywhere, so its badness
/// vector is componentwise <= with one summand strictly smaller — its
/// mindist (the exact sum, no rounding: 128-bit) is *strictly* smaller.
/// That strict monotonicity is what makes the pop-order argument sound.
uint64_t Badness(int64_t canonical_key, bool max) {
  const int64_t flipped = max ? canonical_key : ~canonical_key;
  const uint64_t biased =
      static_cast<uint64_t>(flipped) ^ 0x8000000000000000ULL;
  return ~biased;
}

using Mindist = unsigned __int128;

enum class EntryKind : uint8_t { kNode, kLeaf, kPoint };

struct HeapEntry {
  Mindist mindist = 0;
  /// Push sequence: deterministic FIFO tie-break for equal mindists.
  uint64_t seq = 0;
  EntryKind kind = EntryKind::kNode;
  uint32_t level = 0;  // kNode only
  /// Node index within level / block id / point slot, by kind.
  uint64_t id = 0;
};

struct HeapGreater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.mindist != b.mindist) return a.mindist > b.mindist;
    return a.seq > b.seq;
  }
};

/// The branch-and-bound scan state: spec layout, constraint bounds mapped
/// per column, the growing skyline in a columnar dominance index, and the
/// heap.
class BbsScan {
 public:
  BbsScan(const Table& input, const SkylineSpec& spec,
          std::shared_ptr<const TableColumnZones> zones,
          const BbsOptions& options, const ExecContext& ctx,
          SkylineRunStats* stats)
      : input_(input),
        spec_(spec),
        zones_(std::move(zones)),
        index_(zones_->block_index.get()),
        options_(options),
        ctx_(ctx),
        stats_(stats),
        sky_(&spec),
        row_width_(spec.schema().row_width()),
        corner_row_(row_width_, '\0') {
    // Per-column constraint intervals, dense for O(1) corner clamping.
    lo_.assign(spec.schema().num_columns(),
               std::numeric_limits<int64_t>::min());
    hi_.assign(spec.schema().num_columns(),
               std::numeric_limits<int64_t>::max());
    for (const auto& b : options.constraint.bounds) {
      lo_[b.column] = std::max(lo_[b.column], b.lo);
      hi_[b.column] = std::min(hi_[b.column], b.hi);
    }
  }

  Status Run();

  /// Emitted skyline rows (dense row_width-strided) and their input-file
  /// row indices, in emission (mindist) order.
  const std::vector<char>& result_rows() const { return result_rows_; }
  const std::vector<uint64_t>& result_input_index() const {
    return result_input_index_;
  }

 private:
  /// Corner key of (node/leaf) column c — the componentwise best value any
  /// in-box row under the entry can take: the zone bound clamped into the
  /// constraint interval. Only called for entries whose box intersects
  /// every constraint interval, so the clamp never empties.
  int64_t CornerKey(int64_t zmin, int64_t zmax, size_t column,
                    bool max) const {
    const int64_t best = max ? std::min(zmax, hi_[column])
                             : std::max(zmin, lo_[column]);
    return best;
  }

  /// True when [zmin, zmax] misses some constraint interval — no row under
  /// the entry can satisfy the box, so the subtree is skipped outright.
  bool OutsideConstraint(const int64_t* zmin, const int64_t* zmax) const {
    for (const auto& b : options_.constraint.bounds) {
      if (zmin[b.column] > hi_[b.column] || zmax[b.column] < lo_[b.column]) {
        return true;
      }
    }
    return false;
  }

  /// Materializes the entry's clamped corner row into corner_row_ and its
  /// mindist. `zmin`/`zmax` point at the entry's per-column corners
  /// (stride_index pre-applied by the caller for nodes).
  Mindist BuildCorner(const int64_t* zmin, const int64_t* zmax);

  /// Mindist of a concrete row.
  Mindist RowMindist(const char* row) const;

  /// True when the skyline found so far strictly dominates `row` (a corner
  /// or a point).
  bool DominatedBySkyline(const char* row) const {
    DominanceIndex::Probe probe;
    sky_.EncodeProbe(row, &probe);
    return sky_.AnyEntryDominates(probe, sky_.size());
  }

  void Push(HeapEntry e) {
    e.seq = next_seq_++;
    heap_.push(e);
    if (heap_.size() > stats_->heap_peak) stats_->heap_peak = heap_.size();
  }

  /// Copies block `block`'s per-column zone corners into leaf_zmin_ /
  /// leaf_zmax_ scratch.
  void GatherLeafCorners(uint64_t block) {
    const size_t ncols = zones_->columns.size();
    leaf_zmin_.resize(ncols);
    leaf_zmax_.resize(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      leaf_zmin_[c] = zones_->columns[c].zmin[block];
      leaf_zmax_[c] = zones_->columns[c].zmax[block];
    }
  }

  Status PushNodeChildren(uint32_t level, uint64_t node);
  Status PushLeafChild(size_t slot);
  Status ReadLeaf(uint64_t block);

  const Table& input_;
  const SkylineSpec& spec_;
  std::shared_ptr<const TableColumnZones> zones_;
  const BlockSkylineIndex* index_;
  const BbsOptions& options_;
  const ExecContext& ctx_;
  SkylineRunStats* stats_;

  DominanceIndex sky_;
  const size_t row_width_;
  std::vector<char> corner_row_;
  std::vector<int64_t> lo_, hi_;
  std::vector<int64_t> leaf_zmin_, leaf_zmax_;

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapGreater> heap_;
  uint64_t next_seq_ = 0;

  /// Candidate point storage, referenced by heap entries by slot.
  std::vector<char> point_rows_;
  std::vector<uint64_t> point_input_index_;

  std::unique_ptr<HeapFileReader> reader_;
  uint64_t blocks_read_ = 0;

  std::vector<char> result_rows_;
  std::vector<uint64_t> result_input_index_;
};

Mindist BbsScan::BuildCorner(const int64_t* zmin, const int64_t* zmax) {
  std::memset(corner_row_.data(), 0, corner_row_.size());
  Mindist mindist = 0;
  const auto& value_cols = spec_.value_columns();
  const auto& dom_values = spec_.dom_value_columns();
  for (size_t i = 0; i < value_cols.size(); ++i) {
    const size_t c = value_cols[i].column;
    const auto& dc = dom_values[i];
    const int64_t key = CornerKey(zmin[c], zmax[c], c, dc.max);
    WriteCanonicalKeyAsRaw(dc.type, key, corner_row_.data() + dc.offset);
    mindist += Badness(key, dc.max);
  }
  return mindist;
}

Mindist BbsScan::RowMindist(const char* row) const {
  Mindist mindist = 0;
  for (const auto& dc : spec_.dom_value_columns()) {
    mindist += Badness(CanonicalKeyOf(dc.type, row + dc.offset), dc.max);
  }
  return mindist;
}

Status BbsScan::PushNodeChildren(uint32_t level, uint64_t node) {
  if (level == 0) {
    const size_t begin = static_cast<size_t>(node) * index_->fanout;
    const size_t count = index_->ChildCount(0, node);
    for (size_t s = begin; s < begin + count; ++s) {
      SKYLINE_RETURN_IF_ERROR(PushLeafChild(s));
    }
    return Status::OK();
  }
  const uint32_t child_level = level - 1;
  const auto& below = index_->levels[child_level];
  const size_t ncols = index_->num_columns;
  const size_t begin = static_cast<size_t>(node) * index_->fanout;
  const size_t count = index_->ChildCount(level, node);
  for (size_t n = begin; n < begin + count; ++n) {
    const int64_t* zmin = below.zmin.data() + n * ncols;
    const int64_t* zmax = below.zmax.data() + n * ncols;
    if (OutsideConstraint(zmin, zmax)) continue;
    HeapEntry e;
    e.mindist = BuildCorner(zmin, zmax);
    e.kind = EntryKind::kNode;
    e.level = child_level;
    e.id = n;
    Push(e);
  }
  return Status::OK();
}

Status BbsScan::PushLeafChild(size_t slot) {
  const uint32_t block = index_->leaf_blocks[slot];
  // Gather the leaf's per-column corners from the zone maps.
  GatherLeafCorners(block);
  if (OutsideConstraint(leaf_zmin_.data(), leaf_zmax_.data())) {
    return Status::OK();
  }
  HeapEntry e;
  e.mindist = BuildCorner(leaf_zmin_.data(), leaf_zmax_.data());
  e.kind = EntryKind::kLeaf;
  e.id = block;
  Push(e);
  return Status::OK();
}

Status BbsScan::ReadLeaf(uint64_t block) {
  const Schema& schema = spec_.schema();
  const uint64_t base = block * zones_->block_rows;
  const uint64_t end =
      std::min<uint64_t>(base + zones_->block_rows, zones_->row_count);
  if (reader_ == nullptr) {
    reader_ = input_.NewReader(nullptr);
    SKYLINE_RETURN_IF_ERROR(reader_->Open());
  }
  SKYLINE_RETURN_IF_ERROR(reader_->SeekToRecord(base));
  ++blocks_read_;
  for (uint64_t i = base; i < end; ++i) {
    const char* row = reader_->Next();
    if (row == nullptr) {
      return !reader_->status().ok()
                 ? reader_->status()
                 : Status::Corruption("table ended before block " +
                                      std::to_string(block));
    }
    if (!options_.constraint.empty() &&
        !options_.constraint.Matches(schema, row)) {
      continue;
    }
    // Pre-filter against the current skyline: a dominated row can never
    // resurface. Survivors still get the authoritative re-test at pop
    // time (the skyline may have grown by then).
    if (DominatedBySkyline(row)) continue;
    HeapEntry e;
    e.mindist = RowMindist(row);
    e.kind = EntryKind::kPoint;
    e.id = point_input_index_.size();
    point_rows_.insert(point_rows_.end(), row, row + row_width_);
    point_input_index_.push_back(i);
    Push(e);
  }
  return Status::OK();
}

Status BbsScan::Run() {
  // Seed the heap with the root level's nodes.
  if (index_->leaf_count() > 0) {
    const uint32_t root_level =
        static_cast<uint32_t>(index_->levels.size() - 1);
    const auto& roots = index_->levels[root_level];
    const size_t ncols = index_->num_columns;
    const size_t root_nodes = index_->LevelNodeCount(root_level);
    for (size_t n = 0; n < root_nodes; ++n) {
      const int64_t* zmin = roots.zmin.data() + n * ncols;
      const int64_t* zmax = roots.zmax.data() + n * ncols;
      if (OutsideConstraint(zmin, zmax)) continue;
      HeapEntry e;
      e.mindist = BuildCorner(zmin, zmax);
      e.kind = EntryKind::kNode;
      e.level = root_level;
      e.id = n;
      Push(e);
    }
  }

  const bool poll_cancel = ctx_.has_cancel_hook();
  uint64_t pops = 0;
  while (!heap_.empty()) {
    const HeapEntry e = heap_.top();
    heap_.pop();
    if (poll_cancel && (++pops & 4095u) == 0) {
      SKYLINE_RETURN_IF_ERROR(ctx_.CheckCancelled());
    }
    switch (e.kind) {
      case EntryKind::kPoint: {
        const char* row = point_rows_.data() + e.id * row_width_;
        // Authoritative dominance test: every potential dominator has
        // strictly smaller mindist (see Badness), so it either already
        // sits in the skyline index or was under a pruned entry — and a
        // pruned entry's prover dominates this row transitively.
        if (DominatedBySkyline(row)) break;
        sky_.Append(row);
        result_rows_.insert(result_rows_.end(), row, row + row_width_);
        result_input_index_.push_back(point_input_index_[e.id]);
        break;
      }
      case EntryKind::kLeaf: {
        ++stats_->index_nodes_visited;
        GatherLeafCorners(e.id);
        BuildCorner(leaf_zmin_.data(), leaf_zmax_.data());
        if (DominatedBySkyline(corner_row_.data())) break;
        SKYLINE_RETURN_IF_ERROR(ReadLeaf(e.id));
        break;
      }
      case EntryKind::kNode: {
        ++stats_->index_nodes_visited;
        const auto& level = index_->levels[e.level];
        const size_t ncols = index_->num_columns;
        BuildCorner(level.zmin.data() + e.id * ncols,
                    level.zmax.data() + e.id * ncols);
        if (DominatedBySkyline(corner_row_.data())) break;
        SKYLINE_RETURN_IF_ERROR(PushNodeChildren(e.level, e.id));
        break;
      }
    }
  }

  stats_->index_blocks_skipped = index_->leaf_count() - blocks_read_;
  stats_->dominance_kernel = sky_.columnar() ? sky_.kernel_name() : "row";
  stats_->dict_probe_hits = sky_.dict_probe_hits();
  return Status::OK();
}

}  // namespace

bool BbsCandidate(const Table& input, const SkylineSpec& spec) {
  if (spec.has_diff()) return false;
  if (!input.env()->FileExists(BlockIndexPathFor(input.path()))) return false;
  DominanceIndex probe(&spec);
  return probe.columnar();
}

bool BbsUsable(const SkylineSpec& spec, const TableColumnZones* zones) {
  if (spec.has_diff()) return false;
  if (zones == nullptr || zones->block_index == nullptr) return false;
  if (zones->block_rows != DominanceIndex::kBlockEntries) return false;
  if (zones->columns.size() != spec.schema().num_columns()) return false;
  DominanceIndex probe(&spec);
  return probe.columnar();
}

Result<Table> ComputeSkylineBbs(const Table& input, const SkylineSpec& spec,
                                std::shared_ptr<const TableColumnZones> zones,
                                const BbsOptions& options,
                                const ExecContext& ctx,
                                const std::string& output_path,
                                SkylineRunStats* stats) {
  if (!input.schema().Equals(spec.schema())) {
    return Status::InvalidArgument("table schema does not match skyline spec");
  }
  if (!BbsUsable(spec, zones.get())) {
    return Status::InvalidArgument(
        "BBS needs a loaded block index and a columnar-capable spec without "
        "DIFF columns");
  }
  if (zones->row_count != input.row_count() ||
      zones->block_index->row_count != input.row_count()) {
    return Status::InvalidArgument(
        "block index does not describe this table version");
  }
  SkylineRunStats local;
  SkylineRunStats* s = stats != nullptr ? stats : &local;
  *s = SkylineRunStats{};
  s->input_rows = input.row_count();
  s->passes = 1;
  SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());

  Stopwatch filter_timer;
  TraceSpan span(ctx.trace, "bbs-scan");
  BbsScan scan(input, spec, zones, options, ctx, s);
  SKYLINE_RETURN_IF_ERROR(scan.Run());
  span.End();

  // Re-sort the emitted skyline into the presort's monotone order: the
  // exact order SFS would emit, with ties (rows equal on every skyline
  // attribute) broken by input position — which is also how a stable
  // presort leaves them. kNone keeps input-file order (a skyline is a
  // subsequence of its input, and kNone-SFS emits it in file order).
  SKYLINE_ASSIGN_OR_RETURN(
      PresortOrdering presort_order,
      MakePresortOrdering(options.presort, spec, input,
                          options.custom_ordering));
  const RowOrdering* ordering = presort_order.ordering;
  const size_t row_width = spec.schema().row_width();
  const std::vector<char>& rows = scan.result_rows();
  const std::vector<uint64_t>& input_index = scan.result_input_index();
  std::vector<size_t> order(input_index.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (ordering != nullptr) {
      const int c = ordering->Compare(rows.data() + a * row_width,
                                      rows.data() + b * row_width);
      if (c != 0) return c < 0;
    }
    return input_index[a] < input_index[b];
  });

  TableBuilder builder(input.env(), output_path, spec.schema());
  SKYLINE_RETURN_IF_ERROR(builder.Open());
  for (size_t i : order) {
    SKYLINE_RETURN_IF_ERROR(builder.AppendRaw(rows.data() + i * row_width));
  }
  s->output_rows = input_index.size();
  s->filter_seconds = filter_timer.ElapsedSeconds();
  return builder.Finish();
}

}  // namespace skyline
