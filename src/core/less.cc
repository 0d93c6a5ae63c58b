#include "core/less.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "core/dominance.h"
#include "storage/heap_file.h"
#include "storage/page.h"

namespace skyline {

EliminationFilter::EliminationFilter(const SkylineSpec* spec,
                                     const EntropyScorer* scorer,
                                     size_t window_pages)
    : spec_(spec),
      entry_spec_(&spec->projected_spec()),
      scorer_(scorer),
      entry_width_(spec->projected_schema().row_width()),
      capacity_(window_pages * RecordsPerPage(entry_width_)),
      index_(&spec->projected_spec()),
      scratch_(entry_width_) {
  SKYLINE_CHECK_GT(capacity_, 0u);
  storage_.reserve(capacity_ * entry_width_);
  scores_.reserve(capacity_);
  index_.Reserve(capacity_);
}

bool EliminationFilter::Keep(const char* row) {
  spec_->ProjectRow(row, scratch_.data());
  const char* probe = scratch_.data();
  if (index_.columnar()) {
    // Unlike the SFS window, EF entries may dominate each other (the
    // replacement policy is score-based, not dominance-based), but Keep
    // only consumes the `dominates` mask, so a block is skipped as soon as
    // no entry in it can dominate the probe.
    DominanceIndex::Probe keys;
    index_.EncodeProbe(probe, &keys);
    const size_t index_blocks = DominanceIndex::BlockCountFor(entries_);
    for (size_t b = 0; b < index_blocks; ++b) {
      if (index_.CanPruneBlockForDominators(keys, b)) continue;
      if (index_.TestBlock(keys, b, entries_).dominates != 0) return false;
    }
  } else {
    for (size_t i = 0; i < entries_; ++i) {
      if (CompareDominance(*entry_spec_, storage_.data() + i * entry_width_,
                           probe) == DomResult::kFirstDominates) {
        return false;
      }
    }
  }
  const double score = scorer_->Score(row);
  if (entries_ < capacity_) {
    storage_.insert(storage_.end(), probe, probe + entry_width_);
    scores_.push_back(score);
    index_.Append(probe);
    if (score < scores_[weakest_]) weakest_ = entries_;
    ++entries_;
    return true;
  }
  // Replace the weakest (lowest-score) entry if the arrival scores higher:
  // high-entropy tuples dominate the most others, and eviction is always
  // safe for a pure elimination cache.
  if (score > scores_[weakest_]) {
    std::memcpy(storage_.data() + weakest_ * entry_width_, probe,
                entry_width_);
    scores_[weakest_] = score;
    index_.ReplaceAt(weakest_, probe);
    weakest_ = static_cast<size_t>(
        std::min_element(scores_.begin(), scores_.end()) - scores_.begin());
  }
  return true;
}

Status EliminationFilter::Seed(const Table& input) {
  const size_t width = input.schema().row_width();
  SKYLINE_ASSIGN_OR_RETURN(
      std::vector<char> rows,
      ReadEvenlySpacedRecords(input.env(), input.path(), width,
                              kEliminationSeedRows));
  for (size_t r = 0; r < rows.size(); r += width) Keep(rows.data() + r);
  return Status::OK();
}

}  // namespace skyline
