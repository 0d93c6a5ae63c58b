#ifndef SKYLINE_CORE_LESS_H_
#define SKYLINE_CORE_LESS_H_

#include <vector>

#include "common/status.h"
#include "core/dominance_batch.h"
#include "core/scoring.h"
#include "core/skyline_spec.h"
#include "relation/table.h"
#include "sort/external_sort.h"

namespace skyline {

/// Window pages of every SFS presort's elimination filter: a few hundred
/// projected rows, enough to drop most dominated rows.
constexpr size_t kEliminationWindowPages = 2;

/// Rows sampled from the input to seed each elimination filter.
constexpr uint64_t kEliminationSeedRows = 1024;

/// Elimination-filter window: drops tuples dominated by a small cache of
/// high-entropy "killer" tuples while the presort reads its input — the
/// paper's Section 6 future-work item ("removal of non-skyline tuples
/// could be done during the external sort passes"), realized the way the
/// authors later did in LESS (Godfrey, Shipley & Gryz, VLDB 2005).
///
/// The window stores projected skyline attributes with their entropy
/// scores and, when full, replaces its lowest-scoring entry with any
/// higher-scoring arrival: dropping window entries is always safe (the
/// window only ever *eliminates*, it never certifies), so the policy just
/// maximizes expected dominance coverage.
///
/// SFS presorts run one (core/sfs.h), or one per stretch of the parallel
/// deal. The stable presort of the survivors is a subsequence of the full
/// presort, so SFS emits the same rows in the same order.
class EliminationFilter : public RowFilter {
 public:
  /// `spec` and `scorer` must outlive the filter. Capacity is
  /// `window_pages` pages of projected entries.
  EliminationFilter(const SkylineSpec* spec, const EntropyScorer* scorer,
                    size_t window_pages);

  /// False iff `row` is dominated by a window entry.
  bool Keep(const char* row) override;

  /// Runs an evenly spaced sample of about kEliminationSeedRows rows of
  /// `input` through the window. An unseeded filter drops nothing from
  /// input in ascending (worst-first) order, such as a z-order clustered
  /// table: it never holds a row's dominator in time.
  Status Seed(const Table& input);

 private:
  const SkylineSpec* spec_;
  const SkylineSpec* entry_spec_;
  const EntropyScorer* scorer_;
  size_t entry_width_;
  size_t capacity_;
  size_t entries_ = 0;
  /// Columnar mirror of the window entries (block zone maps + batched
  /// kernel) when the projected spec qualifies; scalar loop otherwise.
  DominanceIndex index_;
  std::vector<char> storage_;
  std::vector<double> scores_;
  size_t weakest_ = 0;  // index of the lowest score
  std::vector<char> scratch_;
};

}  // namespace skyline

#endif  // SKYLINE_CORE_LESS_H_
