#include "core/special3d.h"

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "core/scoring.h"
#include "core/sfs.h"
#include "storage/heap_file.h"
#include "storage/temp_file_manager.h"

namespace skyline {
namespace {

/// Direction-aware byte-key comparator: orders raw column values so that
/// "better" sorts *larger*. Keys are the column's raw bytes; comparison
/// delegates to the schema so int/float semantics are exact (no lossy
/// widening of int64 values).
class ValueKeyLess {
 public:
  ValueKeyLess(const Schema* schema, size_t column, bool max)
      : schema_(schema), column_(column), max_(max) {}

  bool operator()(const std::string& a, const std::string& b) const {
    // Keys are full-width row buffers; only this column's bytes are
    // compared, so rows equal on the column are equivalent keys.
    int c = schema_->CompareColumn(column_, a.data(), b.data());
    return max_ ? c < 0 : c > 0;  // "worse" sorts first
  }

 private:
  const Schema* schema_;
  size_t column_;
  bool max_;
};

}  // namespace

Result<Table> ComputeSkyline3D(const Table& input, const SkylineSpec& spec,
                               const SortOptions& sort_options,
                               const ExecContext& ctx,
                               const std::string& output_path,
                               SkylineRunStats* stats) {
  if (!input.schema().Equals(spec.schema())) {
    return Status::InvalidArgument("table schema does not match skyline spec");
  }
  if (spec.value_columns().size() != 3) {
    return Status::InvalidArgument(
        "ComputeSkyline3D requires exactly three MIN/MAX criteria, got " +
        std::to_string(spec.value_columns().size()));
  }
  SkylineRunStats local;
  SkylineRunStats* s = stats != nullptr ? stats : &local;
  *s = SkylineRunStats{};
  s->input_rows = input.row_count();

  Env* env = input.env();
  const Schema& schema = spec.schema();
  const size_t width = schema.row_width();
  TempFileManager temp_files(env, output_path + ".sky3d_tmp");

  std::unique_ptr<LexicographicOrdering> ordering =
      MakeNestedSkylineOrdering(spec);
  SKYLINE_ASSIGN_OR_RETURN(
      std::string sorted_path,
      RunPresort(env, &temp_files, input.path(), width, ordering.get(),
                 sort_options, ctx, &s->sort_stats, &s->sort_seconds));

  const auto& primary = spec.value_columns()[0];
  const auto& secondary = spec.value_columns()[1];
  const auto& tertiary = spec.value_columns()[2];
  // Direction-aware "a beats b" (positive), over full-width row buffers.
  auto better = [&schema](const SkylineSpec::ValueColumn& vc, const char* a,
                          const char* b) {
    int c = schema.CompareColumn(vc.column, a, b);
    return vc.max ? c : -c;
  };

  Stopwatch scan_timer;
  HeapFileReader reader(env, sorted_path, width, nullptr);
  SKYLINE_RETURN_IF_ERROR(reader.Open());
  TableBuilder builder(env, output_path, schema);
  SKYLINE_RETURN_IF_ERROR(builder.Open());

  // Staircase over (secondary, tertiary) of all *strictly better primary*
  // tuples: keyed by secondary (worse-first under ValueKeyLess), each key
  // mapping to the best tertiary seen at that-or-better secondary...
  // invariant: ascending key order (worse→better secondary) has strictly
  // improving tertiary impossible — it has strictly *worsening* tertiary
  // as secondary improves? No: as secondary improves along the map,
  // tertiary must strictly worsen for both entries to be frontier points.
  // Keys and values are full row buffers (only the respective column's
  // bytes are ever compared).
  ValueKeyLess sec_less(&schema, secondary.column, secondary.max);
  std::map<std::string, std::string, ValueKeyLess> staircase(sec_less);

  auto tert_better_eq = [&](const std::string& a, const char* b) {
    return better(tertiary, a.data(), b) >= 0;
  };

  // True iff some strictly-better-primary tuple dominates `row` — i.e.
  // a staircase entry with secondary >= row's and tertiary >= row's.
  // Among entries with secondary >= row's, the best tertiary belongs to
  // the *worst qualifying secondary* (frontier property), which
  // lower_bound finds directly.
  auto dominated_by_staircase = [&](const char* row) {
    if (staircase.empty()) return false;
    auto it = staircase.lower_bound(std::string(row, width));
    if (it == staircase.end()) return false;  // nothing with sec >= row's
    ++s->window_comparisons;
    return tert_better_eq(it->second, row);
  };

  // Merges a confirmed skyline row into the staircase.
  auto merge_into_staircase = [&](const char* row) {
    const std::string key(row, width);
    auto it = staircase.lower_bound(key);
    // Covered check: an entry with secondary >= and tertiary >= makes this
    // row redundant as a frontier point (it still got output).
    if (it != staircase.end() && tert_better_eq(it->second, row)) return;
    // Erase predecessors (worse-or-equal secondary) whose tertiary is
    // worse-or-equal — they are covered by the new point.
    while (it != staircase.begin()) {
      auto prev = std::prev(it);
      if (better(tertiary, row, prev->second.data()) >= 0) {
        it = staircase.erase(prev);
      } else {
        break;
      }
    }
    staircase.insert_or_assign(key, key);
  };

  // One group of equal (diff-cols, primary) value, pending judgement.
  std::vector<char> group;        // raw rows
  std::vector<char> group_head(width);
  bool have_group = false;

  auto flush_group = [&]() -> Status {
    // Pass 1 within the group: the 2-dim scan over (secondary, tertiary)
    // decides within-group dominance (rows arrive secondary-best-first,
    // tertiary-best-first). Pass 2: survivors against the staircase.
    const char* last_sky = nullptr;
    std::vector<const char*> survivors;
    const size_t n = group.size() / width;
    for (size_t i = 0; i < n; ++i) {
      const char* row = group.data() + i * width;
      bool survives;
      if (last_sky == nullptr) {
        survives = true;
      } else {
        ++s->window_comparisons;
        const int tert = better(tertiary, row, last_sky);
        if (tert > 0) {
          survives = true;
        } else if (tert == 0) {
          survives = better(secondary, row, last_sky) == 0;
        } else {
          survives = false;
        }
      }
      if (survives) {
        last_sky = row;
        if (!dominated_by_staircase(row)) survivors.push_back(row);
      }
    }
    for (const char* row : survivors) {
      SKYLINE_RETURN_IF_ERROR(builder.AppendRaw(row));
      ++s->output_rows;
    }
    // Merge after judging the whole group (group members must not shadow
    // each other in the strict-primary staircase).
    for (const char* row : survivors) merge_into_staircase(row);
    group.clear();
    return Status::OK();
  };

  ++s->passes;
  while (const char* row = reader.Next()) {
    const bool new_diff_group =
        have_group && spec.has_diff() &&
        !spec.SameDiffGroup(group_head.data(), row);
    const bool new_primary_group =
        have_group && (new_diff_group ||
                       schema.CompareColumn(primary.column, group_head.data(),
                                            row) != 0);
    if (new_primary_group) {
      SKYLINE_RETURN_IF_ERROR(flush_group());
      if (new_diff_group) staircase.clear();
    }
    if (!have_group || new_primary_group) {
      std::memcpy(group_head.data(), row, width);
      have_group = true;
    }
    group.insert(group.end(), row, row + width);
  }
  SKYLINE_RETURN_IF_ERROR(reader.status());
  if (have_group) {
    SKYLINE_RETURN_IF_ERROR(flush_group());
  }
  s->filter_seconds = scan_timer.ElapsedSeconds();
  return builder.Finish();
}

}  // namespace skyline
