#include "core/special2d.h"

#include <cstring>
#include <memory>
#include <vector>

#include "common/stopwatch.h"
#include "core/scoring.h"
#include "core/sfs.h"
#include "storage/heap_file.h"
#include "storage/temp_file_manager.h"

namespace skyline {

Result<Table> ComputeSkyline2D(const Table& input, const SkylineSpec& spec,
                               const SortOptions& sort_options,
                               const ExecContext& ctx,
                               const std::string& output_path,
                               SkylineRunStats* stats) {
  if (!input.schema().Equals(spec.schema())) {
    return Status::InvalidArgument("table schema does not match skyline spec");
  }
  if (spec.value_columns().size() != 2) {
    return Status::InvalidArgument(
        "ComputeSkyline2D requires exactly two MIN/MAX criteria, got " +
        std::to_string(spec.value_columns().size()));
  }
  SkylineRunStats local;
  SkylineRunStats* s = stats != nullptr ? stats : &local;
  *s = SkylineRunStats{};
  s->input_rows = input.row_count();

  Env* env = input.env();
  const Schema& schema = spec.schema();
  const size_t width = schema.row_width();
  TempFileManager temp_files(env, output_path + ".sky2d_tmp");

  std::unique_ptr<LexicographicOrdering> ordering =
      MakeNestedSkylineOrdering(spec);
  SKYLINE_ASSIGN_OR_RETURN(
      std::string sorted_path,
      RunPresort(env, &temp_files, input.path(), width, ordering.get(),
                 sort_options, ctx, &s->sort_stats, &s->sort_seconds));

  const auto& primary = spec.value_columns()[0];
  const auto& secondary = spec.value_columns()[1];
  // Direction-aware comparison: positive if a beats b on the criterion.
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

  // O(1) scan state: the last emitted skyline tuple. Within a DIFF group,
  // a tuple is skyline iff it strictly beats the last skyline tuple's
  // secondary value, or ties it on both criteria (an equivalent tuple —
  // sorting makes equivalents adjacent to their first representative's
  // run... not necessarily adjacent, but any tuple between two
  // equivalents in sort order would itself tie both keys).
  std::vector<char> last_skyline(width);
  bool have_last = false;
  ++s->passes;
  while (const char* row = reader.Next()) {
    bool is_skyline;
    if (!have_last || (spec.has_diff() &&
                       !spec.SameDiffGroup(last_skyline.data(), row))) {
      is_skyline = true;  // first tuple of the input or of a new group
    } else {
      const int sec = better(secondary, row, last_skyline.data());
      if (sec > 0) {
        is_skyline = true;  // strictly better secondary than any prior
      } else if (sec == 0) {
        // Ties the frontier's secondary: skyline iff it also ties the
        // primary (equivalent); a worse primary means domination.
        is_skyline = better(primary, row, last_skyline.data()) == 0;
      } else {
        is_skyline = false;  // worse secondary and (by sort) no better
                             // primary: dominated by last_skyline
      }
      ++s->window_comparisons;
    }
    if (is_skyline) {
      SKYLINE_RETURN_IF_ERROR(builder.AppendRaw(row));
      ++s->output_rows;
      std::memcpy(last_skyline.data(), row, width);
      have_last = true;
    }
  }
  SKYLINE_RETURN_IF_ERROR(reader.status());
  s->filter_seconds = scan_timer.ElapsedSeconds();
  return builder.Finish();
}

}  // namespace skyline
