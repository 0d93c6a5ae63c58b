#include "core/partition.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "storage/heap_file.h"

namespace skyline {
namespace {

/// Angles are taken over at most this many leading MIN/MAX criteria.
constexpr size_t kMaxAxes = 3;
/// Rows sampled (evenly spaced) from the input to fit the slices.
constexpr uint64_t kSampleRows = 4096;

/// Oriented value of one MIN/MAX criterion: numeric value negated for MIN,
/// so "larger is better" uniformly across directions.
double OrientedValue(const SkylineSpec::DomColumn& col, const char* row) {
  double v = 0;
  switch (col.type) {
    case ColumnType::kInt32: {
      int32_t raw;
      std::memcpy(&raw, row + col.offset, sizeof(raw));
      v = static_cast<double>(raw);
      break;
    }
    case ColumnType::kInt64: {
      int64_t raw;
      std::memcpy(&raw, row + col.offset, sizeof(raw));
      v = static_cast<double>(raw);
      break;
    }
    case ColumnType::kFloat64: {
      std::memcpy(&v, row + col.offset, sizeof(v));
      break;
    }
    case ColumnType::kFixedString:
      break;  // MIN/MAX criteria are numeric by spec validation
  }
  return col.max ? v : -v;
}

/// Equi-depth bucket boundaries for `buckets` buckets over `values`
/// (consumed): boundary[i] separates bucket i from i+1. Duplicated sample
/// values can collapse boundaries; Bucket() below still assigns every
/// value a bucket < buckets.
std::vector<double> EquiDepthBoundaries(std::vector<double> values,
                                        size_t buckets) {
  std::vector<double> bounds;
  if (values.empty() || buckets <= 1) return bounds;
  std::sort(values.begin(), values.end());
  bounds.reserve(buckets - 1);
  for (size_t i = 1; i < buckets; ++i) {
    bounds.push_back(values[i * values.size() / buckets]);
  }
  return bounds;
}

size_t Bucket(const std::vector<double>& bounds, double v) {
  return static_cast<size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

/// First two hyperspherical angles of the min-oriented point `m[0..dims)`.
/// One axis degenerates to the coordinate itself; the second angle is 0
/// below three axes.
void Angles(const double* m, size_t dims, double* a0, double* a1) {
  if (dims < 2) {
    *a0 = m[0];
    *a1 = 0;
    return;
  }
  *a0 = std::atan2(m[1], m[0]);
  *a1 = dims >= 3 ? std::atan2(m[2], std::sqrt(m[0] * m[0] + m[1] * m[1]))
                  : 0;
}

}  // namespace

Result<AngularPartitioner> AngularPartitioner::Fit(
    Env* env, const std::string& path, const SkylineSpec& spec,
    size_t partitions) {
  if (partitions == 0) {
    return Status::InvalidArgument("partitioner needs >= 1 partition");
  }
  const size_t dims = std::min(kMaxAxes, spec.num_dimensions());
  const auto& cols = spec.dom_value_columns();

  // Evenly spaced row sample: oriented values of the first `dims` criteria.
  const size_t width = spec.schema().row_width();
  SKYLINE_ASSIGN_OR_RETURN(
      std::vector<char> rows,
      ReadEvenlySpacedRecords(env, path, width, kSampleRows));
  std::vector<std::vector<double>> sample(dims);
  for (size_t r = 0; r < rows.size(); r += width) {
    for (size_t d = 0; d < dims; ++d) {
      sample[d].push_back(OrientedValue(cols[d], rows.data() + r));
    }
  }

  std::vector<Axis> axes(dims);
  for (size_t d = 0; d < dims; ++d) {
    if (sample[d].empty()) continue;
    const auto [lo_it, hi_it] =
        std::minmax_element(sample[d].begin(), sample[d].end());
    axes[d].hi = *hi_it;
    const double span = *hi_it - *lo_it;
    axes[d].inv_span = span > 0 ? 1.0 / span : 0.0;
  }

  // A g0 x g1 grid of angle slices; the second angle only splits with
  // three axes and enough partitions to fill both directions.
  size_t g0 = partitions;
  size_t g1 = 1;
  if (dims >= 3 && partitions >= 4) {
    g0 = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(partitions))));
    g1 = (partitions + g0 - 1) / g0;
  }

  // Fit the boundaries by pushing the sample through the same transform
  // OwnerOf applies; equi-depth buckets then balance the slices under
  // whatever angle distribution the data has.
  const size_t n = sample[0].size();
  std::vector<double> angles0(n);
  std::vector<double> angles1(n);
  for (size_t i = 0; i < n; ++i) {
    double m[kMaxAxes] = {0, 0, 0};
    for (size_t d = 0; d < dims; ++d) {
      m[d] = axes[d].MinOriented(sample[d][i]);
    }
    Angles(m, dims, &angles0[i], &angles1[i]);
  }
  std::vector<double> b0 = EquiDepthBoundaries(std::move(angles0), g0);
  std::vector<double> b1 = g1 > 1
                               ? EquiDepthBoundaries(std::move(angles1), g1)
                               : std::vector<double>{};
  return AngularPartitioner(&spec, partitions, std::move(axes), std::move(b0),
                            std::move(b1));
}

size_t AngularPartitioner::OwnerOf(const char* row) const {
  const auto& cols = spec_->dom_value_columns();
  double m[kMaxAxes] = {0, 0, 0};
  for (size_t d = 0; d < axes_.size(); ++d) {
    m[d] = axes_[d].MinOriented(OrientedValue(cols[d], row));
  }
  double a0 = 0;
  double a1 = 0;
  Angles(m, axes_.size(), &a0, &a1);
  size_t cell = Bucket(bounds0_, a0);
  if (!bounds1_.empty()) {
    cell = cell * (bounds1_.size() + 1) + Bucket(bounds1_, a1);
  }
  return cell % partitions_;
}

}  // namespace skyline
