#ifndef SKYLINE_CORE_PARTITION_H_
#define SKYLINE_CORE_PARTITION_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/skyline_spec.h"
#include "env/env.h"

namespace skyline {

/// Angular partitioning (Ciaccia & Martinenghi) of the input for the
/// slice-first parallel SFS (core/sfs_parallel.h). Tuples map to the
/// hyperspherical angles
/// of their min-oriented normalized values (0 = best on every axis) over
/// the first three MIN/MAX criteria, and partitions are equi-depth angle
/// slices. A slice spans the full best-to-worst radial range, so every
/// partition keeps tuples from the whole quality spectrum — the property
/// that keeps local skylines small and representative of the global one.
///
/// A slice sorted on its own is a subsequence of the global presort
/// order, so it is monotone-sorted with DIFF groups contiguous and
/// independently filterable: the partitioning moves work between the local
/// filters and the merge, but can never change the computed skyline.
class AngularPartitioner {
 public:
  /// Fits `partitions` slices over the heap file at `path` (spec.schema()
  /// rows, in any order) from an evenly spaced sample of about 4096 rows,
  /// so two fits of the same file agree row for row. `spec` must outlive
  /// the partitioner.
  static Result<AngularPartitioner> Fit(Env* env, const std::string& path,
                                        const SkylineSpec& spec,
                                        size_t partitions);

  /// Partition owning `row` (a full spec schema row). Always <
  /// partitions().
  size_t OwnerOf(const char* row) const;

  size_t partitions() const { return partitions_; }

 private:
  /// Min-orientation of one sampled criterion.
  struct Axis {
    double hi = 0;        // best oriented value seen in the sample
    double inv_span = 0;  // 0 when the axis is constant in the sample

    /// Oriented value `v` normalized into [0,1], 0 = best.
    double MinOriented(double v) const {
      return std::clamp((hi - v) * inv_span, 0.0, 1.0);
    }
  };

  AngularPartitioner(const SkylineSpec* spec, size_t partitions,
                     std::vector<Axis> axes, std::vector<double> bounds0,
                     std::vector<double> bounds1)
      : spec_(spec),
        partitions_(partitions),
        axes_(std::move(axes)),
        bounds0_(std::move(bounds0)),
        bounds1_(std::move(bounds1)) {}

  const SkylineSpec* spec_;
  size_t partitions_;
  std::vector<Axis> axes_;
  /// Equi-depth boundaries of the first angle and (with three or more
  /// axes and at least four partitions) the second.
  std::vector<double> bounds0_;
  std::vector<double> bounds1_;
};

}  // namespace skyline

#endif  // SKYLINE_CORE_PARTITION_H_
