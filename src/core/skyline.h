#ifndef SKYLINE_CORE_SKYLINE_H_
#define SKYLINE_CORE_SKYLINE_H_

/// Umbrella header: the full public API of the skyline library.
///
/// Core algorithm (the paper's contribution):
///  - SkylineSpec / Directive  — the `SKYLINE OF a1 MAX, ...` specification
///  - ComputeSkylineSfs / SfsIterator — Sort-Filter-Skyline with entropy
///    presort, projection, diff groups, pipelined output
///  - ComputeSkylineBnl — the block-nested-loops baseline
///  - ComputeStrataSfs / LabelStrataIterative — skyline strata
///  - DimensionalReduction — small-domain pre-reduction
///  - NaiveSkyline* / DivideConquerSkyline* — reference algorithms
///  - ExpectedSkylineSize / ExtrapolateSkylineSize / EstimateSfsCost —
///    cardinality estimation and optimizer costing
///
/// Section 6 extensions: EliminationFilter (sort-phase elimination, run by
/// every SFS presort), ComputeSkyline2D / ComputeSkyline3D (special-case scans), ComputeWinnow
/// (arbitrary strict-partial-order preferences), SkylineMaintainer
/// (incremental updates), RankEntropyOrdering (histogram-rank presort).
///
/// Substrate: Env (env/env.h), heap files (storage/), tables, generators,
/// CSV and sidecar-metadata I/O, histograms (relation/), external sort
/// (sort/), Volcano operators with the Query builder (exec/), and the
/// Figure 3 SQL dialect (sql/).

#include "common/exec_context.h"
#include "core/bnl.h"
#include "core/cardinality.h"
#include "core/compute_skyline.h"
#include "core/cost_model.h"
#include "core/dim_reduce.h"
#include "core/divide_conquer.h"
#include "core/dominance.h"
#include "core/less.h"
#include "core/maintenance.h"
#include "core/naive.h"
#include "core/run_report.h"
#include "core/run_stats.h"
#include "core/scoring.h"
#include "core/sfs.h"
#include "core/skyline_spec.h"
#include "core/special2d.h"
#include "core/special3d.h"
#include "core/strata.h"
#include "core/window.h"
#include "core/winnow.h"
#include "relation/csv.h"
#include "relation/generator.h"
#include "relation/histogram.h"
#include "relation/table.h"
#include "relation/table_io.h"

#endif  // SKYLINE_CORE_SKYLINE_H_
