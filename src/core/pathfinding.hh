/**
 * @file
 * The architecture-pathfinding use case from the paper's title:
 * evaluate a set of candidate GPU design points on a workload subset
 * and check that the ranking (and the relative gaps) match a full
 * simulation of the parent workload.
 */

#ifndef GWS_CORE_PATHFINDING_HH
#define GWS_CORE_PATHFINDING_HH

#include <string>
#include <vector>

#include "core/subset_pipeline.hh"
#include "core/sweep.hh"
#include "gpusim/gpu_config.hh"

namespace gws {

/** One design point's scores. */
struct DesignPointScore
{
    /** Design-point name. */
    std::string name;

    /** Fully-simulated parent cost. */
    double parentNs = 0.0;

    /** Subset-predicted cost. */
    double subsetNs = 0.0;

    /** Parent speedup vs the first design point. */
    double parentSpeedup = 1.0;

    /** Subset speedup vs the first design point. */
    double subsetSpeedup = 1.0;
};

/** Result of a pathfinding study. */
struct PathfindingResult
{
    /** Scores per design point, in input order. */
    std::vector<DesignPointScore> points;

    /** Rank (0 = fastest) of each point by parent cost. */
    std::vector<std::size_t> parentRanking;

    /** Rank of each point by subset cost. */
    std::vector<std::size_t> subsetRanking;

    /** True when the two rankings are identical. */
    bool rankingPreserved = false;

    /** Pearson correlation of the speedup vectors. */
    double speedupCorrelation = 0.0;

    /** Spearman rank correlation of the cost vectors. */
    double rankCorrelation = 0.0;
};

/**
 * Run the study: price every design point on the full parent and on
 * the subset, then compare rankings. Requires >= 2 design points.
 *
 * Designs differing only in clocks (same capacity hash — e.g. the
 * baseline/wide/fastmem presets) share one WorkTrace and are retimed
 * in a single sweep pass; capacity-changing designs each get their own
 * compute-once pass. Each parent cost is bit-identical to
 * GpuSimulator::simulateTrace under that design.
 */
PathfindingResult runPathfinding(const Trace &trace,
                                 const WorkloadSubset &subset,
                                 const std::vector<GpuConfig> &designs);

} // namespace gws

#endif // GWS_CORE_PATHFINDING_HH
