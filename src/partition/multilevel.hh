/**
 * @file
 * METIS-style multilevel graph partitioner with pluggable cost
 * functions: coarsen by heavy-edge matching, partition the coarsest
 * graph, then uncoarsen with Fiduccia–Mattheyses-style boundary
 * refinement at every level.
 *
 * The partitioner serves two very different consumers with one
 * algorithm:
 *
 *  - the *load balancer* (partition/shards.hh) partitions a chain
 *    graph of per-group costs into equal-work contiguous shards for
 *    the sweep/simulate hot paths;
 *  - the *clustering family* (cluster/graph_partition.hh) partitions
 *    a k-NN feature-similarity graph into balanced clusters, the
 *    methodology check next to k-means / leader / agglomerative.
 *
 * One cost function per consumer:
 *
 *  - Balanced (the load balancer): drive every part toward the ideal
 *    weight (sum of squared deviations), cut as a tiebreaker.
 *  - Greedy (the clustering family): classic min-cut refinement under
 *    the balance tolerance (greedy initial growth, accept only
 *    cut-improving moves that respect the tolerance).
 *
 * Everything is deterministic: node visits ascend by index, ties break
 * toward the lowest id, and no randomness is involved — equal inputs
 * give bit-equal partitions on every platform and thread count.
 */

#ifndef GWS_PARTITION_MULTILEVEL_HH
#define GWS_PARTITION_MULTILEVEL_HH

#include "partition/graph.hh"

namespace gws {

/** Objective a partition is optimized for. */
enum class PartitionCostFn : std::uint8_t
{
    /** Equalize all part weights (sum of squared deviations). */
    Balanced = 0,

    /** Minimize edge cut under the balance tolerance. */
    Greedy = 1,
};

/** Multilevel partitioner knobs. */
struct PartitionConfig
{
    /** Target part count (clamped to [1, nodes]). */
    std::size_t parts = 2;

    /** Objective. */
    PartitionCostFn costFn = PartitionCostFn::Balanced;

    /** Max allowed part weight as a multiple of the ideal weight. */
    double balanceTolerance = 1.10;

    /** Stop coarsening below parts × this many nodes. */
    std::size_t coarsenNodesPerPart = 8;

    /** Hard cap on coarsening levels. */
    std::size_t maxCoarsenLevels = 32;

    /** Max refinement passes per level (each stops when no move helps). */
    std::size_t refinePasses = 8;
};

/** One multilevel partition. */
struct PartitionResult
{
    /** Parts actually produced (== clamped config.parts; 0 iff n == 0). */
    std::size_t parts = 0;

    /** Node -> part, every part non-empty; length nodeCount(). */
    std::vector<std::uint32_t> assignment;

    /** Total node weight per part. */
    std::vector<double> partWeights;

    /** Sum of edge weights crossing parts. */
    double cutCost = 0.0;

    /** Max part weight / ideal part weight (1.0 = perfect). */
    double imbalance = 1.0;

    /** Coarsening levels taken. */
    std::size_t coarsenLevels = 0;

    /** Refinement passes run, summed over levels. */
    std::size_t refinePasses = 0;
};

/**
 * Partition `graph` into config.parts parts. Parts are guaranteed
 * non-empty; on a chain graph every part is a contiguous interval.
 * Emits part.coarsen / part.init / part.refine spans and the
 * gws.part.* metrics.
 */
PartitionResult multilevelPartition(const PartGraph &graph,
                                    const PartitionConfig &config);

} // namespace gws

#endif // GWS_PARTITION_MULTILEVEL_HH
