/**
 * @file
 * Graph-partitioning clustering: the METIS-style member of the
 * algorithm menu, next to leader, k-means and agglomerative.
 *
 * The point set becomes a k-nearest-neighbor similarity graph (edge
 * weight 1 / (1 + d²), symmetrized) and the multilevel partitioner
 * (partition/multilevel.hh) cuts it into k balanced parts along weak
 * similarity edges. Where leader clustering is radius-driven and
 * k-means centroid-driven, the partitioner is *structure*-driven: it
 * looks at the whole neighborhood graph at once, which makes it the
 * methodology check the fig2/fig3 quality benches compare the other
 * families against (alternative grouping strategies materially change
 * subset quality — Characterizing and Subsetting Big Data Workloads).
 *
 * Deterministic for equal inputs: k-NN ties break toward the lower
 * index and the partitioner itself is randomness-free.
 */

#ifndef GWS_CLUSTER_GRAPH_PARTITION_HH
#define GWS_CLUSTER_GRAPH_PARTITION_HH

#include "cluster/clustering.hh"
#include "partition/multilevel.hh"

namespace gws {

/** Graph-partitioning clustering parameters. */
struct GraphPartitionConfig
{
    /**
     * Cluster count; 0 derives it from targetEfficiency. Clamped to
     * [1, n].
     */
    std::size_t targetK = 0;

    /**
     * When targetK == 0, pick k ≈ n × (1 − targetEfficiency), the k
     * at which the clustering reaches this paper-style efficiency
     * (1 − k/n).
     */
    double targetEfficiency = 0.65;

    /** Neighbors per point in the similarity graph. */
    std::size_t neighbors = 8;

    /**
     * Max part weight as a multiple of ideal (points per cluster).
     * Deliberately loose: natural draw clusters are heavily skewed
     * (a few repeated-state clusters absorb most draws), and forcing
     * near-equal sizes would cut through similarity structure and mix
     * dissimilar draws into one cluster. The load-balancing shard use
     * of the partitioner wants tight tolerances; clustering does not.
     */
    double balanceTolerance = 8.0;

    /** Refinement passes per uncoarsening level. */
    std::size_t refinePasses = 8;
};

/**
 * Cluster points by multilevel partitioning of their k-NN similarity
 * graph. Centroids are member means, representatives the member
 * nearest each centroid. Panics on an empty input; the result passes
 * Clustering::validate().
 */
Clustering graphPartitionCluster(const std::vector<FeatureVector> &points,
                                 const GraphPartitionConfig &config);

} // namespace gws

#endif // GWS_CLUSTER_GRAPH_PARTITION_HH
