/**
 * @file
 * Agglomerative (bottom-up hierarchical) clustering with centroid
 * linkage. Completes the algorithm menu next to k-means and leader
 * clustering: unlike leader clustering it is order-independent, and
 * unlike k-means it needs no k up front — merging stops when the
 * closest pair of clusters is farther apart than the distance
 * threshold (or when a target cluster count is reached).
 *
 * Complexity is O(n^2) space and roughly O(n^2 log n) time, which is
 * fine for per-frame draw counts but slower than the leader pass; it
 * serves the ablation studies and small-k scenarios. The space is the
 * merge heap: 24-byte candidates (32-bit indices and versions, so n
 * must fit in 32 bits), with the n(n-1)/2 seed pairs reserved up front.
 */

#ifndef GWS_CLUSTER_AGGLOMERATIVE_HH
#define GWS_CLUSTER_AGGLOMERATIVE_HH

#include "cluster/clustering.hh"

namespace gws {

/** Agglomerative clustering parameters. */
struct AgglomerativeConfig
{
    /**
     * Stop merging when the closest centroid pair is farther apart
     * than this distance (not squared). Ignored when targetK > 0.
     */
    double distanceThreshold = 0.95;

    /**
     * When > 0, merge until exactly this many clusters remain
     * (clamped to n) regardless of distance.
     */
    std::size_t targetK = 0;
};

/**
 * Cluster points bottom-up with centroid linkage. Representatives are
 * the member nearest each final centroid. Panics on an empty input.
 */
Clustering agglomerativeCluster(const std::vector<FeatureVector> &points,
                                const AgglomerativeConfig &config);

} // namespace gws

#endif // GWS_CLUSTER_AGGLOMERATIVE_HH
