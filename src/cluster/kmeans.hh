/**
 * @file
 * Lloyd's k-means with k-means++ seeding, multiple restarts, and
 * empty-cluster repair. Used for small-to-moderate k (the k-selection
 * sweep and the ablation studies); per-frame production clustering
 * with large k uses the cheaper LeaderClusterer.
 */

#ifndef GWS_CLUSTER_KMEANS_HH
#define GWS_CLUSTER_KMEANS_HH

#include <cstdint>

#include "cluster/clustering.hh"

namespace gws {

/** Seeding strategy for k-means. */
enum class KMeansInit : std::uint8_t
{
    /** k-means++ (D^2-weighted) seeding. */
    PlusPlus = 0,

    /** Uniform random distinct points. */
    Random = 1,
};

/**
 * Which Lloyd implementation kmeans() runs. Both produce bit-identical
 * Clustering output (assignments, centroids, representatives) — the
 * fast path's Hamerly bounds only ever skip scans they can prove
 * irrelevant, and its full scans replay the naive arithmetic in the
 * same order. test_cluster_fastpath verifies the identity; only that
 * test asks for the naive path.
 */
enum class KMeansPath : std::uint8_t
{
    /** SoA feature matrix, Hamerly upper/lower distance bounds, and
     *  newest-centroid-only k-means++ D^2 pruning. */
    Fast = 0,

    /** Textbook full scans + full k-means++ rescans (the test oracle;
     *  it shares updateCentroids with the fast path). */
    Naive = 1,
};

/** k-means parameters. */
struct KMeansConfig
{
    /** Number of clusters (clamped to the number of points). */
    std::size_t k = 8;

    /** Maximum Lloyd iterations per restart. */
    std::size_t maxIterations = 50;

    /** Independent restarts; the lowest-inertia run wins. */
    std::size_t restarts = 2;

    /** Seeding strategy. */
    KMeansInit init = KMeansInit::PlusPlus;

    /** RNG seed (restart r uses seed + r). */
    std::uint64_t seed = 12345;

    /** Implementation selection (bit-identical either way). */
    KMeansPath path = KMeansPath::Fast;
};

/**
 * Cluster points with k-means. Representatives are the item nearest
 * each final centroid. Panics on an empty input; k is clamped to n.
 */
Clustering kmeans(const std::vector<FeatureVector> &points,
                  const KMeansConfig &config);

} // namespace gws

#endif // GWS_CLUSTER_KMEANS_HH
