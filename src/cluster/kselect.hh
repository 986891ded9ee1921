/**
 * @file
 * SimPoint-style k selection: sweep k, score each clustering with the
 * BIC, and pick the smallest k whose score reaches a fraction of the
 * best score seen.
 *
 * The sweep runs its k values concurrently, one k-means run per chunk
 * of a parallel map, largest k first. Runs share no state (each seeds
 * from KMeansConfig::seed whatever its k), and the results are folded
 * in ascending k, so the outcome is bit-identical at any thread count.
 */

#ifndef GWS_CLUSTER_KSELECT_HH
#define GWS_CLUSTER_KSELECT_HH

#include "cluster/kmeans.hh"

namespace gws {

/** k-selection sweep parameters. */
struct KSelectConfig
{
    /** Largest k to try (clamped to n). */
    std::size_t maxK = 32;

    /** Step between tried k values (1 = every k). */
    std::size_t step = 1;

    /**
     * Chosen k = smallest whose BIC >= bicFraction * best BIC when
     * scores are negative, or >= bicFraction-scaled span otherwise
     * (SimPoint uses 0.9).
     */
    double bicFraction = 0.9;

    /** k-means parameters applied at every k. */
    KMeansConfig base;
};

/** Result of a k-selection sweep. */
struct KSelectResult
{
    /** The chosen number of clusters. */
    std::size_t chosenK = 1;

    /** Every k that was tried, ascending. */
    std::vector<std::size_t> triedK;

    /** BIC score of each tried k (aligned with triedK). */
    std::vector<double> bicByK;

    /** The winning clustering (refit at chosenK). */
    Clustering clustering;
};

/** Run the sweep. Panics on an empty input. */
KSelectResult selectK(const std::vector<FeatureVector> &points,
                      const KSelectConfig &config);

} // namespace gws

#endif // GWS_CLUSTER_KSELECT_HH
