#include "cluster/graph_partition.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/feature_matrix.hh"
#include "runtime/parallel_for.hh"
#include "util/logging.hh"

namespace gws {

namespace {

/**
 * Rows per chunk of the k-NN scan. A row is a full n-point distance
 * scan plus a selection (n is about 1,150 on a paper-size frame), far
 * above the element cost the default grain is sized for.
 */
constexpr std::size_t knnRowGrain = 16;

/** A held neighbor of the k-NN scan. */
struct Neighbor
{
    double distance2;
    std::uint32_t index;
};

/**
 * Symmetric k-NN similarity graph: each point contributes edges to
 * its `neighbors` nearest others (squared distances from the SoA
 * batch kernel, ties toward the lower index), weighted 1 / (1 + d²)
 * so near-duplicates bind tightly and far pairs barely matter.
 * buildGraph() symmetrizes and coalesces the union.
 *
 * Each row keeps its k nearest in one pass by bounded insertion,
 * sorted by (distance, index). Candidates arrive in ascending index,
 * so a newcomer sorts after every held entry at its distance: a
 * strict < on distance is the whole comparison. The (distance, index)
 * order is total, so the selection has one answer. Row i's edges land
 * at [i k, (i + 1) k), so rows fan out and the list keeps row order.
 */
PartGraph
knnGraph(const std::vector<FeatureVector> &points, std::size_t neighbors)
{
    const std::size_t n = points.size();
    const FeatureMatrix matrix(points);
    const std::size_t k = std::min(neighbors, n - 1);

    std::vector<GraphEdge> edges(n * k);
    parallelChunks(0, n, knnRowGrain, [&](std::size_t b, std::size_t e) {
        std::vector<double> dist(n);
        std::vector<Neighbor> nearest(k);
        for (std::size_t i = b; i < e; ++i) {
            matrix.squaredDistanceBatch(0, n, points[i], dist.data());
            std::size_t held = 0;
            for (std::uint32_t j = 0; j < n; ++j) {
                const double d = dist[j];
                if (j == i ||
                    (held == k && (k == 0 || d >= nearest[k - 1].distance2)))
                    continue;
                std::size_t pos = held < k ? held++ : k - 1;
                for (; pos > 0 && d < nearest[pos - 1].distance2; --pos)
                    nearest[pos] = nearest[pos - 1];
                nearest[pos] = {d, j};
            }
            GraphEdge *row = edges.data() + i * k;
            for (std::size_t s = 0; s < k; ++s)
                row[s] = {static_cast<std::uint32_t>(i), nearest[s].index,
                          1.0 / (1.0 + nearest[s].distance2)};
        }
    });
    return buildGraph(std::vector<double>(n, 1.0), edges);
}

} // namespace

Clustering
graphPartitionCluster(const std::vector<FeatureVector> &points,
                      const GraphPartitionConfig &config)
{
    const std::size_t n = points.size();
    GWS_ASSERT(n > 0, "graphPartitionCluster on an empty point set");

    std::size_t k = config.targetK;
    if (k == 0) {
        const double eff =
            std::clamp(config.targetEfficiency, 0.0, 1.0);
        k = static_cast<std::size_t>(
            std::lround(static_cast<double>(n) * (1.0 - eff)));
    }
    k = std::clamp<std::size_t>(k, 1, n);

    Clustering out;
    out.k = k;
    if (k == n) {
        // Singletons need no graph.
        out.assignment.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            out.assignment[i] = static_cast<std::uint32_t>(i);
            out.representatives.push_back(i);
            out.centroids.push_back(points[i]);
        }
        out.validate();
        return out;
    }

    PartitionConfig pcfg;
    pcfg.parts = k;
    pcfg.costFn = config.costFn;
    pcfg.balanceTolerance = config.balanceTolerance;
    pcfg.refinePasses = config.refinePasses;
    // Coarsen close to k before seeding: heavy-edge matching merges
    // near-duplicate draws, so the surviving coarse nodes are tight
    // similarity groups and make far better part seeds than raw
    // points (whose unit weights leave seed choice to index order).
    pcfg.coarsenNodesPerPart = 2;
    PartitionResult res =
        multilevelPartition(knnGraph(points, config.neighbors), pcfg);
    out.assignment = std::move(res.assignment);

    // Centroids are member means, accumulated in ascending item order.
    out.centroids.assign(k, FeatureVector{});
    std::vector<std::size_t> sizes(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t c = out.assignment[i];
        for (std::size_t d = 0; d < numFeatureDims; ++d)
            out.centroids[c].at(d) += points[i].at(d);
        ++sizes[c];
    }
    for (std::size_t c = 0; c < k; ++c)
        for (std::size_t d = 0; d < numFeatureDims; ++d)
            out.centroids[c].at(d) /= static_cast<double>(sizes[c]);

    // Representative = member nearest its centroid (strict <, so the
    // lowest index wins ties).
    out.representatives.assign(k, 0);
    std::vector<double> best(k,
                             std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t c = out.assignment[i];
        const double d =
            points[i].squaredDistance(out.centroids[c]);
        if (d < best[c]) {
            best[c] = d;
            out.representatives[c] = i;
        }
    }
    out.validate();
    return out;
}

} // namespace gws
