#include "cluster/agglomerative.hh"

#include <limits>
#include <queue>

#include "cluster/feature_matrix.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace gws {

namespace {

/**
 * A candidate merge in the priority queue (lazy deletion scheme).
 * 24 bytes: the heap holds O(n^2) of them and every sift step moves
 * one. A version counts the merges into one cluster, which is fewer
 * than n, so point-index width suffices for both fields.
 */
struct Candidate
{
    double distance2;
    std::uint32_t a;
    std::uint32_t b;
    std::uint32_t versionA;
    std::uint32_t versionB;

    bool
    operator>(const Candidate &other) const
    {
        return distance2 > other.distance2;
    }
};
static_assert(sizeof(Candidate) == 24);

} // namespace

Clustering
agglomerativeCluster(const std::vector<FeatureVector> &points,
                     const AgglomerativeConfig &config)
{
    GWS_ASSERT(!points.empty(), "agglomerative on an empty point set");
    GWS_ASSERT(config.distanceThreshold >= 0.0, "negative threshold");
    obs::SpanScope span("cluster.agglomerative");
    const std::size_t n = points.size();
    GWS_ASSERT(n <= UINT32_MAX, "agglomerative on ", n,
               " points; indices are 32-bit");
    const std::size_t target =
        config.targetK > 0 ? std::min(config.targetK, n) : 1;
    const double threshold2 =
        config.targetK > 0
            ? std::numeric_limits<double>::infinity()
            : config.distanceThreshold * config.distanceThreshold;

    // Active-cluster state. Centroids move on merge; a version counter
    // invalidates stale queue entries (lazy deletion).
    std::vector<FeatureVector> centroids = points;
    std::vector<std::size_t> sizes(n, 1);
    std::vector<bool> alive(n, true);
    std::vector<std::uint32_t> version(n, 0);
    std::vector<std::size_t> parent(n);
    for (std::size_t i = 0; i < n; ++i)
        parent[i] = i;

    // Seed the queue with all pairs. The SoA batch kernel computes
    // each row's distances contiguously (bit-identical to the scalar
    // pairwise path), leaving only the pushes at O(n^2 log n).
    // Reserving the seed pairs up front skips the doubling
    // reallocations, and their transient second copy, while the queue
    // fills.
    std::vector<Candidate> storage;
    storage.reserve(n * (n - 1) / 2);
    std::priority_queue<Candidate, std::vector<Candidate>,
                        std::greater<Candidate>>
        queue(std::greater<Candidate>{}, std::move(storage));
    const FeatureMatrix matrix(points);
    std::vector<double> dist(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        if (i + 1 < n)
            matrix.squaredDistanceBatch(i + 1, n, points[i],
                                        dist.data() + i + 1);
        for (std::uint32_t j = i + 1; j < n; ++j)
            queue.push({dist[j], i, j, 0, 0});
    }

    std::size_t clusters = n;
    while (clusters > target && !queue.empty()) {
        const Candidate c = queue.top();
        queue.pop();
        if (!alive[c.a] || !alive[c.b] || version[c.a] != c.versionA ||
            version[c.b] != c.versionB) {
            continue; // stale entry
        }
        if (c.distance2 > threshold2)
            break; // closest pair too far apart: done

        // Merge b into a (centroid = size-weighted mean).
        const double wa = static_cast<double>(sizes[c.a]);
        const double wb = static_cast<double>(sizes[c.b]);
        for (std::size_t d = 0; d < numFeatureDims; ++d) {
            centroids[c.a].at(d) =
                (centroids[c.a].at(d) * wa + centroids[c.b].at(d) * wb) /
                (wa + wb);
        }
        sizes[c.a] += sizes[c.b];
        alive[c.b] = false;
        parent[c.b] = c.a;
        ++version[c.a];
        --clusters;

        // Fresh candidates from the merged cluster to all survivors.
        for (std::uint32_t other = 0; other < n; ++other) {
            if (!alive[other] || other == c.a)
                continue;
            queue.push({centroids[c.a].squaredDistance(centroids[other]),
                        c.a < other ? c.a : other,
                        c.a < other ? other : c.a,
                        c.a < other ? version[c.a] : version[other],
                        c.a < other ? version[other] : version[c.a]});
        }
    }

    // Path-compress the merge forest to find each point's root.
    auto find_root = [&](std::size_t i) {
        while (parent[i] != i)
            i = parent[i] = parent[parent[i]];
        return i;
    };

    Clustering out;
    std::vector<std::uint32_t> dense(n, UINT32_MAX);
    out.assignment.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t root = find_root(i);
        if (dense[root] == UINT32_MAX) {
            dense[root] = static_cast<std::uint32_t>(out.k++);
            out.centroids.push_back(centroids[root]);
        }
        out.assignment[i] = dense[root];
    }

    out.representatives.assign(out.k, SIZE_MAX);
    std::vector<double> best(out.k,
                             std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t c = out.assignment[i];
        const double d = points[i].squaredDistance(out.centroids[c]);
        if (d < best[c]) {
            best[c] = d;
            out.representatives[c] = i;
        }
    }
    out.validate();
    return out;
}

} // namespace gws
