#include "cluster/leader.hh"

#include <cmath>
#include <limits>

#include "cluster/feature_matrix.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/parallel_for.hh"
#include "util/logging.hh"

namespace gws {

namespace {

/**
 * Slack of the norm-based reject: a candidate is only discarded when
 * its triangle-inequality lower bound clears the threshold by this
 * margin, so the few-ulp rounding of the cached norms can never
 * discard a candidate the exact distance would have kept.
 */
constexpr double kNormRejectSlack = 1e-9;

obs::Counter &g_norm_rejects =
    obs::metricsRegistry().counter("cluster.leader.normRejects");
obs::Counter &g_distances =
    obs::metricsRegistry().counter("cluster.leader.distances");

} // namespace

Clustering
leaderCluster(const std::vector<FeatureVector> &points,
              const LeaderConfig &config)
{
    GWS_ASSERT(!points.empty(), "leader clustering on an empty point set");
    GWS_ASSERT(config.radius >= 0.0, "negative radius: ", config.radius);
    obs::SpanScope span("cluster.leader");
    const double r2 = config.radius * config.radius;
    const std::size_t n = points.size();

    const FeatureMatrix matrix(points);

    Clustering out;
    std::vector<std::size_t> leader_index;  // cluster -> founding item
    std::vector<double> leader_norm;        // cluster -> founder norm
    out.assignment.assign(n, 0);

    // Pass 1: greedy leader assignment in submission order. A leader
    // whose norm differs from the point's by more than the radius (or
    // the current best distance) cannot be within it — d(x, l) >=
    // abs(norm(x) - norm(l)) — so most candidates are rejected from the cached
    // norms without touching their coordinates.
    std::uint64_t norm_rejects = 0;
    std::uint64_t full_distances = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double my_norm = matrix.norm(i);
        double best_d = std::numeric_limits<double>::infinity();
        std::size_t best_c = SIZE_MAX;
        for (std::size_t c = 0; c < leader_index.size(); ++c) {
            const double gap = my_norm - leader_norm[c];
            const double reject_at =
                config.nearestLeader ? std::min(r2, best_d) : r2;
            if (gap * gap > reject_at + kNormRejectSlack) {
                ++norm_rejects;
                continue;
            }
            ++full_distances;
            const double d =
                matrix.squaredDistanceTo(leader_index[c],
                                         points[i]);
            if (d < best_d) {
                best_d = d;
                best_c = c;
            }
            if (!config.nearestLeader && best_d <= r2)
                break; // first leader within the radius wins
        }
        if (best_c != SIZE_MAX && best_d <= r2) {
            out.assignment[i] = static_cast<std::uint32_t>(best_c);
        } else {
            out.assignment[i] =
                static_cast<std::uint32_t>(leader_index.size());
            leader_index.push_back(i);
            leader_norm.push_back(my_norm);
        }
    }
    out.k = leader_index.size();
    g_norm_rejects.add(norm_rejects);
    g_distances.add(full_distances);

    auto recompute_centroids = [&]() {
        out.centroids.assign(out.k, FeatureVector());
        std::vector<std::size_t> counts(out.k, 0);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t c = out.assignment[i];
            for (std::size_t d = 0; d < numFeatureDims; ++d)
                out.centroids[c].at(d) += points[i].at(d);
            ++counts[c];
        }
        for (std::size_t c = 0; c < out.k; ++c) {
            GWS_ASSERT(counts[c] > 0, "leader cluster ", c, " empty");
            for (std::size_t d = 0; d < numFeatureDims; ++d)
                out.centroids[c].at(d) /= static_cast<double>(counts[c]);
        }
    };
    recompute_centroids();

    if (config.refine) {
        // Pass 2: reassign to the nearest centroid, but never let a
        // founding leader leave its own cluster (keeps clusters
        // non-empty without a repair loop). Each point scans the
        // centroid matrix with the batch kernel; writes are index-
        // addressed, so the pass parallelizes bit-identically.
        const FeatureMatrix centroid_matrix(out.centroids);
        const std::size_t k = out.k;
        parallelChunks(0, n, 0, [&](std::size_t b, std::size_t e) {
            std::vector<double> dist(k);
            for (std::size_t i = b; i < e; ++i) {
                centroid_matrix.squaredDistanceBatch(0, k, points[i],
                                                     dist.data());
                double best_d =
                    std::numeric_limits<double>::infinity();
                std::uint32_t best_c = out.assignment[i];
                for (std::size_t c = 0; c < k; ++c) {
                    if (dist[c] < best_d) {
                        best_d = dist[c];
                        best_c = static_cast<std::uint32_t>(c);
                    }
                }
                out.assignment[i] = best_c;
            }
        });
        for (std::size_t c = 0; c < out.k; ++c)
            out.assignment[leader_index[c]] =
                static_cast<std::uint32_t>(c);
        recompute_centroids();
    }

    // Representatives: member nearest the final centroid.
    out.representatives.assign(out.k, SIZE_MAX);
    std::vector<double> best_d(out.k,
                               std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t c = out.assignment[i];
        const double d = points[i].squaredDistance(out.centroids[c]);
        if (d < best_d[c]) {
            best_d[c] = d;
            out.representatives[c] = i;
        }
    }
    out.validate();
    return out;
}

} // namespace gws
