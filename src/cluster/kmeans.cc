#include "cluster/kmeans.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "cluster/feature_matrix.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/parallel_for.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace gws {

namespace {

/**
 * Comparison slack of the Hamerly bounds. The maintained bounds drift
 * from the true distances by at most a few dozen ulps per iteration
 * (each update adds one rounded term); skipping only when the bound
 * clears this margin keeps every skip provably safe, so the fast path
 * never diverges from the naive argmin — including on exact ties,
 * which fail the strict test and fall through to a full scan.
 */
constexpr double kBoundSlack = 1e-9;

obs::Counter &g_bounds_skipped =
    obs::metricsRegistry().counter("cluster.kmeans.boundsSkipped");
obs::Counter &g_full_scans =
    obs::metricsRegistry().counter("cluster.kmeans.fullScans");

/** Index of the centroid nearest to a point. */
std::uint32_t
nearestCentroid(const FeatureVector &p,
                const std::vector<FeatureVector> &centroids)
{
    std::uint32_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < centroids.size(); ++c) {
        const double d = p.squaredDistance(centroids[c]);
        if (d < best_d) {
            best_d = d;
            best = static_cast<std::uint32_t>(c);
        }
    }
    return best;
}

/**
 * Naive k-means++ seeding: every round rescans all centroids for the
 * D^2 weights (the O(n k^2) reference the pruned path is verified
 * against).
 */
std::vector<FeatureVector>
seedCentroidsNaive(const std::vector<FeatureVector> &points, std::size_t k,
                   KMeansInit init, Rng &rng)
{
    std::vector<FeatureVector> centroids;
    centroids.reserve(k);
    if (init == KMeansInit::Random) {
        const auto perm = rng.permutation(points.size());
        for (std::size_t i = 0; i < k; ++i)
            centroids.push_back(points[perm[i]]);
        return centroids;
    }
    centroids.push_back(points[rng.index(points.size())]);
    std::vector<double> d2(points.size());
    while (centroids.size() < k) {
        parallelFor(0, points.size(), 0, [&](std::size_t i) {
            d2[i] = points[i].squaredDistance(centroids[0]);
            for (std::size_t c = 1; c < centroids.size(); ++c)
                d2[i] = std::min(d2[i],
                                 points[i].squaredDistance(centroids[c]));
        });
        double total = 0.0;
        for (std::size_t i = 0; i < points.size(); ++i)
            total += d2[i];
        if (total <= 0.0) {
            // All remaining points coincide with a centroid; any pick
            // works and Lloyd will repair duplicates.
            centroids.push_back(points[rng.index(points.size())]);
            continue;
        }
        double target = rng.uniform() * total;
        std::size_t pick = points.size() - 1;
        for (std::size_t i = 0; i < points.size(); ++i) {
            target -= d2[i];
            if (target < 0.0) {
                pick = i;
                break;
            }
        }
        centroids.push_back(points[pick]);
    }
    return centroids;
}

/**
 * Pruned k-means++ seeding: d2[i] carries the running minimum across
 * rounds, so each round compares against the newest centroid only —
 * O(n k) total instead of O(n k^2). min() is exact selection, so the
 * weights, the RNG stream, and every pick match the naive path bit
 * for bit.
 */
std::vector<FeatureVector>
seedCentroidsFast(const FeatureMatrix &matrix,
                  const std::vector<FeatureVector> &points, std::size_t k,
                  KMeansInit init, Rng &rng)
{
    std::vector<FeatureVector> centroids;
    centroids.reserve(k);
    if (init == KMeansInit::Random) {
        const auto perm = rng.permutation(points.size());
        for (std::size_t i = 0; i < k; ++i)
            centroids.push_back(points[perm[i]]);
        return centroids;
    }
    const std::size_t n = points.size();
    centroids.push_back(points[rng.index(n)]);
    std::vector<double> d2(n, std::numeric_limits<double>::infinity());
    std::vector<double> dist(n);
    while (centroids.size() < k) {
        const FeatureVector &newest = centroids.back();
        parallelChunks(0, n, 0, [&](std::size_t b, std::size_t e) {
            matrix.squaredDistanceBatch(b, e, newest, dist.data() + b);
            for (std::size_t i = b; i < e; ++i)
                d2[i] = std::min(d2[i], dist[i]);
        });
        double total = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            total += d2[i];
        if (total <= 0.0) {
            centroids.push_back(points[rng.index(n)]);
            continue;
        }
        double target = rng.uniform() * total;
        std::size_t pick = n - 1;
        for (std::size_t i = 0; i < n; ++i) {
            target -= d2[i];
            if (target < 0.0) {
                pick = i;
                break;
            }
        }
        centroids.push_back(points[pick]);
    }
    return centroids;
}

/** Result of one centroid-update step. */
struct CentroidUpdate
{
    /** True when empty-cluster repair moved any point. */
    bool repaired = false;

    /** Points force-reassigned into empty clusters. */
    std::vector<std::size_t> repairedPoints;
};

/**
 * Recompute centroids from the assignment (chunk-local partial sums
 * combined in chunk-index order, deterministic at any thread count)
 * and repair empty clusters by stealing the point farthest from its
 * centroid. Shared verbatim by the naive and fast paths so their
 * centroid arithmetic is identical by construction.
 */
CentroidUpdate
updateCentroids(const std::vector<FeatureVector> &points, std::size_t k,
                std::vector<std::uint32_t> &assignment,
                std::vector<FeatureVector> &centroids)
{
    struct Accum
    {
        std::vector<FeatureVector> sums;
        std::vector<std::size_t> counts;
    };
    Accum acc = parallelReduce<Accum>(
        0, points.size(), 0,
        Accum{std::vector<FeatureVector>(k),
              std::vector<std::size_t>(k, 0)},
        [&](std::size_t b, std::size_t e) {
            Accum part{std::vector<FeatureVector>(k),
                       std::vector<std::size_t>(k, 0)};
            for (std::size_t i = b; i < e; ++i) {
                const std::uint32_t c = assignment[i];
                for (std::size_t d = 0; d < numFeatureDims; ++d)
                    part.sums[c].at(d) += points[i].at(d);
                ++part.counts[c];
            }
            return part;
        },
        [&](Accum lhs, Accum rhs) {
            for (std::size_t c = 0; c < k; ++c) {
                for (std::size_t d = 0; d < numFeatureDims; ++d)
                    lhs.sums[c].at(d) += rhs.sums[c].at(d);
                lhs.counts[c] += rhs.counts[c];
            }
            return lhs;
        });
    std::vector<FeatureVector> &sums = acc.sums;
    std::vector<std::size_t> &counts = acc.counts;

    CentroidUpdate upd;
    for (std::size_t c = 0; c < k; ++c) {
        if (counts[c] == 0) {
            double worst = -1.0;
            std::size_t worst_i = 0;
            for (std::size_t i = 0; i < points.size(); ++i) {
                if (counts[assignment[i]] <= 1)
                    continue;
                const double d = points[i].squaredDistance(
                    centroids[assignment[i]]);
                if (d > worst) {
                    worst = d;
                    worst_i = i;
                }
            }
            --counts[assignment[worst_i]];
            for (std::size_t d = 0; d < numFeatureDims; ++d)
                sums[assignment[worst_i]].at(d) -= points[worst_i].at(d);
            assignment[worst_i] = static_cast<std::uint32_t>(c);
            counts[c] = 1;
            sums[c] = points[worst_i];
            upd.repaired = true;
            upd.repairedPoints.push_back(worst_i);
        }
        for (std::size_t d = 0; d < numFeatureDims; ++d)
            centroids[c].at(d) =
                sums[c].at(d) / static_cast<double>(counts[c]);
    }
    return upd;
}

struct LloydRun
{
    std::vector<std::uint32_t> assignment;
    std::vector<FeatureVector> centroids;
    double inertia = 0.0;
    std::size_t iterations = 0;
};

/** Final inertia, summed in point order (identical in both paths). */
double
computeInertia(const std::vector<FeatureVector> &points,
               const LloydRun &run)
{
    double inertia = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i)
        inertia += points[i].squaredDistance(
            run.centroids[run.assignment[i]]);
    return inertia;
}

LloydRun
runLloydNaive(const std::vector<FeatureVector> &points, std::size_t k,
              const KMeansConfig &config, std::uint64_t seed)
{
    Rng rng(seed);
    LloydRun run;
    run.centroids = seedCentroidsNaive(points, k, config.init, rng);
    run.assignment.assign(points.size(), 0);

    for (std::size_t iter = 0; iter < config.maxIterations; ++iter) {
        ++run.iterations;
        obs::SpanScope iterSpan("cluster.kmeans.iter");
        // Assignment: each point's nearest centroid is independent of
        // every other point's, so the O(n k) scan fans out; writes go
        // to distinct indices and the only shared state is the
        // monotonic "anything moved" flag.
        std::atomic<bool> changed_flag{false};
        parallelChunks(0, points.size(), 0,
                       [&](std::size_t b, std::size_t e) {
                           bool moved = false;
                           for (std::size_t i = b; i < e; ++i) {
                               const std::uint32_t c = nearestCentroid(
                                   points[i], run.centroids);
                               if (c != run.assignment[i]) {
                                   run.assignment[i] = c;
                                   moved = true;
                               }
                           }
                           if (moved)
                               changed_flag.store(
                                   true, std::memory_order_relaxed);
                           g_full_scans.add(e - b);
                       });
        bool changed = changed_flag.load();

        changed |= updateCentroids(points, k, run.assignment,
                                   run.centroids)
                       .repaired;
        if (!changed)
            break;
    }

    run.inertia = computeInertia(points, run);
    return run;
}

/**
 * Hamerly-bounded Lloyd iterations. Every point carries an upper
 * bound on the distance to its assigned centroid and a lower bound on
 * the distance to every other centroid, maintained across iterations
 * by the centroid movement deltas (triangle inequality). A point
 * whose upper bound clears max(lower bound, half the distance from
 * its centroid to the nearest other centroid) by kBoundSlack provably
 * keeps its assignment and skips the centroid scan entirely; everyone
 * else falls back to a full scan that replays the naive arithmetic in
 * the naive order. Assignments, centroids, iteration counts, and
 * inertia are therefore bit-identical to runLloydNaive.
 */
LloydRun
runLloydFast(const FeatureMatrix &matrix,
             const std::vector<FeatureVector> &points, std::size_t k,
             const KMeansConfig &config, std::uint64_t seed)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    const std::size_t n = points.size();

    Rng rng(seed);
    LloydRun run;
    run.centroids = seedCentroidsFast(matrix, points, k, config.init, rng);
    run.assignment.assign(n, 0);

    // upper = inf forces the first pass through the exact-tighten
    // path, which either proves the initial assignment or escalates
    // to a full scan — no special first iteration needed.
    std::vector<double> upper(n, inf);
    std::vector<double> lower(n, 0.0);
    std::vector<double> delta(k, 0.0);
    double delta_max = 0.0;
    std::vector<double> half_gap(k, inf); // s[c]: half dist to nearest
    std::vector<FeatureVector> old_centroids;

    for (std::size_t iter = 0; iter < config.maxIterations; ++iter) {
        ++run.iterations;
        obs::SpanScope iterSpan("cluster.kmeans.iter");

        // Half-distance from each centroid to its nearest neighbour
        // centroid: any point closer to its centroid than this cannot
        // have a different nearest centroid.
        for (std::size_t c = 0; c < k; ++c) {
            double best = inf;
            for (std::size_t o = 0; o < k; ++o) {
                if (o == c)
                    continue;
                best = std::min(
                    best,
                    run.centroids[c].squaredDistance(run.centroids[o]));
            }
            half_gap[c] = 0.5 * std::sqrt(best);
        }

        FeatureMatrix centroid_matrix(run.centroids);
        std::atomic<bool> changed_flag{false};
        parallelChunks(0, n, 0, [&](std::size_t b, std::size_t e) {
            std::vector<double> dist(k);
            bool moved = false;
            std::uint64_t skipped = 0;
            std::uint64_t scanned = 0;
            for (std::size_t i = b; i < e; ++i) {
                const std::uint32_t a = run.assignment[i];
                double u = upper[i] + delta[a];
                double l = lower[i] - delta_max;
                upper[i] = u;
                lower[i] = l;
                const double m = std::max(l, half_gap[a]);
                if (u + kBoundSlack < m) {
                    ++skipped;
                    continue;
                }
                u = std::sqrt(
                    points[i].squaredDistance(run.centroids[a]));
                upper[i] = u;
                if (u + kBoundSlack < m) {
                    ++skipped;
                    continue;
                }
                ++scanned;
                centroid_matrix.squaredDistanceBatch(0, k, points[i],
                                                     dist.data());
                std::uint32_t best = 0;
                double best_d = inf;
                for (std::size_t c = 0; c < k; ++c) {
                    if (dist[c] < best_d) {
                        best_d = dist[c];
                        best = static_cast<std::uint32_t>(c);
                    }
                }
                double second_d = inf;
                for (std::size_t c = 0; c < k; ++c) {
                    if (c != best)
                        second_d = std::min(second_d, dist[c]);
                }
                if (best != a) {
                    run.assignment[i] = best;
                    moved = true;
                }
                upper[i] = std::sqrt(best_d);
                lower[i] = std::sqrt(second_d);
            }
            if (moved)
                changed_flag.store(true, std::memory_order_relaxed);
            if (skipped)
                g_bounds_skipped.add(skipped);
            if (scanned)
                g_full_scans.add(scanned);
        });
        bool changed = changed_flag.load();

        old_centroids = run.centroids;
        const CentroidUpdate upd =
            updateCentroids(points, k, run.assignment, run.centroids);
        changed |= upd.repaired;
        for (std::size_t i : upd.repairedPoints) {
            // Repair reassigned this point outside the bound
            // bookkeeping; invalidate so the next pass recomputes.
            upper[i] = inf;
            lower[i] = 0.0;
        }

        delta_max = 0.0;
        for (std::size_t c = 0; c < k; ++c) {
            delta[c] = std::sqrt(
                old_centroids[c].squaredDistance(run.centroids[c]));
            delta_max = std::max(delta_max, delta[c]);
        }

        if (!changed)
            break;
    }

    run.inertia = computeInertia(points, run);
    return run;
}

} // namespace

Clustering
kmeans(const std::vector<FeatureVector> &points, const KMeansConfig &config)
{
    obs::SpanScope span("cluster.kmeans");
    GWS_ASSERT(!points.empty(), "kmeans on an empty point set");
    GWS_ASSERT(config.restarts >= 1, "kmeans needs at least one restart");
    GWS_ASSERT(config.maxIterations >= 1, "kmeans needs iterations");
    const std::size_t k = std::min(std::max<std::size_t>(config.k, 1),
                                   points.size());
    const bool naive = config.path == KMeansPath::Naive;

    FeatureMatrix matrix;
    if (!naive)
        matrix = FeatureMatrix(points);

    LloydRun best;
    best.inertia = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < config.restarts; ++r) {
        LloydRun run =
            naive ? runLloydNaive(points, k, config, config.seed + r)
                  : runLloydFast(matrix, points, k, config,
                                 config.seed + r);
        if (run.inertia < best.inertia)
            best = std::move(run);
    }

    Clustering out;
    out.k = k;
    out.assignment = std::move(best.assignment);
    out.centroids = std::move(best.centroids);

    // Representative = member nearest its centroid.
    out.representatives.assign(k, SIZE_MAX);
    std::vector<double> best_d(k, std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < points.size(); ++i) {
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
