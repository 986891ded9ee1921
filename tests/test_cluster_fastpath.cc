/**
 * @file
 * A/B verification of the accelerated clustering core:
 *
 *  - the Hamerly-bounded + pruned-seeding k-means path is bit-identical
 *    to the naive path across seeds, degenerate inputs, and thread
 *    counts;
 *  - the FeatureMatrix batch kernel matches the scalar AoS distance
 *    bit for bit;
 *  - leader clustering with norm rejects matches a verbatim copy of
 *    the pre-matrix reference implementation;
 *  - the GpuSimulator draw-work memo cache returns exactly what a
 *    fresh simulation produces.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <limits>

#include "cluster/feature_matrix.hh"
#include "cluster/kmeans.hh"
#include "cluster/leader.hh"
#include "gpusim/draw_work_cache.hh"
#include "gpusim/gpu_simulator.hh"
#include "obs/metrics.hh"
#include "runtime/runtime.hh"
#include "synth/generator.hh"
#include "util/rng.hh"

namespace gws {
namespace {

/** Current value of the registry counter `name`. */
std::uint64_t
counter(const char *name)
{
    return obs::metricsRegistry().counter(name).value();
}

/** n random points spread over every feature dimension. */
std::vector<FeatureVector>
randomPoints(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<FeatureVector> points(n);
    for (auto &p : points)
        for (std::size_t d = 0; d < numFeatureDims; ++d)
            p.at(d) = rng.uniform(-3.0, 3.0);
    return points;
}

/** Points with heavy duplication (clusters of identical points). */
std::vector<FeatureVector>
duplicatedPoints(std::size_t n, std::size_t distinct, std::uint64_t seed)
{
    const auto base = randomPoints(distinct, seed);
    std::vector<FeatureVector> points(n);
    for (std::size_t i = 0; i < n; ++i)
        points[i] = base[i % distinct];
    return points;
}

/** Exact (bitwise) equality of two clusterings. */
void
expectIdentical(const Clustering &a, const Clustering &b)
{
    ASSERT_EQ(a.k, b.k);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.representatives, b.representatives);
    ASSERT_EQ(a.centroids.size(), b.centroids.size());
    for (std::size_t c = 0; c < a.centroids.size(); ++c)
        EXPECT_EQ(a.centroids[c], b.centroids[c])
            << "centroid " << c << " differs";
}

Clustering
runPath(const std::vector<FeatureVector> &points, KMeansConfig cfg,
        KMeansPath path)
{
    cfg.path = path;
    return kmeans(points, cfg);
}

// ---------------------------------------------------------- feature matrix --

TEST(FeatureMatrix, BatchMatchesScalarBitwise)
{
    const auto points = randomPoints(257, 7);
    const FeatureMatrix matrix(points);
    ASSERT_EQ(matrix.size(), points.size());

    const FeatureVector q = randomPoints(1, 99)[0];
    std::vector<double> dist(points.size());
    matrix.squaredDistanceBatch(0, points.size(), q, dist.data());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(dist[i], points[i].squaredDistance(q)) << "point " << i;
        EXPECT_EQ(matrix.squaredDistanceTo(i, q),
                  points[i].squaredDistance(q));
    }
}

TEST(FeatureMatrix, NormsAndGatherRoundTrip)
{
    const auto points = randomPoints(33, 11);
    const FeatureMatrix matrix(points);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(matrix.point(i), points[i]);
        double n2 = 0.0;
        for (std::size_t d = 0; d < numFeatureDims; ++d)
            n2 += points[i].at(d) * points[i].at(d);
        EXPECT_EQ(matrix.squaredNorm(i), n2);
    }
}

TEST(FeatureMatrix, SubrangeBatch)
{
    const auto points = randomPoints(100, 3);
    const FeatureMatrix matrix(points);
    const FeatureVector q = points[0];
    std::vector<double> dist(40);
    matrix.squaredDistanceBatch(30, 70, q, dist.data());
    for (std::size_t i = 30; i < 70; ++i)
        EXPECT_EQ(dist[i - 30], points[i].squaredDistance(q));
}

// ------------------------------------------------------- kmeans fast == naive

TEST(KMeansFastPath, BitIdenticalAcrossSeeds)
{
    const KMeansInit inits[] = {KMeansInit::PlusPlus, KMeansInit::Random};
    for (std::uint64_t seed : {1ULL, 42ULL, 777ULL}) {
        const auto points = randomPoints(400, seed);
        for (KMeansInit init : inits) {
            KMeansConfig cfg;
            cfg.k = 16;
            cfg.restarts = 2;
            cfg.seed = seed * 13 + 5;
            cfg.init = init;
            expectIdentical(runPath(points, cfg, KMeansPath::Naive),
                            runPath(points, cfg, KMeansPath::Fast));
        }
    }
}

TEST(KMeansFastPath, BitIdenticalOnDegenerateInputs)
{
    // k = 1, k = n, and heavy duplication (exact distance ties).
    const auto points = randomPoints(60, 21);
    for (std::size_t k : {std::size_t{1}, points.size()}) {
        KMeansConfig cfg;
        cfg.k = k;
        expectIdentical(runPath(points, cfg, KMeansPath::Naive),
                        runPath(points, cfg, KMeansPath::Fast));
    }

    const auto dupes = duplicatedPoints(120, 5, 31);
    for (std::size_t k : {std::size_t{3}, std::size_t{8}}) {
        KMeansConfig cfg;
        cfg.k = k;
        expectIdentical(runPath(dupes, cfg, KMeansPath::Naive),
                        runPath(dupes, cfg, KMeansPath::Fast));
    }

    // Single point, and all points identical.
    const auto one = randomPoints(1, 9);
    KMeansConfig cfg1;
    cfg1.k = 4;
    expectIdentical(runPath(one, cfg1, KMeansPath::Naive),
                    runPath(one, cfg1, KMeansPath::Fast));

    const auto same = duplicatedPoints(50, 1, 17);
    KMeansConfig cfg2;
    cfg2.k = 6;
    expectIdentical(runPath(same, cfg2, KMeansPath::Naive),
                    runPath(same, cfg2, KMeansPath::Fast));
}

TEST(KMeansFastPath, BitIdenticalAcrossThreadCounts)
{
    const auto points = randomPoints(500, 5);
    KMeansConfig cfg;
    cfg.k = 12;
    cfg.restarts = 2;

    const RuntimeConfig base = runtimeConfig();
    Clustering reference;
    bool first = true;
    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        RuntimeConfig rc = base;
        rc.threads = threads;
        setRuntimeConfig(rc);
        const Clustering naive =
            runPath(points, cfg, KMeansPath::Naive);
        const Clustering fast = runPath(points, cfg, KMeansPath::Fast);
        expectIdentical(naive, fast);
        if (first) {
            reference = fast;
            first = false;
        } else {
            expectIdentical(reference, fast);
        }
    }
    setRuntimeConfig(base);
}

TEST(KMeansFastPath, BoundsActuallySkipScans)
{
    // Well-separated blobs converge after few moves: the bulk of the
    // later assignment decisions must come from bound skips.
    auto points = randomPoints(2000, 15);
    for (std::size_t i = 0; i < points.size(); ++i)
        points[i].at(0) += static_cast<double>(i % 4) * 50.0;

    obs::metricsRegistry().resetPrefix("cluster.kmeans.");
    KMeansConfig cfg;
    cfg.k = 4;
    cfg.restarts = 1;
    runPath(points, cfg, KMeansPath::Fast);
    const std::uint64_t skipped = counter("cluster.kmeans.boundsSkipped");
    const std::uint64_t scanned = counter("cluster.kmeans.fullScans");
    EXPECT_GT(skipped, 0u);
    EXPECT_GT(skipped, scanned);
}

// ------------------------------------------------------------------ leader --

/** Verbatim copy of the pre-FeatureMatrix leader implementation. */
Clustering
leaderReference(const std::vector<FeatureVector> &points,
                const LeaderConfig &config)
{
    const double r2 = config.radius * config.radius;
    Clustering out;
    std::vector<std::size_t> leader_index;
    out.assignment.assign(points.size(), 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
        double best_d = std::numeric_limits<double>::infinity();
        std::size_t best_c = SIZE_MAX;
        for (std::size_t c = 0; c < leader_index.size(); ++c) {
            const double d =
                points[i].squaredDistance(points[leader_index[c]]);
            if (d < best_d) {
                best_d = d;
                best_c = c;
            }
        }
        if (best_c != SIZE_MAX && best_d <= r2) {
            out.assignment[i] = static_cast<std::uint32_t>(best_c);
        } else {
            out.assignment[i] =
                static_cast<std::uint32_t>(leader_index.size());
            leader_index.push_back(i);
        }
    }
    out.k = leader_index.size();

    auto recompute_centroids = [&]() {
        out.centroids.assign(out.k, FeatureVector());
        std::vector<std::size_t> counts(out.k, 0);
        for (std::size_t i = 0; i < points.size(); ++i) {
            const std::uint32_t c = out.assignment[i];
            for (std::size_t d = 0; d < numFeatureDims; ++d)
                out.centroids[c].at(d) += points[i].at(d);
            ++counts[c];
        }
        for (std::size_t c = 0; c < out.k; ++c)
            for (std::size_t d = 0; d < numFeatureDims; ++d)
                out.centroids[c].at(d) /= static_cast<double>(counts[c]);
    };
    recompute_centroids();

    if (config.refine) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            double best_d = std::numeric_limits<double>::infinity();
            std::uint32_t best_c = out.assignment[i];
            for (std::size_t c = 0; c < out.k; ++c) {
                const double d =
                    points[i].squaredDistance(out.centroids[c]);
                if (d < best_d) {
                    best_d = d;
                    best_c = static_cast<std::uint32_t>(c);
                }
            }
            out.assignment[i] = best_c;
        }
        for (std::size_t c = 0; c < out.k; ++c)
            out.assignment[leader_index[c]] =
                static_cast<std::uint32_t>(c);
        recompute_centroids();
    }

    out.representatives.assign(out.k, SIZE_MAX);
    std::vector<double> best_d(out.k,
                               std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::uint32_t c = out.assignment[i];
        const double d = points[i].squaredDistance(out.centroids[c]);
        if (d < best_d[c]) {
            best_d[c] = d;
            out.representatives[c] = i;
        }
    }
    return out;
}

TEST(LeaderFastPath, MatchesReferenceImplementation)
{
    for (std::uint64_t seed : {2ULL, 19ULL, 101ULL}) {
        const auto points = randomPoints(600, seed);
        for (double radius : {0.5, 2.0, 6.0}) {
            LeaderConfig cfg;
            cfg.radius = radius;
            expectIdentical(leaderReference(points, cfg),
                            leaderCluster(points, cfg));
            cfg.refine = false;
            expectIdentical(leaderReference(points, cfg),
                            leaderCluster(points, cfg));
        }
    }
}

TEST(LeaderFastPath, NormRejectsFire)
{
    const auto points = randomPoints(800, 23);
    obs::metricsRegistry().resetPrefix("cluster.leader.");
    LeaderConfig cfg;
    cfg.radius = 0.5;
    leaderCluster(points, cfg);
    EXPECT_GT(counter("cluster.leader.normRejects"), 0u);
}

TEST(LeaderFastPath, FirstFitModeIsValidAndCheaper)
{
    const auto points = randomPoints(500, 29);
    LeaderConfig nearest;
    nearest.radius = 2.0;
    LeaderConfig first_fit = nearest;
    first_fit.nearestLeader = false;

    const Clustering a = leaderCluster(points, nearest);
    const Clustering b = leaderCluster(points, first_fit);
    a.validate();
    b.validate();
    EXPECT_EQ(a.items(), b.items());
    // First-fit never founds fewer clusters than nearest-fit on the
    // same stream (joining early can only leave later gaps), but both
    // must cover every point within radius of some leader.
    EXPECT_GE(b.k, 1u);
}

// -------------------------------------------------------- draw-work memo --

Trace
cacheTrace()
{
    GameProfile p = builtinProfile("shock1", SuiteScale::Ci);
    p.segments = 2;
    p.segmentFramesMin = 3;
    p.segmentFramesMax = 4;
    p.drawsPerFrame = 40.0;
    return GameGenerator(p).generate();
}

/** Exact (bitwise) equality of two trace costs. */
void
expectSameCost(const TraceCost &a, const TraceCost &b)
{
    EXPECT_EQ(a.totalNs, b.totalNs);
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t f = 0; f < a.frames.size(); ++f) {
        EXPECT_EQ(a.frames[f].totalNs, b.frames[f].totalNs);
        EXPECT_EQ(a.frames[f].drawNs, b.frames[f].drawNs);
    }
}

TEST(DrawWorkCache, HitsEqualFreshSimulation)
{
    const Trace t = cacheTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));

    drawWorkCacheClear();
    const TraceCost fresh = sim.simulateTrace(t);
    const std::uint64_t hits_after_fresh = counter("gpusim.drawCache.hits");

    const TraceCost memo = sim.simulateTrace(t);

    // Second run is served by the cache…
    EXPECT_GT(counter("gpusim.drawCache.hits"), hits_after_fresh);
    // …and is bit-identical to the fresh simulation.
    expectSameCost(fresh, memo);
}

TEST(DrawWorkCache, PerDrawCostsSurviveClearAndRefill)
{
    const Trace t = cacheTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const DrawCall &draw = t.frame(0).draws()[0];

    drawWorkCacheClear();
    const DrawCost cold = sim.simulateDraw(t, draw);
    const DrawCost warm = sim.simulateDraw(t, draw);
    EXPECT_EQ(cold.totalNs, warm.totalNs);
    EXPECT_EQ(cold.stageNs, warm.stageNs);
    EXPECT_EQ(cold.bottleneck, warm.bottleneck);

    drawWorkCacheClear();
    const DrawCost refilled = sim.simulateDraw(t, draw);
    EXPECT_EQ(cold.totalNs, refilled.totalNs);
    EXPECT_EQ(cold.stageNs, refilled.stageNs);
}

TEST(DrawWorkCache, FullShardsEvictInsteadOfDroppingInserts)
{
    const Trace t = cacheTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    drawWorkCacheClear();
    const TraceCost fresh = sim.simulateTrace(t);

    // More distinct keys than the cache holds, inserted from four
    // threads, so shards fill and flush concurrently.
    const auto syntheticKey = [](std::uint64_t i) {
        return DrawWorkKey{SplitMix64(i).next(), i};
    };
    constexpr std::size_t inserts = 300000;
    std::atomic<std::size_t> peak{0};
    const RuntimeConfig base = runtimeConfig();
    RuntimeConfig rc = base;
    rc.threads = 4;
    setRuntimeConfig(rc);
    parallelFor(0, inserts, 0, [&](std::size_t i) {
        DrawWork work;
        work.vertices = static_cast<double>(i);
        drawWorkCacheInsert(syntheticKey(i), work);
        const std::size_t size = drawWorkCacheSize();
        std::size_t seen = peak.load();
        while (size > seen && !peak.compare_exchange_weak(seen, size)) {
        }
    });
    setRuntimeConfig(base);
    EXPECT_LE(peak.load(), drawWorkCacheCapacity);
    EXPECT_GT(peak.load(), drawWorkCacheCapacity / 2);

    // A full cache still takes new entries (by flushing a shard).
    DrawWork last;
    last.vertices = static_cast<double>(inserts);
    drawWorkCacheInsert(syntheticKey(inserts), last);
    EXPECT_LE(drawWorkCacheSize(), drawWorkCacheCapacity);
    DrawWork found;
    ASSERT_TRUE(drawWorkCacheLookup(syntheticKey(inserts), &found));
    EXPECT_EQ(found.vertices, last.vertices);

    // Pricing through the overflowing cache (misses flush shards, the
    // second run mixes hits and misses) changes no bit.
    expectSameCost(fresh, sim.simulateTrace(t));
    expectSameCost(fresh, sim.simulateTrace(t));
    drawWorkCacheClear();
}

TEST(DrawWorkCache, CapacityConfigsShareClockChangesOnly)
{
    const GpuConfig base = makeGpuPreset("baseline");
    const GpuConfig clocked = base.withCoreClockScale(1.5);
    EXPECT_EQ(capacityConfigHash(base), capacityConfigHash(clocked));

    GpuConfig bigger = base;
    bigger.l2.sizeBytes *= 2;
    EXPECT_NE(capacityConfigHash(base), capacityConfigHash(bigger));
}

TEST(DrawWorkCache, DistinctDrawsGetDistinctKeys)
{
    const Trace t = cacheTrace();
    const std::uint64_t cap =
        capacityConfigHash(makeGpuPreset("baseline"));
    const auto &draws = t.frame(0).draws();
    ASSERT_GE(draws.size(), 2u);
    const DrawWorkKey a = drawWorkKey(t, draws[0], cap);
    const DrawWorkKey b = drawWorkKey(t, draws[1], cap);
    EXPECT_FALSE(a == b);
    // Same draw, same key (the memo contract).
    EXPECT_TRUE(a == drawWorkKey(t, draws[0], cap));
}

} // namespace
} // namespace gws
