/**
 * @file
 * Tests of the clustering library: the Clustering container, k-means
 * invariants (property-tested over sizes and seeds), leader
 * clustering, BIC scoring, k selection, the tie order of the
 * agglomerative and graph-partitioning families, and the quality
 * metrics.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "cluster/agglomerative.hh"
#include "cluster/bic.hh"
#include "cluster/graph_partition.hh"
#include "cluster/kmeans.hh"
#include "cluster/kselect.hh"
#include "cluster/leader.hh"
#include "cluster/quality.hh"
#include "util/rng.hh"

namespace gws {
namespace {

/** n points around k well-separated centers in 2 active dimensions. */
std::vector<FeatureVector>
blobPoints(std::size_t n, std::size_t centers, double spread,
           std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<FeatureVector> points;
    for (std::size_t i = 0; i < n; ++i) {
        const auto c = static_cast<double>(i % centers);
        FeatureVector v;
        v[FeatureDim::LogPixels] = 10.0 * c + rng.normal(0.0, spread);
        v[FeatureDim::LogVertices] =
            -10.0 * c + rng.normal(0.0, spread);
        points.push_back(v);
    }
    return points;
}

// -------------------------------------------------------------- container --

TEST(Clustering, EfficiencyFormula)
{
    Clustering c;
    c.k = 3;
    c.assignment = {0, 0, 1, 1, 2, 2, 0, 1, 2, 0};
    EXPECT_DOUBLE_EQ(c.efficiency(), 1.0 - 3.0 / 10.0);
}

TEST(Clustering, MembersAndSizes)
{
    Clustering c;
    c.k = 2;
    c.assignment = {0, 1, 0, 1, 1};
    const auto m0 = c.members(0);
    EXPECT_EQ(m0, (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(c.sizes(), (std::vector<std::size_t>{2, 3}));
}

TEST(Clustering, ValidateCatchesBadRep)
{
    Clustering c;
    c.k = 1;
    c.assignment = {0, 0};
    c.centroids.assign(1, FeatureVector());
    c.representatives = {5}; // out of range
    EXPECT_DEATH(c.validate(), "out of range");
}

// ----------------------------------------------------------------- kmeans --

struct KMeansCase
{
    std::size_t n;
    std::size_t k;
    std::uint64_t seed;
    KMeansInit init;
};

class KMeansInvariants : public ::testing::TestWithParam<KMeansCase>
{
};

TEST_P(KMeansInvariants, StructureAndOptimality)
{
    const auto &c = GetParam();
    const auto points = blobPoints(c.n, 4, 0.5, c.seed);
    KMeansConfig cfg;
    cfg.k = c.k;
    cfg.seed = c.seed;
    cfg.init = c.init;
    const Clustering result = kmeans(points, cfg);
    result.validate();
    EXPECT_EQ(result.items(), c.n);
    EXPECT_EQ(result.k, std::min(c.k, c.n));

    // Lloyd fixed point: every point is assigned to its nearest
    // centroid, and each centroid is the mean of its members.
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double own = points[i].squaredDistance(
            result.centroids[result.assignment[i]]);
        for (std::size_t cl = 0; cl < result.k; ++cl)
            ASSERT_GE(points[i].squaredDistance(result.centroids[cl]),
                      own - 1e-9);
    }
    for (std::size_t cl = 0; cl < result.k; ++cl) {
        const auto members = result.members(cl);
        FeatureVector mean;
        for (std::size_t m : members) {
            for (std::size_t d = 0; d < numFeatureDims; ++d)
                mean.at(d) += points[m].at(d);
        }
        for (std::size_t d = 0; d < numFeatureDims; ++d) {
            mean.at(d) /= static_cast<double>(members.size());
            ASSERT_NEAR(mean.at(d), result.centroids[cl].at(d), 1e-9);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SizesSeedsInits, KMeansInvariants,
    ::testing::Values(KMeansCase{40, 4, 1, KMeansInit::PlusPlus},
                      KMeansCase{40, 4, 2, KMeansInit::Random},
                      KMeansCase{100, 8, 3, KMeansInit::PlusPlus},
                      KMeansCase{7, 10, 4, KMeansInit::PlusPlus},
                      KMeansCase{1, 1, 5, KMeansInit::PlusPlus},
                      KMeansCase{64, 1, 6, KMeansInit::Random},
                      KMeansCase{200, 16, 7, KMeansInit::PlusPlus},
                      KMeansCase{50, 50, 8, KMeansInit::Random}));

TEST(KMeans, RecoversWellSeparatedBlobs)
{
    const auto points = blobPoints(120, 4, 0.2, 99);
    KMeansConfig cfg;
    cfg.k = 4;
    cfg.restarts = 3;
    const Clustering c = kmeans(points, cfg);
    // All points of one blob (i % 4) must share a cluster.
    for (std::size_t i = 0; i < points.size(); ++i)
        ASSERT_EQ(c.assignment[i], c.assignment[i % 4]);
}

TEST(KMeans, DeterministicForSameSeed)
{
    const auto points = blobPoints(60, 3, 1.0, 11);
    KMeansConfig cfg;
    cfg.k = 5;
    cfg.seed = 42;
    const Clustering a = kmeans(points, cfg);
    const Clustering b = kmeans(points, cfg);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.representatives, b.representatives);
}

TEST(KMeans, DuplicatePointsDoNotCrash)
{
    std::vector<FeatureVector> points(20); // all identical zeros
    KMeansConfig cfg;
    cfg.k = 4;
    const Clustering c = kmeans(points, cfg);
    c.validate();
    EXPECT_EQ(c.items(), 20u);
}

TEST(KMeans, MoreRestartsNeverWorse)
{
    const auto points = blobPoints(150, 6, 2.0, 5);
    KMeansConfig one;
    one.k = 6;
    one.restarts = 1;
    KMeansConfig many = one;
    many.restarts = 5;
    const double i1 = kmeans(points, one).inertia(points);
    const double i5 = kmeans(points, many).inertia(points);
    EXPECT_LE(i5, i1 + 1e-9);
}

// ----------------------------------------------------------------- leader --

TEST(Leader, ZeroRadiusMakesSingletonsPerDistinctPoint)
{
    auto points = blobPoints(12, 3, 0.0, 1); // 3 distinct locations
    LeaderConfig cfg;
    cfg.radius = 0.0;
    const Clustering c = leaderCluster(points, cfg);
    c.validate();
    EXPECT_EQ(c.k, 3u);
}

TEST(Leader, HugeRadiusMakesOneCluster)
{
    const auto points = blobPoints(50, 4, 1.0, 2);
    LeaderConfig cfg;
    cfg.radius = 1e6;
    const Clustering c = leaderCluster(points, cfg);
    EXPECT_EQ(c.k, 1u);
    EXPECT_DOUBLE_EQ(c.efficiency(), 1.0 - 1.0 / 50.0);
}

TEST(Leader, SeparatedBlobsYieldOneClusterEach)
{
    const auto points = blobPoints(80, 4, 0.1, 3);
    LeaderConfig cfg;
    cfg.radius = 3.0; // far below the 10+ blob separation
    const Clustering c = leaderCluster(points, cfg);
    EXPECT_EQ(c.k, 4u);
    for (std::size_t i = 0; i < points.size(); ++i)
        ASSERT_EQ(c.assignment[i], c.assignment[i % 4]);
}

TEST(Leader, SmallerRadiusNeverFewerClusters)
{
    const auto points = blobPoints(100, 5, 1.5, 4);
    LeaderConfig wide, narrow;
    wide.radius = 4.0;
    narrow.radius = 1.0;
    EXPECT_GE(leaderCluster(points, narrow).k,
              leaderCluster(points, wide).k);
}

TEST(Leader, RefinementNeverIncreasesInertia)
{
    const auto points = blobPoints(90, 4, 2.5, 6);
    LeaderConfig raw, refined;
    raw.radius = refined.radius = 2.0;
    raw.refine = false;
    refined.refine = true;
    const double i_raw = leaderCluster(points, raw).inertia(points);
    const double i_ref = leaderCluster(points, refined).inertia(points);
    EXPECT_LE(i_ref, i_raw + 1e-9);
}

TEST(Leader, DeterministicAndOrderDependent)
{
    const auto points = blobPoints(40, 3, 1.0, 7);
    LeaderConfig cfg;
    cfg.radius = 1.0;
    const Clustering a = leaderCluster(points, cfg);
    const Clustering b = leaderCluster(points, cfg);
    EXPECT_EQ(a.assignment, b.assignment);
}

TEST(Leader, SinglePoint)
{
    const Clustering c = leaderCluster({FeatureVector()}, LeaderConfig{});
    EXPECT_EQ(c.k, 1u);
    EXPECT_EQ(c.representatives[0], 0u);
}

// ---------------------------------------------------------- agglomerative --

TEST(Agglomerative, TargetKProducesExactlyK)
{
    const auto points = blobPoints(60, 4, 0.8, 21);
    AgglomerativeConfig cfg;
    cfg.targetK = 7;
    const Clustering c = agglomerativeCluster(points, cfg);
    c.validate();
    EXPECT_EQ(c.k, 7u);
}

TEST(Agglomerative, ThresholdRecoversSeparatedBlobs)
{
    const auto points = blobPoints(80, 4, 0.2, 22);
    AgglomerativeConfig cfg;
    cfg.distanceThreshold = 4.0; // way below the ~14 blob separation
    const Clustering c = agglomerativeCluster(points, cfg);
    EXPECT_EQ(c.k, 4u);
    for (std::size_t i = 0; i < points.size(); ++i)
        ASSERT_EQ(c.assignment[i], c.assignment[i % 4]);
}

TEST(Agglomerative, HugeThresholdMergesEverything)
{
    const auto points = blobPoints(30, 3, 1.0, 23);
    AgglomerativeConfig cfg;
    cfg.distanceThreshold = 1e9;
    EXPECT_EQ(agglomerativeCluster(points, cfg).k, 1u);
}

TEST(Agglomerative, ZeroThresholdKeepsDistinctPointsApart)
{
    const auto points = blobPoints(12, 3, 0.0, 24); // 3 distinct spots
    AgglomerativeConfig cfg;
    cfg.distanceThreshold = 0.0;
    const Clustering c = agglomerativeCluster(points, cfg);
    // Coincident points merge at distance 0; distinct ones stay apart.
    EXPECT_EQ(c.k, 3u);
}

TEST(Agglomerative, OrderIndependent)
{
    // Reversing the input must yield the same partition (up to
    // relabeling) — the property leader clustering lacks.
    const auto points = blobPoints(40, 4, 0.5, 25);
    std::vector<FeatureVector> reversed(points.rbegin(), points.rend());
    AgglomerativeConfig cfg;
    cfg.distanceThreshold = 3.0;
    const Clustering a = agglomerativeCluster(points, cfg);
    const Clustering b = agglomerativeCluster(reversed, cfg);
    ASSERT_EQ(a.k, b.k);
    const std::size_t n = points.size();
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            ASSERT_EQ(a.assignment[i] == a.assignment[j],
                      b.assignment[n - 1 - i] == b.assignment[n - 1 - j])
                << "pair (" << i << "," << j << ")";
        }
    }
}

TEST(Agglomerative, SinglePoint)
{
    const Clustering c =
        agglomerativeCluster({FeatureVector()}, AgglomerativeConfig{});
    EXPECT_EQ(c.k, 1u);
    EXPECT_EQ(c.representatives[0], 0u);
}

TEST(Agglomerative, MatchesKMeansQualityOnBlobs)
{
    // On well-separated blobs, hierarchical and k-means agree.
    const auto points = blobPoints(100, 5, 0.3, 26);
    AgglomerativeConfig ac;
    ac.targetK = 5;
    KMeansConfig kc;
    kc.k = 5;
    kc.restarts = 3;
    const double ia = agglomerativeCluster(points, ac).inertia(points);
    const double ik = kmeans(points, kc).inertia(points);
    EXPECT_NEAR(ia, ik, ik * 0.05 + 1e-9);
}

// -------------------------------------------------------------- tie order --

/**
 * 300 points on a 5 x 4 x 3 lattice with spacings 0.5, 0.5 and 0.25,
 * all exact in binary, so every distance is exact. Each of the 60
 * sites holds five duplicates, and every site has lattice neighbours
 * at exactly equal distances. Agglomerative's heap pops long runs of
 * equal distances, and the k-NN scan of the graph-partitioning family
 * breaks distance ties by index. Those are the two places where a
 * faster rewrite could reorder a tie and pass every other test.
 */
std::vector<FeatureVector>
tiedPoints()
{
    std::vector<FeatureVector> points;
    for (std::size_t i = 0; i < 300; ++i) {
        FeatureVector v;
        v[FeatureDim::LogPixels] = 0.5 * static_cast<double>(i % 5);
        v[FeatureDim::LogVertices] = 0.5 * static_cast<double>(i % 4);
        v[FeatureDim::LogTexSamples] = 0.25 * static_cast<double>(i % 3);
        points.push_back(v);
    }
    return points;
}

/** FNV-1a 64 over k, the assignment, representatives, centroid bits. */
std::uint64_t
clusteringDigest(const Clustering &c)
{
    std::uint64_t h = 14695981039346656037ull;
    const auto add = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    add(c.k);
    for (std::uint32_t a : c.assignment)
        add(a);
    for (std::size_t r : c.representatives)
        add(r);
    for (const FeatureVector &v : c.centroids)
        for (double x : v.raw())
            add(std::bit_cast<std::uint64_t>(x));
    return h;
}

// The golden k and digests below were computed with the heap of 40-byte
// candidates and the partial_sort k-NN selection these families used
// before their rewrites; the rewrites must reproduce them bit for bit.

TEST(TieOrder, AgglomerativeThresholdMatchesGolden)
{
    const Clustering c =
        agglomerativeCluster(tiedPoints(), AgglomerativeConfig{});
    EXPECT_EQ(c.k, 4u);
    EXPECT_EQ(clusteringDigest(c), 0x95e4a7cdadfe51c0ull);
}

TEST(TieOrder, AgglomerativeTargetKMatchesGolden)
{
    AgglomerativeConfig cfg;
    cfg.targetK = 12;
    const Clustering c = agglomerativeCluster(tiedPoints(), cfg);
    EXPECT_EQ(c.k, 12u);
    EXPECT_EQ(clusteringDigest(c), 0x965ea58225fb099eull);
}

TEST(TieOrder, GraphPartitionMatchesGolden)
{
    const Clustering c =
        graphPartitionCluster(tiedPoints(), GraphPartitionConfig{});
    EXPECT_EQ(c.k, 105u);
    EXPECT_EQ(clusteringDigest(c), 0x4d35b026f291b76bull);
}

TEST(TieOrder, GraphPartitionFewNeighborsMatchesGolden)
{
    // Three neighbours out of four duplicates at distance 0: the
    // selection keeps the three lowest indices.
    GraphPartitionConfig cfg;
    cfg.targetK = 70;
    cfg.neighbors = 3;
    const Clustering c = graphPartitionCluster(tiedPoints(), cfg);
    EXPECT_EQ(c.k, 70u);
    EXPECT_EQ(clusteringDigest(c), 0xc5d53ba3462a4b1aull);
}

// -------------------------------------------------------------------- BIC --

TEST(Bic, KneeSitsAtTrueK)
{
    // The BIC curve over k is quasi-monotone (which is exactly why
    // SimPoint picks the smallest k reaching a fraction of the best
    // score rather than the argmax); its *knee* must sit at the true
    // blob count: huge gains up to k=4, marginal gains after.
    const auto points = blobPoints(200, 4, 0.3, 10);
    std::vector<double> score(10, 0.0);
    for (std::size_t k = 1; k <= 9; ++k) {
        KMeansConfig cfg;
        cfg.k = k;
        cfg.restarts = 3;
        score[k] = bicScore(kmeans(points, cfg), points);
    }
    const double gain_to_true = score[4] - score[3];
    const double gain_past_true = score[5] - score[4];
    EXPECT_GT(gain_to_true, 10.0 * std::max(gain_past_true, 1.0));
}

TEST(Bic, PenalizesSaturatedOverfitting)
{
    // At k = n the likelihood saturates and only the parameter
    // penalty remains: a sane clustering must score higher.
    const auto points = blobPoints(60, 2, 0.3, 11);
    KMeansConfig c2, cn;
    c2.k = 2;
    cn.k = 60;
    EXPECT_GT(bicScore(kmeans(points, c2), points),
              bicScore(kmeans(points, cn), points));
}

TEST(Bic, EmptyPointsIsMinusInfinity)
{
    Clustering c;
    EXPECT_EQ(bicScore(c, {}),
              -std::numeric_limits<double>::infinity());
}

// ----------------------------------------------------------------- kselect --

TEST(KSelect, FindsTrueKWithinOne)
{
    const auto points = blobPoints(160, 4, 0.3, 12);
    KSelectConfig cfg;
    cfg.maxK = 10;
    cfg.base.restarts = 3;
    const KSelectResult r = selectK(points, cfg);
    EXPECT_GE(r.chosenK, 3u);
    EXPECT_LE(r.chosenK, 5u);
    EXPECT_EQ(r.clustering.k, r.chosenK);
    EXPECT_EQ(r.triedK.size(), r.bicByK.size());
    r.clustering.validate();
}

TEST(KSelect, StepSkipsKs)
{
    const auto points = blobPoints(60, 3, 0.5, 13);
    KSelectConfig cfg;
    cfg.maxK = 9;
    cfg.step = 2;
    const KSelectResult r = selectK(points, cfg);
    EXPECT_EQ(r.triedK, (std::vector<std::size_t>{1, 3, 5, 7, 9}));
}

TEST(KSelect, LowerFractionPicksSmallerOrEqualK)
{
    const auto points = blobPoints(100, 5, 1.2, 14);
    KSelectConfig strict, loose;
    strict.maxK = loose.maxK = 12;
    strict.bicFraction = 0.95;
    loose.bicFraction = 0.5;
    EXPECT_LE(selectK(points, loose).chosenK,
              selectK(points, strict).chosenK);
}

// ----------------------------------------------------------------- quality --

Clustering
twoClusterFixture()
{
    Clustering c;
    c.k = 2;
    c.assignment = {0, 0, 0, 1, 1};
    c.representatives = {0, 3};
    c.centroids.assign(2, FeatureVector());
    return c;
}

TEST(Quality, UniformPredictionErrors)
{
    const Clustering c = twoClusterFixture();
    // Cluster 0: rep cost 10, members {10, 12, 8} -> errors 0, 2/12, 2/8.
    // Cluster 1: rep cost 100, members {100, 100} -> error 0.
    const std::vector<double> costs{10, 12, 8, 100, 100};
    const ClusterQuality q = assessClusterQuality(c, costs);
    ASSERT_EQ(q.intraError.size(), 2u);
    EXPECT_NEAR(q.intraError[0], (0.0 + 2.0 / 12 + 2.0 / 8) / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(q.intraError[1], 0.0);
    EXPECT_EQ(q.outliers, 0u);
    EXPECT_DOUBLE_EQ(q.outlierFraction, 0.0);
}

TEST(Quality, OutlierDetectionAtThreshold)
{
    const Clustering c = twoClusterFixture();
    // Cluster 0 error: rep 10 vs member 20 -> 0.5 mean over 3 members.
    const std::vector<double> costs{10, 20, 20, 100, 100};
    const ClusterQuality q = assessClusterQuality(c, costs);
    EXPECT_EQ(q.outliers, 1u);
    EXPECT_DOUBLE_EQ(q.outlierFraction, 0.5);
}

TEST(Quality, WorkScaledPerfectWhenCostProportionalToWork)
{
    const Clustering c = twoClusterFixture();
    const std::vector<double> costs{10, 20, 5, 100, 300};
    const std::vector<double> work{1, 2, 0.5, 10, 30};
    const ClusterQuality q = assessClusterQuality(
        c, costs, PredictionMode::WorkScaled, work);
    EXPECT_NEAR(q.meanIntraError, 0.0, 1e-12);
    EXPECT_EQ(q.outliers, 0u);
}

TEST(Quality, PredictItemCostsUniform)
{
    const Clustering c = twoClusterFixture();
    const auto p = predictItemCosts(c, {10.0, 100.0},
                                    PredictionMode::Uniform);
    EXPECT_EQ(p, (std::vector<double>{10, 10, 10, 100, 100}));
}

TEST(Quality, PredictItemCostsWorkScaled)
{
    const Clustering c = twoClusterFixture();
    const std::vector<double> work{1, 2, 0.5, 10, 30};
    const auto p = predictItemCosts(c, {10.0, 100.0},
                                    PredictionMode::WorkScaled, work);
    EXPECT_DOUBLE_EQ(p[1], 20.0);
    EXPECT_DOUBLE_EQ(p[2], 5.0);
    EXPECT_DOUBLE_EQ(p[4], 300.0);
}

TEST(Quality, ModeNames)
{
    EXPECT_STREQ(toString(PredictionMode::Uniform), "uniform");
    EXPECT_STREQ(toString(PredictionMode::WorkScaled), "work_scaled");
}

} // namespace
} // namespace gws
