/**
 * @file
 * Thread-count determinism regression tests — the ordered-reduction
 * contract of src/runtime applied end to end. Every pipeline layer
 * (trace simulation, k-means, the workload-subset pipeline) must
 * produce bit-identical floating-point results at threads = 1 and
 * threads = 8; any drift means a reduction started depending on
 * completion order. The k-selection sweep, agglomerative and
 * graph-partitioning clustering must also give the same bits when
 * called from inside a parallel chunk, where their own loops run
 * inline on a pool worker or fan out again from the caller's chunk.
 * Texture streams keep per-thread caches and a per-thread synthesis
 * block, so every stream must give the same bits on any thread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <thread>
#include <vector>

#include "cluster/agglomerative.hh"
#include "cluster/graph_partition.hh"
#include "cluster/kmeans.hh"
#include "cluster/kselect.hh"
#include "core/subset_pipeline.hh"
#include "features/extractor.hh"
#include "gpusim/gpu_simulator.hh"
#include "runtime/runtime.hh"
#include "stream_reference.hh"
#include "synth/generator.hh"

namespace gws {
namespace {

/** One CI-scale playthrough shared by every test in this suite. */
const Trace &
testTrace()
{
    static const Trace t =
        GameGenerator(builtinProfile("shock1", SuiteScale::Ci))
            .generate();
    return t;
}

/** Normalized features of the leading frames, the first `count`. */
std::vector<FeatureVector>
framePoints(std::size_t count)
{
    const Trace &trace = testTrace();
    const FeatureExtractor extractor(trace);
    std::vector<FeatureVector> raw;
    for (std::size_t f = 0; f < trace.frameCount() && raw.size() < count;
         ++f)
        for (const FeatureVector &v : extractor.extractFrame(trace.frame(f)))
            raw.push_back(v);
    raw.resize(std::min(raw.size(), count));
    return Normalizer::fit(raw).applyAll(raw);
}

/** Bit patterns of a double sequence, for exact comparison. */
template <typename Range>
std::vector<std::uint64_t>
bitsOf(const Range &values)
{
    std::vector<std::uint64_t> out;
    for (double v : values)
        out.push_back(std::bit_cast<std::uint64_t>(v));
    return out;
}

/** Two clusterings agree bit for bit. */
void
expectSameClustering(const Clustering &a, const Clustering &b)
{
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.representatives, b.representatives);
    ASSERT_EQ(a.centroids.size(), b.centroids.size());
    for (std::size_t c = 0; c < a.centroids.size(); ++c)
        ASSERT_EQ(bitsOf(a.centroids[c].raw()), bitsOf(b.centroids[c].raw()))
            << "centroid " << c;
}

/** Two k-selection sweeps agree bit for bit. */
void
expectSameSweep(const KSelectResult &a, const KSelectResult &b)
{
    EXPECT_EQ(a.triedK, b.triedK);
    EXPECT_EQ(bitsOf(a.bicByK), bitsOf(b.bicByK));
    EXPECT_EQ(a.chosenK, b.chosenK);
    expectSameClustering(a.clustering, b.clustering);
}

class DeterminismTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved = runtimeConfig(); }

    void TearDown() override
    {
        setRuntimeConfig(saved);
        shutdownGlobalThreadPool();
    }

    /** Run fn() under an explicit thread count, grain untouched. */
    template <typename Fn>
    auto
    at(std::size_t threads, Fn &&fn)
    {
        RuntimeConfig cfg = saved;
        cfg.threads = threads;
        setRuntimeConfig(cfg);
        return fn();
    }

    /**
     * fn() at 1 thread (the reference), at 2 and 4 threads, and in
     * every chunk of a 4-thread parallelMap; check(ref, other) holds
     * for each.
     */
    template <typename Fn, typename Check>
    void
    expectThreadInvariant(Fn &&fn, Check &&check)
    {
        const auto ref = at(1, fn);
        for (std::size_t threads : {2, 4}) {
            SCOPED_TRACE(testing::Message() << threads << " threads");
            check(ref, at(threads, fn));
        }
        const auto nested = at(4, [&] {
            return parallelMap<decltype(fn())>(
                0, 4, 1, [&](std::size_t) { return fn(); });
        });
        for (std::size_t c = 0; c < nested.size(); ++c) {
            SCOPED_TRACE(testing::Message() << "parallelMap chunk " << c);
            check(ref, nested[c]);
        }
    }

    RuntimeConfig saved;
};

TEST_F(DeterminismTest, SimulateTraceIsBitIdenticalAcrossThreadCounts)
{
    const Trace &trace = testTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));

    const TraceCost a = at(1, [&] { return sim.simulateTrace(trace); });
    const TraceCost b = at(8, [&] { return sim.simulateTrace(trace); });

    EXPECT_EQ(a.totalNs, b.totalNs);
    EXPECT_EQ(a.drawsSimulated, b.drawsSimulated);
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t f = 0; f < a.frames.size(); ++f) {
        const FrameCost &fa = a.frames[f];
        const FrameCost &fb = b.frames[f];
        ASSERT_EQ(fa.totalNs, fb.totalNs) << "frame " << f;
        ASSERT_EQ(fa.drawNs, fb.drawNs) << "frame " << f;
        ASSERT_EQ(fa.bottleneckNs, fb.bottleneckNs) << "frame " << f;
        ASSERT_EQ(fa.bottleneckCount, fb.bottleneckCount)
            << "frame " << f;
    }
}

TEST_F(DeterminismTest, KMeansIsBitIdenticalAcrossThreadCounts)
{
    // Enough points that the default grain splits the scans into
    // several chunks, so the parallel path is actually exercised.
    const Trace &trace = testTrace();
    const FeatureExtractor extractor(trace);
    std::vector<FeatureVector> points;
    for (std::size_t f = 0; f < 8 && f < trace.frameCount(); ++f)
        for (const FeatureVector &v :
             extractor.extractFrame(trace.frame(f)))
            points.push_back(v);
    ASSERT_GT(points.size(), 512u);

    KMeansConfig cfg;
    cfg.k = 12;
    cfg.restarts = 2;

    const Clustering a = at(1, [&] { return kmeans(points, cfg); });
    const Clustering b = at(8, [&] { return kmeans(points, cfg); });

    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.representatives, b.representatives);
    ASSERT_EQ(a.centroids.size(), b.centroids.size());
    for (std::size_t c = 0; c < a.centroids.size(); ++c)
        ASSERT_EQ(a.centroids[c], b.centroids[c]) << "centroid " << c;
}

TEST_F(DeterminismTest, SubsetPipelineIsBitIdenticalAcrossThreadCounts)
{
    const Trace &trace = testTrace();
    const SubsetConfig cfg;
    const GpuSimulator sim(makeGpuPreset("baseline"));

    const WorkloadSubset a =
        at(1, [&] { return buildWorkloadSubset(trace, cfg); });
    const WorkloadSubset b =
        at(8, [&] { return buildWorkloadSubset(trace, cfg); });

    EXPECT_EQ(a.subsetDraws(), b.subsetDraws());
    ASSERT_EQ(a.units.size(), b.units.size());
    for (std::size_t u = 0; u < a.units.size(); ++u) {
        const SubsetUnit &ua = a.units[u];
        const SubsetUnit &ub = b.units[u];
        ASSERT_EQ(ua.phaseId, ub.phaseId) << "unit " << u;
        ASSERT_EQ(ua.frameIndex, ub.frameIndex) << "unit " << u;
        ASSERT_EQ(ua.frameWeight, ub.frameWeight) << "unit " << u;
        ASSERT_EQ(ua.frameSubset.clustering.assignment,
                  ub.frameSubset.clustering.assignment)
            << "unit " << u;
        ASSERT_EQ(ua.frameSubset.clustering.representatives,
                  ub.frameSubset.clustering.representatives)
            << "unit " << u;
        ASSERT_EQ(ua.frameSubset.workUnits, ub.frameSubset.workUnits)
            << "unit " << u;
    }

    // Predicted and fully-simulated costs must agree bit for bit too.
    const SubsetEvaluation ea =
        at(1, [&] { return evaluateSubset(trace, a, sim); });
    const SubsetEvaluation eb =
        at(8, [&] { return evaluateSubset(trace, b, sim); });
    EXPECT_EQ(ea.parentNs, eb.parentNs);
    EXPECT_EQ(ea.predictedNs, eb.predictedNs);
    EXPECT_EQ(ea.relError(), eb.relError());
}

TEST_F(DeterminismTest, SelectKIsBitIdenticalAcrossThreadCounts)
{
    // Enough points that each k-means run's own loops split into
    // several chunks; the small set makes maxK exceed n.
    const std::vector<FeatureVector> many = framePoints(600);
    const std::vector<FeatureVector> few = framePoints(40);
    ASSERT_EQ(many.size(), 600u);
    struct Case
    {
        const std::vector<FeatureVector> *points;
        std::size_t maxK;
        std::size_t step;
    };
    for (const Case &c : {Case{&many, 12, 1}, Case{&many, 40, 3},
                          Case{&few, 64, 1}, Case{&few, 64, 3}}) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << c.points->size() << " maxK=" << c.maxK
                     << " step=" << c.step);
        KSelectConfig cfg;
        cfg.maxK = c.maxK;
        cfg.step = c.step;
        expectThreadInvariant(
            [&] { return selectK(*c.points, cfg); }, expectSameSweep);
    }
}

TEST_F(DeterminismTest, AgglomerativeIsBitIdenticalAcrossThreadCounts)
{
    const std::vector<FeatureVector> points = framePoints(500);
    AgglomerativeConfig threshold;
    AgglomerativeConfig target;
    target.targetK = 25;
    for (const AgglomerativeConfig &cfg : {threshold, target}) {
        SCOPED_TRACE(testing::Message() << "targetK=" << cfg.targetK);
        expectThreadInvariant(
            [&] { return agglomerativeCluster(points, cfg); },
            expectSameClustering);
    }
}

TEST_F(DeterminismTest, GraphPartitionIsBitIdenticalAcrossThreadCounts)
{
    const std::vector<FeatureVector> points = framePoints(600);
    GraphPartitionConfig efficiency;
    GraphPartitionConfig target;
    target.targetK = 20;
    for (const GraphPartitionConfig &cfg : {efficiency, target}) {
        SCOPED_TRACE(testing::Message() << "targetK=" << cfg.targetK);
        expectThreadInvariant(
            [&] { return graphPartitionCluster(points, cfg); },
            expectSameClustering);
    }
}

TEST_F(DeterminismTest, TextureStreamsAreBitIdenticalOnEveryThread)
{
    const std::vector<StreamCase> grid = pinnedStreamGrid();
    const auto stream = [&](std::size_t i) {
        const StreamCase &c = grid[i];
        return runTextureStream(c.params, c.l1, c.l2, c.maxSamples);
    };
    std::vector<StreamResult> ref;
    for (std::size_t i = 0; i < grid.size(); ++i)
        ref.push_back(stream(i));
    const auto expectSame = [&](const std::vector<StreamResult> &got) {
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            SCOPED_TRACE(testing::Message() << "stream " << i);
            EXPECT_EQ(got[i].simulatedAccesses, ref[i].simulatedAccesses);
            EXPECT_EQ(bitsOf(std::vector<double>{
                          got[i].scale, got[i].l1HitRate, got[i].l2HitRate,
                          got[i].l1Misses, got[i].l2Misses}),
                      bitsOf(std::vector<double>{
                          ref[i].scale, ref[i].l1HitRate, ref[i].l2HitRate,
                          ref[i].l1Misses, ref[i].l2Misses}));
        }
    };
    {
        SCOPED_TRACE("4-thread parallelMap");
        expectSame(at(4, [&] {
            return parallelMap<StreamResult>(0, grid.size(), 64, stream);
        }));
    }
    {
        SCOPED_TRACE("thread that has run no stream");
        std::vector<StreamResult> fresh;
        std::thread t([&] {
            for (std::size_t i = 0; i < grid.size(); ++i)
                fresh.push_back(stream(i));
        });
        t.join();
        expectSame(fresh);
    }
}

} // namespace
} // namespace gws
