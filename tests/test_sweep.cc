/**
 * @file
 * Bit-identity tests of the compute-once / retime-many sweep engine:
 * the flattened WorkTrace must reproduce computeDrawWork exactly, the
 * blocked retiming kernel must match both the naive per-design loops
 * and simulateTrace bit for bit (totals, per-group costs, per-draw
 * costs, bottleneck histograms) at every thread count, and the three
 * rewired studies (frequency scaling, pathfinding, DVFS) must produce
 * identical results on either path. Also covers the bound-texture
 * memo in MemorySystem and the texture-table epoch that keys it.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/energy_study.hh"
#include "core/freq_scaling.hh"
#include "core/pathfinding.hh"
#include "core/subset_pipeline.hh"
#include "core/sweep.hh"
#include "gpusim/draw_work_cache.hh"
#include "gpusim/work_trace.hh"
#include "runtime/counters.hh"
#include "runtime/runtime.hh"
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

/** The trace's workload subset (built once). */
const WorkloadSubset &
testSubset()
{
    static const WorkloadSubset s =
        buildWorkloadSubset(testTrace(), SubsetConfig{});
    return s;
}

/** The sweep points every retiming test uses. */
std::vector<GpuConfig>
sweepPoints()
{
    return clockSweepConfigs(makeGpuPreset("baseline"),
                             {0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0});
}

bool
sameSweepResult(const SweepResult &a, const SweepResult &b)
{
    return a.configCount == b.configCount &&
           a.groupCount == b.groupCount && a.drawCount == b.drawCount &&
           a.totalNs == b.totalNs && a.groupNs == b.groupNs &&
           a.bottleneckNs == b.bottleneckNs &&
           a.bottleneckCount == b.bottleneckCount && a.drawNs == b.drawNs;
}

class SweepTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved = runtimeConfig(); }

    void TearDown() override
    {
        setRuntimeConfig(saved);
        shutdownGlobalThreadPool();
    }

    /** Run fn() under an explicit thread count. */
    template <typename Fn>
    auto
    at(std::size_t threads, Fn &&fn)
    {
        RuntimeConfig cfg = saved;
        cfg.threads = threads;
        setRuntimeConfig(cfg);
        return fn();
    }

    RuntimeConfig saved;
};

// ------------------------------------------------------------- work trace --

TEST_F(SweepTest, WorkTraceReproducesComputeDrawWork)
{
    const Trace &trace = testTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const WorkTrace wt = buildWorkTrace(trace, sim);

    ASSERT_EQ(wt.groupCount(), trace.frameCount());
    ASSERT_EQ(wt.drawCount(), trace.totalDraws());
    EXPECT_EQ(wt.capacityKey(), capacityConfigHash(sim.config()));

    for (std::size_t f = 0; f < trace.frameCount(); f += 7) {
        const Frame &frame = trace.frame(f);
        ASSERT_EQ(wt.groupEnd(f) - wt.groupBegin(f), frame.drawCount());
        for (std::size_t d = 0; d < frame.drawCount(); d += 5) {
            const DrawWork expect =
                sim.computeDrawWork(trace, frame.draws()[d]);
            const std::size_t i = wt.groupBegin(f) + d;
            const DrawWork got = wt.work(i);
            EXPECT_EQ(got.vertices, expect.vertices);
            EXPECT_EQ(got.primitives, expect.primitives);
            EXPECT_EQ(got.pixels, expect.pixels);
            EXPECT_EQ(got.vertexFetchBytes, expect.vertexFetchBytes);
            EXPECT_EQ(got.vsWeightedOps, expect.vsWeightedOps);
            EXPECT_EQ(got.psWeightedOps, expect.psWeightedOps);
            EXPECT_EQ(got.ropPixels, expect.ropPixels);
            EXPECT_EQ(got.traffic.texSamples, expect.traffic.texSamples);
            EXPECT_EQ(got.traffic.texL2FillBytes,
                      expect.traffic.texL2FillBytes);
            EXPECT_EQ(got.traffic.texDramBytes,
                      expect.traffic.texDramBytes);
            EXPECT_EQ(got.traffic.vertexDramBytes,
                      expect.traffic.vertexDramBytes);
            EXPECT_EQ(got.traffic.rtDramBytes, expect.traffic.rtDramBytes);
            // Derived columns must equal the recomputed expressions.
            EXPECT_EQ(wt.l2Bytes()[i], expect.traffic.totalL2Bytes());
            EXPECT_EQ(wt.dramBytes()[i], expect.traffic.totalDramBytes());
            EXPECT_EQ(wt.vsOpsTotal()[i],
                      expect.vertices * expect.vsWeightedOps);
            EXPECT_EQ(wt.psOpsTotal()[i],
                      expect.pixels * expect.psWeightedOps);
        }
    }
}

TEST_F(SweepTest, WorkTraceBuildIsThreadCountInvariant)
{
    const Trace &trace = testTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const WorkTrace a = at(1, [&] { return buildWorkTrace(trace, sim); });
    const WorkTrace b = at(8, [&] { return buildWorkTrace(trace, sim); });
    ASSERT_EQ(a.drawCount(), b.drawCount());
    for (std::size_t i = 0; i < a.drawCount(); ++i)
        EXPECT_EQ(a.dramBytes()[i], b.dramBytes()[i]);
    EXPECT_EQ(a.totalDramBytes(), b.totalDramBytes());
}

TEST_F(SweepTest, TotalDramBytesIsTheRowOrderSum)
{
    // runDvfsStudy prices the parent's DRAM energy with this total.
    const Trace &trace = testTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const WorkTrace wt = buildWorkTrace(trace, sim);
    double expect = 0.0;
    for (std::size_t f = 0; f < trace.frameCount(); ++f)
        for (const DrawCall &draw : trace.frame(f).draws())
            expect +=
                sim.computeDrawWork(trace, draw).traffic.totalDramBytes();
    EXPECT_EQ(wt.totalDramBytes(), expect);
}

TEST_F(SweepTest, SubsetWorkTraceMatchesRepresentatives)
{
    const Trace &trace = testTrace();
    const WorkloadSubset &subset = testSubset();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const WorkTrace wt = buildSubsetWorkTrace(trace, subset, sim);

    ASSERT_EQ(wt.groupCount(), subset.units.size());
    for (std::size_t u = 0; u < subset.units.size(); ++u) {
        const SubsetUnit &unit = subset.units[u];
        const Clustering &c = unit.frameSubset.clustering;
        ASSERT_EQ(wt.groupEnd(u) - wt.groupBegin(u), c.k);
        const Frame &frame = trace.frame(unit.frameIndex);
        for (std::size_t cl = 0; cl < c.k; ++cl) {
            const DrawWork expect = sim.computeDrawWork(
                trace, frame.draws()[c.representatives[cl]]);
            const DrawWork got = wt.work(wt.groupBegin(u) + cl);
            EXPECT_EQ(got.pixels, expect.pixels);
            EXPECT_EQ(got.traffic.totalDramBytes(),
                      expect.traffic.totalDramBytes());
        }
    }
}

// -------------------------------------------------------------- retimeAll --

TEST_F(SweepTest, EngineMatchesNaiveBitwise)
{
    const Trace &trace = testTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const WorkTrace wt = buildWorkTrace(trace, sim);
    const std::vector<GpuConfig> points = sweepPoints();

    SweepConfig naive_cfg;
    naive_cfg.path = SweepPath::Naive;
    naive_cfg.perDraw = true;
    SweepConfig engine_cfg = naive_cfg;
    engine_cfg.path = SweepPath::Engine;

    const SweepResult naive = retimeAll(wt, points, naive_cfg);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
        const SweepResult engine = at(
            threads, [&] { return retimeAll(wt, points, engine_cfg); });
        EXPECT_TRUE(sameSweepResult(naive, engine))
            << "engine diverges from naive at threads=" << threads;
    }
}

TEST_F(SweepTest, EngineMatchesSimulateTrace)
{
    const Trace &trace = testTrace();
    const GpuSimulator base_sim(makeGpuPreset("baseline"));
    const WorkTrace wt = buildWorkTrace(trace, base_sim);
    const std::vector<GpuConfig> points = sweepPoints();

    SweepConfig engine_cfg;
    engine_cfg.path = SweepPath::Engine;
    const SweepResult engine = retimeAll(wt, points, engine_cfg);

    for (std::size_t c = 0; c < points.size(); ++c) {
        const GpuSimulator sim(points[c]);
        const TraceCost cost = sim.simulateTrace(trace);
        EXPECT_EQ(engine.totalNs[c], cost.totalNs);
        ASSERT_EQ(engine.groupCount, cost.frames.size());
        std::array<double, numStages> hist_ns{};
        std::array<std::uint64_t, numStages> hist_count{};
        for (std::size_t f = 0; f < cost.frames.size(); ++f) {
            EXPECT_EQ(engine.groupNsAt(c, f), cost.frames[f].totalNs);
            for (std::size_t s = 0; s < numStages; ++s) {
                hist_ns[s] += cost.frames[f].bottleneckNs[s];
                hist_count[s] += cost.frames[f].bottleneckCount[s];
            }
        }
        for (std::size_t s = 0; s < numStages; ++s) {
            EXPECT_EQ(engine.bottleneckNsAt(c, static_cast<Stage>(s)),
                      hist_ns[s]);
            EXPECT_EQ(engine.bottleneckCountAt(c, static_cast<Stage>(s)),
                      hist_count[s]);
        }
    }
}

// ---------------------------------------------------------------- studies --

TEST_F(SweepTest, FreqScalingPathsAreBitIdentical)
{
    const Trace &trace = testTrace();
    const WorkloadSubset &subset = testSubset();
    const GpuConfig base = makeGpuPreset("baseline");

    FreqScalingConfig naive_cfg;
    naive_cfg.path = SweepPath::Naive;
    FreqScalingConfig engine_cfg;
    engine_cfg.path = SweepPath::Engine;

    const FreqScalingResult naive =
        runFreqScaling(trace, subset, base, naive_cfg);
    const FreqScalingResult engine =
        runFreqScaling(trace, subset, base, engine_cfg);

    EXPECT_EQ(naive.parentNs, engine.parentNs);
    EXPECT_EQ(naive.subsetNs, engine.subsetNs);
    EXPECT_EQ(naive.parentImprovement, engine.parentImprovement);
    EXPECT_EQ(naive.subsetImprovement, engine.subsetImprovement);
    EXPECT_EQ(naive.correlation, engine.correlation);
    EXPECT_EQ(naive.maxImprovementGap, engine.maxImprovementGap);
    EXPECT_GT(engine.correlation, 0.9);
}

TEST_F(SweepTest, PathfindingPathsAreBitIdentical)
{
    const Trace &trace = testTrace();
    const WorkloadSubset &subset = testSubset();
    std::vector<GpuConfig> designs;
    for (const std::string &name : gpuPresetNames())
        designs.push_back(makeGpuPreset(name));

    const PathfindingResult naive =
        runPathfinding(trace, subset, designs, SweepPath::Naive);
    const PathfindingResult engine =
        runPathfinding(trace, subset, designs, SweepPath::Engine);

    ASSERT_EQ(naive.points.size(), engine.points.size());
    for (std::size_t i = 0; i < naive.points.size(); ++i) {
        EXPECT_EQ(naive.points[i].parentNs, engine.points[i].parentNs);
        EXPECT_EQ(naive.points[i].subsetNs, engine.points[i].subsetNs);
        EXPECT_EQ(naive.points[i].parentSpeedup,
                  engine.points[i].parentSpeedup);
        EXPECT_EQ(naive.points[i].subsetSpeedup,
                  engine.points[i].subsetSpeedup);
    }
    EXPECT_EQ(naive.parentRanking, engine.parentRanking);
    EXPECT_EQ(naive.subsetRanking, engine.subsetRanking);
    EXPECT_EQ(naive.rankingPreserved, engine.rankingPreserved);
    EXPECT_EQ(naive.speedupCorrelation, engine.speedupCorrelation);
    EXPECT_EQ(naive.rankCorrelation, engine.rankCorrelation);
}

TEST_F(SweepTest, DvfsPathsAreBitIdentical)
{
    const Trace &trace = testTrace();
    const WorkloadSubset &subset = testSubset();
    const GpuConfig base = makeGpuPreset("baseline");

    DvfsConfig naive_cfg;
    naive_cfg.path = SweepPath::Naive;
    DvfsConfig engine_cfg;
    engine_cfg.path = SweepPath::Engine;

    const DvfsResult naive = runDvfsStudy(trace, subset, base, naive_cfg);
    const DvfsResult engine =
        runDvfsStudy(trace, subset, base, engine_cfg);

    ASSERT_EQ(naive.points.size(), engine.points.size());
    for (std::size_t i = 0; i < naive.points.size(); ++i) {
        EXPECT_EQ(naive.points[i].parent.totalJ(),
                  engine.points[i].parent.totalJ());
        EXPECT_EQ(naive.points[i].parent.energyDelay(),
                  engine.points[i].parent.energyDelay());
        EXPECT_EQ(naive.points[i].subset.totalJ(),
                  engine.points[i].subset.totalJ());
        EXPECT_EQ(naive.points[i].subset.energyDelay(),
                  engine.points[i].subset.energyDelay());
    }
    EXPECT_EQ(naive.parentOptimal, engine.parentOptimal);
    EXPECT_EQ(naive.subsetOptimal, engine.subsetOptimal);
    EXPECT_EQ(naive.energyCorrelation, engine.energyCorrelation);
    EXPECT_EQ(naive.edpCorrelation, engine.edpCorrelation);
}

// -------------------------------------------------- texture-bind memo -----

TEST_F(SweepTest, TextureBindMemoIsTransparent)
{
    const Trace &trace = testTrace();
    MemorySystem memory(makeGpuPreset("baseline"));
    const DrawCall &draw = trace.frame(0).draws()[0];

    const MemoryTraffic first = memory.drawTraffic(trace, draw);
    const std::uint64_t hits_before = runtimeCounters().texBindHits;
    const MemoryTraffic second = memory.drawTraffic(trace, draw);
    EXPECT_EQ(first.texSamples, second.texSamples);
    EXPECT_EQ(first.texL2FillBytes, second.texL2FillBytes);
    EXPECT_EQ(first.texDramBytes, second.texDramBytes);
    EXPECT_EQ(first.vertexDramBytes, second.vertexDramBytes);
    EXPECT_EQ(first.rtDramBytes, second.rtDramBytes);
    if (first.texSamples > 0) {
        EXPECT_GT(runtimeCounters().texBindHits, hits_before);
    }
}

TEST_F(SweepTest, TextureEpochAdvancesOnTableEdit)
{
    Trace copy = testTrace();
    const std::uint64_t before = copy.textureEpoch();
    TextureDesc desc;
    desc.width = 64;
    desc.height = 64;
    desc.bytesPerTexel = 4;
    copy.addTexture(desc);
    EXPECT_NE(copy.textureEpoch(), before);
}

} // namespace
} // namespace gws
