/**
 * @file
 * Bit-identity tests of the compute-once / retime-many sweep engine:
 * the flattened WorkTrace must reproduce computeDrawWork exactly, the
 * blocked retiming kernel must match both the per-design reference
 * loops (sweep_reference.hh) and simulateTrace bit for bit (totals,
 * per-group costs, per-draw costs, bottleneck histograms) at every
 * thread count, and the three studies built on it (frequency scaling,
 * pathfinding, DVFS) must price parent and subset exactly as the
 * per-design references do. Also covers the bound-texture memo in
 * MemorySystem and the texture-table epoch that keys it.
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
#include "sweep_reference.hh"

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

TEST_F(SweepTest, EngineMatchesReferenceBitwise)
{
    const Trace &trace = testTrace();
    const WorkTrace wt =
        buildWorkTrace(trace, GpuSimulator(makeGpuPreset("baseline")));

    // A clock sweep takes the clock-only kernel. The presets sharing
    // baseline's capacity hash differ in throughput rates, so they
    // take the generic kernel.
    std::vector<GpuConfig> presets;
    for (const std::string &name : gpuPresetNames())
        if (capacityConfigHash(makeGpuPreset(name)) == wt.capacityKey())
            presets.push_back(makeGpuPreset(name));
    ASSERT_GE(presets.size(), 2u);

    SweepConfig engine_cfg;
    engine_cfg.perDraw = true;
    for (const std::vector<GpuConfig> &configs : {sweepPoints(), presets}) {
        const SweepResult reference =
            referenceRetimeAll(wt, configs, true);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                          std::size_t{4}}) {
            const SweepResult engine = at(threads, [&] {
                return retimeAll(wt, configs, engine_cfg);
            });
            EXPECT_TRUE(sameSweepResult(reference, engine))
                << configs.size() << " configs diverge from the "
                << "reference at threads=" << threads;
        }
    }
}

TEST_F(SweepTest, EngineMatchesSimulateTrace)
{
    const Trace &trace = testTrace();
    const GpuSimulator base_sim(makeGpuPreset("baseline"));
    const WorkTrace wt = buildWorkTrace(trace, base_sim);
    const std::vector<GpuConfig> points = sweepPoints();

    const SweepResult engine = retimeAll(wt, points);

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

TEST_F(SweepTest, FreqScalingMatchesReference)
{
    const Trace &trace = testTrace();
    const WorkloadSubset &subset = testSubset();
    const GpuConfig base = makeGpuPreset("baseline");
    const FreqScalingConfig cfg;
    const std::vector<GpuConfig> points =
        clockSweepConfigs(base, cfg.scales);

    const FreqScalingResult r = runFreqScaling(trace, subset, base, cfg);
    ASSERT_EQ(r.parentNs.size(), points.size());
    ASSERT_EQ(r.subsetNs.size(), points.size());
    for (std::size_t c = 0; c < points.size(); ++c) {
        EXPECT_EQ(r.parentNs[c],
                  GpuSimulator(points[c]).simulateTrace(trace).totalNs);
        EXPECT_EQ(r.subsetNs[c],
                  referenceSubsetSweepNs(trace, subset, points[c]));
    }
    EXPECT_GT(r.correlation, 0.9);
}

TEST_F(SweepTest, PathfindingMatchesReference)
{
    const Trace &trace = testTrace();
    const WorkloadSubset &subset = testSubset();
    std::vector<GpuConfig> designs;
    for (const std::string &name : gpuPresetNames())
        designs.push_back(makeGpuPreset(name));

    const PathfindingResult r = at(4, [&] {
        return runPathfinding(trace, subset, designs);
    });
    ASSERT_EQ(r.points.size(), designs.size());
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const GpuSimulator sim(designs[i]);
        EXPECT_EQ(r.points[i].parentNs, sim.simulateTrace(trace).totalNs);
        EXPECT_EQ(r.points[i].subsetNs, subset.predictTotalNs(trace, sim));
    }
}

TEST_F(SweepTest, DvfsMatchesReference)
{
    const Trace &trace = testTrace();
    const WorkloadSubset &subset = testSubset();
    const GpuConfig base = makeGpuPreset("baseline");
    const DvfsConfig cfg;
    const std::vector<GpuConfig> points =
        clockSweepConfigs(base, cfg.scales);

    const DvfsResult r = runDvfsStudy(trace, subset, base, cfg);
    ASSERT_EQ(r.points.size(), points.size());
    for (std::size_t c = 0; c < points.size(); ++c) {
        // estimateEnergy's seconds is the priced time × 1e-9.
        EXPECT_EQ(r.points[c].parent.seconds,
                  GpuSimulator(points[c]).simulateTrace(trace).totalNs *
                      1e-9);
        EXPECT_EQ(r.points[c].subset.seconds,
                  referenceSubsetSweepNs(trace, subset, points[c]) *
                      1e-9);
    }
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
