/**
 * @file
 * Tests of the GPU performance model: clock domains, configuration
 * presets, the access-stream sampler, the memory system, and the
 * simulator's behavioral properties (monotonicity, clock scaling,
 * bottleneck classification, per-draw purity).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <thread>
#include <vector>

#include "gpusim/access_stream.hh"
#include "gpusim/clock.hh"
#include "gpusim/gpu_simulator.hh"
#include "gpusim/report.hh"
#include "stream_reference.hh"
#include "synth/generator.hh"
#include "util/rng.hh"

namespace gws {
namespace {

// ------------------------------------------------------------------ clock --

TEST(ClockDomain, ConversionsAreConsistent)
{
    ClockDomain clk(2.0);
    EXPECT_DOUBLE_EQ(clk.periodNs(), 0.5);
    EXPECT_DOUBLE_EQ(clk.cyclesToNs(10.0), 5.0);
    EXPECT_DOUBLE_EQ(clk.nsToCycles(5.0), 10.0);
}

TEST(ClockDomain, ScaledMultipliesFrequency)
{
    ClockDomain clk(1.0);
    EXPECT_DOUBLE_EQ(clk.scaled(1.5).frequencyGhz(), 1.5);
}

TEST(ClockDomain, RejectsNonPositive)
{
    EXPECT_DEATH(ClockDomain(0.0), "positive");
    EXPECT_DEATH(ClockDomain(-1.0), "positive");
}

// ------------------------------------------------------------------ config --

TEST(GpuConfig, PresetsAreValidAndDistinct)
{
    for (const auto &name : gpuPresetNames()) {
        const GpuConfig cfg = makeGpuPreset(name);
        cfg.validate();
        EXPECT_EQ(cfg.name, name);
    }
    EXPECT_GT(makeGpuPreset("wide").numCores,
              makeGpuPreset("baseline").numCores);
    EXPECT_GT(makeGpuPreset("fastmem").memClockGhz,
              makeGpuPreset("baseline").memClockGhz);
    EXPECT_GT(makeGpuPreset("bigcache").l2.sizeBytes,
              makeGpuPreset("baseline").l2.sizeBytes);
    EXPECT_LT(makeGpuPreset("mobile").coreClockGhz,
              makeGpuPreset("baseline").coreClockGhz);
}

TEST(GpuConfig, UnknownPresetDies)
{
    EXPECT_DEATH(makeGpuPreset("warp9"), "unknown GPU preset");
}

TEST(GpuConfig, WithCoreClockScaleLeavesMemoryAlone)
{
    const GpuConfig base = makeGpuPreset("baseline");
    const GpuConfig fast = base.withCoreClockScale(2.0);
    EXPECT_DOUBLE_EQ(fast.coreClockGhz, 2.0 * base.coreClockGhz);
    EXPECT_DOUBLE_EQ(fast.memClockGhz, base.memClockGhz);
}

TEST(GpuConfig, DerivedRates)
{
    GpuConfig cfg;
    cfg.numCores = 8;
    cfg.simdWidth = 16;
    EXPECT_DOUBLE_EQ(cfg.opsPerCycle(), 128.0);
    cfg.dramBusBytesPerCycle = 32.0;
    cfg.memClockGhz = 2.0;
    EXPECT_DOUBLE_EQ(cfg.dramBandwidthBytesPerNs(), 64.0);
}

TEST(GpuConfig, ValidateCatchesBadValues)
{
    GpuConfig cfg;
    cfg.numCores = 0;
    EXPECT_DEATH(cfg.validate(), "shader core");
}

// ----------------------------------------------------------- access stream --

TEST(AccessStream, EmptyStreamIsNeutral)
{
    StreamParams p;
    const StreamResult r = runTextureStream(p, {16384, 64, 4},
                                            {1 << 20, 64, 16}, 512);
    EXPECT_EQ(r.simulatedAccesses, 0u);
    EXPECT_DOUBLE_EQ(r.l1Misses, 0.0);
}

TEST(AccessStream, DeterministicForSameSeed)
{
    StreamParams p;
    p.totalAccesses = 5000;
    p.footprintBytes = 1 << 20;
    p.locality = 0.8;
    p.seed = 77;
    const CacheConfig l1{16384, 64, 4}, l2{1 << 20, 64, 16};
    const StreamResult a = runTextureStream(p, l1, l2, 512);
    const StreamResult b = runTextureStream(p, l1, l2, 512);
    EXPECT_DOUBLE_EQ(a.l1HitRate, b.l1HitRate);
    EXPECT_DOUBLE_EQ(a.l2Misses, b.l2Misses);
}

TEST(AccessStream, HigherLocalityMeansFewerMisses)
{
    StreamParams lo, hi;
    lo.totalAccesses = hi.totalAccesses = 20000;
    lo.footprintBytes = hi.footprintBytes = 4 << 20;
    lo.seed = hi.seed = 5;
    lo.locality = 0.2;
    hi.locality = 0.95;
    const CacheConfig l1{16384, 64, 4}, l2{1 << 20, 64, 16};
    const StreamResult a = runTextureStream(lo, l1, l2, 1024);
    const StreamResult b = runTextureStream(hi, l1, l2, 1024);
    EXPECT_GT(a.l1Misses, b.l1Misses);
    EXPECT_LT(a.l1HitRate, b.l1HitRate);
}

TEST(AccessStream, ScaleReflectsSampling)
{
    StreamParams p;
    p.totalAccesses = 100000;
    p.footprintBytes = 1 << 22;
    p.seed = 9;
    const StreamResult r = runTextureStream(p, {16384, 64, 4},
                                            {1 << 20, 64, 16}, 500);
    EXPECT_EQ(r.simulatedAccesses, 500u);
    EXPECT_DOUBLE_EQ(r.scale, 200.0);
    EXPECT_LE(r.l2Misses, 100000.0);
}

TEST(AccessStream, MissesNeverExceedAccesses)
{
    StreamParams p;
    p.totalAccesses = 3000;
    p.footprintBytes = 1 << 24;
    p.locality = 0.0;
    p.seed = 13;
    const StreamResult r = runTextureStream(p, {16384, 64, 4},
                                            {1 << 20, 64, 16}, 4096);
    EXPECT_LE(r.l1Misses, 3000.0);
    EXPECT_LE(r.l2Misses, r.l1Misses + 1e-9);
}

TEST(AccessStream, TinyFootprintHitsAfterWarmup)
{
    StreamParams p;
    p.totalAccesses = 4000;
    p.footprintBytes = 1024; // fits easily in L1
    p.locality = 0.5;
    p.seed = 21;
    const StreamResult r = runTextureStream(p, {16384, 64, 4},
                                            {1 << 20, 64, 16}, 4096);
    EXPECT_GT(r.l1HitRate, 0.95);
}

/** Exact bits of a double, so EXPECT_EQ pins values bit for bit. */
std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

TEST(AccessStream, ReusedCachesMatchPinnedResults)
{
    // Streams are priced from one L1/L2 pair per thread, reset before
    // each stream. The expected values were computed when every
    // stream still built fresh caches; the call order grows the
    // thread's L2 (1 MiB -> 4 MiB), shrinks it to set-sampled minis
    // and regrows it, so any state left by a previous stream shows.
    const CacheConfig l1{16 * 1024, 64, 4};
    const CacheConfig l2{1 << 20, 64, 16};
    const CacheConfig l2_big{4 << 20, 64, 16};
    StreamParams small; // unscaled: fewer accesses than samples
    small.totalAccesses = 500;
    small.footprintBytes = 96 * 1024;
    small.locality = 0.6;
    small.seed = 101;
    StreamParams scaled; // set-sampled by 100000 / 512
    scaled.totalAccesses = 100000;
    scaled.footprintBytes = 8 << 20;
    scaled.locality = 0.85;
    scaled.seed = 202;

    const auto expectSmall = [&](const CacheConfig &l2_config) {
        const StreamResult r = runTextureStream(small, l1, l2_config, 512);
        EXPECT_EQ(r.simulatedAccesses, 500u);
        EXPECT_EQ(bits(r.scale), bits(1.0));
        EXPECT_EQ(bits(r.l1HitRate), bits(0x1.45a1cac083127p-2));
        EXPECT_EQ(bits(r.l2HitRate), bits(0x1.e0781e0781e08p-7));
        EXPECT_EQ(bits(r.l1Misses), bits(0x1.55p+8));
        EXPECT_EQ(bits(r.l2Misses), bits(0x1.5p+8));
    };
    const auto expectScaled = [&](const CacheConfig &l2_config,
                                  double l2_hit_rate, double l2_misses) {
        const StreamResult r = runTextureStream(scaled, l1, l2_config, 512);
        EXPECT_EQ(r.simulatedAccesses, 512u);
        EXPECT_EQ(bits(r.scale), bits(0x1.86ap+7));
        EXPECT_EQ(bits(r.l1HitRate), bits(0x1.1p-1));
        EXPECT_EQ(bits(r.l2HitRate), bits(l2_hit_rate));
        EXPECT_EQ(bits(r.l1Misses), bits(0x1.6e36p+15));
        EXPECT_EQ(bits(r.l2Misses), bits(l2_misses));
    };
    const auto sequence = [&] {
        expectSmall(l2);
        expectSmall(l2_big);
        expectScaled(l2, 0x1.ccccccccccccdp-4, 0x1.45032p+15);
        expectScaled(l2_big, 0x1.999999999999ap-3, 0x1.24f8p+15);
        expectSmall(l2_big);
        expectSmall(l2);
    };
    // A new thread starts without caches; this one has used them.
    std::thread fresh(sequence);
    fresh.join();
    sequence();
}

TEST(AccessStream, PinnedGridDigest)
{
    // The digest was computed with the one-access-at-a-time stream
    // loop; every field of every result of the grid keeps its bits.
    std::vector<StreamResult> results;
    for (const StreamCase &c : pinnedStreamGrid())
        results.push_back(
            runTextureStream(c.params, c.l1, c.l2, c.maxSamples));
    EXPECT_EQ(results.size(), 26880u);
    EXPECT_EQ(streamDigest(results), 0xd4258f47069e7750ULL);
}

TEST(AccessStream, MatchesReferenceLoopOnRandomStreams)
{
    const auto geometry = [](Rng &rng, std::uint32_t line,
                             std::uint64_t max_sets) {
        CacheConfig c;
        c.lineBytes = line;
        c.ways = static_cast<std::uint32_t>(rng.uniformInt(1, 16));
        const auto sets = static_cast<std::uint64_t>(
            rng.uniformInt(1, static_cast<std::int64_t>(max_sets)));
        // Some sizes are not a whole number of sets.
        c.sizeBytes = sets * c.ways * line +
                      static_cast<std::uint64_t>(rng.uniformInt(0, line));
        return c;
    };
    const auto logUniform = [](Rng &rng, int max_log2) {
        return static_cast<std::uint64_t>(
            std::exp2(rng.uniform(0.0, static_cast<double>(max_log2))));
    };
    Rng rng(0x5eed);
    for (int i = 0; i < 2000; ++i) {
        const std::uint32_t lines[] = {1, 4, 16, 32, 64, 128};
        const CacheConfig l1 =
            geometry(rng, lines[rng.uniformInt(0, 5)], 512);
        const CacheConfig l2 =
            geometry(rng, lines[rng.uniformInt(2, 5)], 8192);
        const std::uint64_t caps[] = {1,   16,   50,   100,  512, 1000,
                                      1023, 1024, 1025, 2048, 5000};
        const std::uint64_t cap = caps[rng.uniformInt(0, 10)];
        StreamParams p;
        p.totalAccesses = logUniform(rng, 40);
        p.footprintBytes = logUniform(rng, 62);
        const int knob = static_cast<int>(rng.uniformInt(0, 3));
        p.locality = knob == 0 ? 0.0 : knob == 1 ? 1.0 : rng.uniform();
        p.seed = rng.nextU64();
        const StreamResult want = referenceTextureStream(p, l1, l2, cap);
        const StreamResult got = runTextureStream(p, l1, l2, cap);
        SCOPED_TRACE(testing::Message()
                     << "stream " << i << ": " << p.totalAccesses
                     << " accesses, footprint " << p.footprintBytes
                     << ", cap " << cap);
        ASSERT_EQ(got.simulatedAccesses, want.simulatedAccesses);
        ASSERT_EQ(bits(got.scale), bits(want.scale));
        ASSERT_EQ(bits(got.l1HitRate), bits(want.l1HitRate));
        ASSERT_EQ(bits(got.l2HitRate), bits(want.l2HitRate));
        ASSERT_EQ(bits(got.l1Misses), bits(want.l1Misses));
        ASSERT_EQ(bits(got.l2Misses), bits(want.l2Misses));
    }
}

TEST(AccessStream, MixSeedIsStable)
{
    EXPECT_EQ(mixSeed(1, 2, 3), mixSeed(1, 2, 3));
    EXPECT_NE(mixSeed(1, 2, 3), mixSeed(1, 2, 4));
}

// ------------------------------------------------------------ helper trace --

Trace
simTrace()
{
    GameProfile p = builtinProfile("shock1", SuiteScale::Ci);
    p.segments = 2;
    p.segmentFramesMin = 3;
    p.segmentFramesMax = 4;
    p.drawsPerFrame = 40.0;
    return GameGenerator(p).generate();
}

// --------------------------------------------------------------- simulator --

TEST(GpuSimulator, DrawCostIsPositiveAndBottlenecked)
{
    const Trace t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const DrawCall &d = t.frame(0).draws()[0];
    const DrawCost c = sim.simulateDraw(t, d);
    EXPECT_GT(c.totalNs, 0.0);
    double worst = 0.0;
    for (std::size_t s = 0; s < numStages; ++s)
        worst = std::max(worst, c.stageNs[s]);
    EXPECT_DOUBLE_EQ(c.totalNs, c.ns(Stage::Setup) + worst);
}

TEST(GpuSimulator, PerDrawPurity)
{
    // The same draw costs the same simulated twice or in any context —
    // the property subset simulation relies on.
    const Trace t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const DrawCall &d = t.frame(0).draws()[3];
    EXPECT_DOUBLE_EQ(sim.simulateDraw(t, d).totalNs,
                     sim.simulateDraw(t, d).totalNs);
}

TEST(GpuSimulator, MorePixelsCostMore)
{
    const Trace t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    DrawCall d = t.frame(0).draws()[0];
    d.shadedPixels = 1000;
    const double small = sim.simulateDraw(t, d).totalNs;
    d.shadedPixels = 100000;
    const double big = sim.simulateDraw(t, d).totalNs;
    EXPECT_GT(big, small);
}

TEST(GpuSimulator, FasterCoreNeverSlower)
{
    const Trace t = simTrace();
    const GpuSimulator slow(makeGpuPreset("baseline"));
    const GpuSimulator fast(
        makeGpuPreset("baseline").withCoreClockScale(2.0));
    for (const auto &d : t.frame(0).draws()) {
        ASSERT_LE(fast.simulateDraw(t, d).totalNs,
                  slow.simulateDraw(t, d).totalNs * (1.0 + 1e-9));
    }
}

TEST(GpuSimulator, CoreScalingIsSublinearWhenMemoryBound)
{
    // A huge-traffic draw with trivial compute: doubling the core
    // clock must not halve its time (DRAM does not scale).
    Trace t("membound");
    const ShaderId vs = t.shaders().add(ShaderStage::Vertex, "vs",
                                        InstructionMix{1, 0, 0, 0, 0, 0});
    const ShaderId ps = t.shaders().add(ShaderStage::Pixel, "ps",
                                        InstructionMix{1, 0, 0, 4, 0, 0});
    const TextureId tex = t.addTexture(TextureDesc{4096, 4096, 4, true});
    const RenderTargetId rt = t.addRenderTarget({1920, 1080, 4});
    Frame f(0);
    DrawCall d;
    d.state.vertexShader = vs;
    d.state.pixelShader = ps;
    d.state.textures = {tex};
    d.state.renderTarget = rt;
    d.vertexCount = 3;
    d.shadedPixels = 1920u * 1080u;
    d.texLocality = 0.05; // thrash the caches
    f.addDraw(d);
    t.addFrame(std::move(f));

    const GpuSimulator base(makeGpuPreset("baseline"));
    const GpuSimulator fast(
        makeGpuPreset("baseline").withCoreClockScale(2.0));
    const double t_base = base.simulateDraw(t, t.frame(0).draws()[0])
                              .totalNs;
    const double t_fast = fast.simulateDraw(t, t.frame(0).draws()[0])
                              .totalNs;
    EXPECT_GT(t_fast, t_base * 0.55); // far from ideal 0.5x
}

TEST(GpuSimulator, ComputeBoundDrawScalesNearlyLinearly)
{
    Trace t("compute");
    const ShaderId vs = t.shaders().add(ShaderStage::Vertex, "vs",
                                        InstructionMix{30, 20, 2, 0, 0, 2});
    const ShaderId ps = t.shaders().add(
        ShaderStage::Pixel, "ps", InstructionMix{200, 100, 10, 0, 8, 4});
    const RenderTargetId rt = t.addRenderTarget({1920, 1080, 4});
    Frame f(0);
    DrawCall d;
    d.state.vertexShader = vs;
    d.state.pixelShader = ps;
    d.state.renderTarget = rt;
    d.vertexCount = 3000;
    d.shadedPixels = 500000;
    f.addDraw(d);
    t.addFrame(std::move(f));

    const GpuSimulator base(makeGpuPreset("baseline"));
    const GpuSimulator fast(
        makeGpuPreset("baseline").withCoreClockScale(2.0));
    const double t_base = base.simulateDraw(t, t.frame(0).draws()[0])
                              .totalNs;
    const double t_fast = fast.simulateDraw(t, t.frame(0).draws()[0])
                              .totalNs;
    EXPECT_NEAR(t_fast / t_base, 0.5, 0.02);
}

TEST(GpuSimulator, BlendingIncreasesCost)
{
    const Trace t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    DrawCall d = t.frame(0).draws()[0];
    d.shadedPixels = 200000;
    d.state.blendEnabled = false;
    const double off = sim.simulateDraw(t, d).totalNs;
    d.state.blendEnabled = true;
    const double on = sim.simulateDraw(t, d).totalNs;
    EXPECT_GE(on, off);
    // Traffic must strictly increase even if the bottleneck hides it.
    d.state.blendEnabled = false;
    const auto tr_off = sim.simulateDraw(t, d).traffic;
    d.state.blendEnabled = true;
    const auto tr_on = sim.simulateDraw(t, d).traffic;
    EXPECT_GT(tr_on.rtDramBytes, tr_off.rtDramBytes);
}

TEST(GpuSimulator, WorkSplitMatchesDirectSimulation)
{
    const Trace t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    for (const auto &d : t.frame(0).draws()) {
        const DrawWork w = sim.computeDrawWork(t, d);
        ASSERT_DOUBLE_EQ(sim.timeDrawWork(w).totalNs,
                         sim.simulateDraw(t, d).totalNs);
    }
}

TEST(GpuSimulator, WorkRetimingMatchesRescaledSimulator)
{
    // computeDrawWork under the base config + timeDrawWork under a
    // core-scaled config must equal simulating under the scaled config
    // (cache geometry unchanged).
    const Trace t = simTrace();
    const GpuConfig base = makeGpuPreset("baseline");
    const GpuSimulator base_sim(base);
    const GpuSimulator fast_sim(base.withCoreClockScale(1.7));
    for (const auto &d : t.frame(0).draws()) {
        const DrawWork w = base_sim.computeDrawWork(t, d);
        ASSERT_NEAR(fast_sim.timeDrawWork(w).totalNs,
                    fast_sim.simulateDraw(t, d).totalNs, 1e-9);
    }
}

TEST(GpuSimulator, FrameCostIsSumPlusOverhead)
{
    const Trace t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const FrameCost fc = sim.simulateFrame(t, t.frame(0));
    double sum = 0.0;
    for (double ns : fc.drawNs)
        sum += ns;
    EXPECT_NEAR(fc.totalNs,
                sum + sim.config().frameOverheadUs * 1e3, 1e-6);
    EXPECT_EQ(fc.drawNs.size(), t.frame(0).drawCount());
}

TEST(GpuSimulator, FrameBottleneckCountsCoverAllDraws)
{
    const Trace t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const FrameCost fc = sim.simulateFrame(t, t.frame(0));
    std::uint64_t total = 0;
    for (std::uint64_t n : fc.bottleneckCount)
        total += n;
    EXPECT_EQ(total, t.frame(0).drawCount());
}

TEST(GpuSimulator, TraceCostAggregates)
{
    const Trace t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const TraceCost tc = sim.simulateTrace(t);
    EXPECT_EQ(tc.frames.size(), t.frameCount());
    EXPECT_EQ(tc.drawsSimulated, t.totalDraws());
    double sum = 0.0;
    for (const auto &fc : tc.frames)
        sum += fc.totalNs;
    EXPECT_NEAR(tc.totalNs, sum, 1e-3);
    EXPECT_GT(tc.meanFrameMs(), 0.0);
    EXPECT_GT(tc.fps(), 0.0);
}

TEST(GpuSimulator, MobilePresetIsSlowerThanBaseline)
{
    const Trace t = simTrace();
    const GpuSimulator base(makeGpuPreset("baseline"));
    const GpuSimulator mobile(makeGpuPreset("mobile"));
    EXPECT_GT(mobile.simulateTrace(t).totalNs,
              base.simulateTrace(t).totalNs);
}

// ------------------------------------------------- preset property sweeps --

class PresetProperties : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PresetProperties, AllDrawCostsPositiveAndFinite)
{
    const Trace t = simTrace();
    const GpuSimulator sim(makeGpuPreset(GetParam()));
    for (const auto &frame : t.frames()) {
        for (const auto &d : frame.draws()) {
            const DrawCost c = sim.simulateDraw(t, d);
            ASSERT_GT(c.totalNs, 0.0);
            ASSERT_TRUE(std::isfinite(c.totalNs));
            for (std::size_t s = 0; s < numStages; ++s) {
                ASSERT_GE(c.stageNs[s], 0.0);
                ASSERT_TRUE(std::isfinite(c.stageNs[s]));
            }
        }
    }
}

TEST_P(PresetProperties, CoreScalingBounded)
{
    // Doubling the core clock yields between 1x and 2x speedup per
    // draw on every preset: never slower, never superlinear.
    const Trace t = simTrace();
    const GpuConfig base = makeGpuPreset(GetParam());
    const GpuSimulator slow(base);
    const GpuSimulator fast(base.withCoreClockScale(2.0));
    for (const auto &d : t.frame(0).draws()) {
        const double ts = slow.simulateDraw(t, d).totalNs;
        const double tf = fast.simulateDraw(t, d).totalNs;
        ASSERT_LE(tf, ts * (1.0 + 1e-9));
        ASSERT_GE(tf, ts / 2.0 - 1e-9);
    }
}

TEST_P(PresetProperties, WorkTimeSplitConsistent)
{
    const Trace t = simTrace();
    const GpuSimulator sim(makeGpuPreset(GetParam()));
    for (const auto &d : t.frame(0).draws()) {
        ASSERT_DOUBLE_EQ(
            sim.timeDrawWork(sim.computeDrawWork(t, d)).totalNs,
            sim.simulateDraw(t, d).totalNs);
    }
}

TEST_P(PresetProperties, TrafficConservation)
{
    // DRAM bytes can never exceed the bytes entering the hierarchy.
    const Trace t = simTrace();
    const GpuSimulator sim(makeGpuPreset(GetParam()));
    for (const auto &d : t.frame(0).draws()) {
        const MemoryTraffic &m = sim.simulateDraw(t, d).traffic;
        ASSERT_GE(m.texL1HitRate, 0.0);
        ASSERT_LE(m.texL1HitRate, 1.0);
        ASSERT_GE(m.texL2HitRate, 0.0);
        ASSERT_LE(m.texL2HitRate, 1.0);
        ASSERT_LE(m.texDramBytes, m.texL2FillBytes + 1e-9)
            << "more DRAM fills than L2 fills";
        ASSERT_GE(m.totalDramBytes(), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetProperties,
                         ::testing::Values("baseline", "wide", "fastmem",
                                           "bigcache", "mobile"));

TEST(GpuSimulator, BiggerL2NeverMoreDramTraffic)
{
    const Trace t = simTrace();
    const GpuSimulator small(makeGpuPreset("baseline"));
    const GpuSimulator big(makeGpuPreset("bigcache"));
    double small_dram = 0.0, big_dram = 0.0;
    for (const auto &d : t.frame(0).draws()) {
        small_dram += small.simulateDraw(t, d).traffic.totalDramBytes();
        big_dram += big.simulateDraw(t, d).traffic.totalDramBytes();
    }
    EXPECT_LE(big_dram, small_dram * (1.0 + 1e-6));
}

// ------------------------------------------------------------------ report --

TEST(BottleneckProfile, FractionsSumToOne)
{
    const Trace t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const BottleneckProfile p = profileTrace(sim, t);
    double draw_sum = 0.0, time_sum = 0.0;
    for (std::size_t s = 0; s < numStages; ++s) {
        draw_sum += p.drawFraction[s];
        time_sum += p.timeFraction[s];
    }
    EXPECT_NEAR(draw_sum, 1.0, 1e-9);
    EXPECT_NEAR(time_sum, 1.0, 1e-9);
    EXPECT_EQ(p.draws, t.totalDraws());
    EXPECT_GT(p.totalNs, 0.0);
}

TEST(BottleneckProfile, DominantHoldsLargestTimeShare)
{
    const Trace t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const BottleneckProfile p = profileTrace(sim, t);
    const double dom = p.timeShare(p.dominant());
    for (std::size_t s = 0; s < numStages; ++s)
        EXPECT_LE(p.timeFraction[s], dom + 1e-12);
}

TEST(BottleneckProfile, FrameProfileMatchesFrameCost)
{
    const Trace t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const FrameCost fc = sim.simulateFrame(t, t.frame(0));
    const BottleneckProfile p = profileFrame(fc);
    EXPECT_EQ(p.draws, t.frame(0).drawCount());
    std::uint64_t counted = 0;
    for (std::size_t s = 0; s < numStages; ++s)
        counted += fc.bottleneckCount[s];
    EXPECT_EQ(counted, p.draws);
}

TEST(BottleneckProfile, MergePreservesTotals)
{
    const Trace t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const BottleneckProfile a = profileFrame(
        sim.simulateFrame(t, t.frame(0)));
    const BottleneckProfile b = profileFrame(
        sim.simulateFrame(t, t.frame(1)));
    const BottleneckProfile m = merge(a, b);
    EXPECT_EQ(m.draws, a.draws + b.draws);
    EXPECT_NEAR(m.totalNs, a.totalNs + b.totalNs, 1.0);
    double time_sum = 0.0;
    for (std::size_t s = 0; s < numStages; ++s)
        time_sum += m.timeFraction[s];
    EXPECT_NEAR(time_sum, 1.0, 1e-9);
}

TEST(BottleneckProfile, MemoryBoundFractionGrowsWithCoreClock)
{
    // At higher core clocks more draws hit the DRAM wall, so the
    // memory-bound time share must be non-decreasing.
    const Trace t = simTrace();
    const GpuSimulator slow(makeGpuPreset("baseline"));
    const GpuSimulator fast(
        makeGpuPreset("baseline").withCoreClockScale(4.0));
    EXPECT_GE(profileTrace(fast, t).memoryBoundTimeFraction(),
              profileTrace(slow, t).memoryBoundTimeFraction());
}

TEST(GpuSimulator, StageNamesAreDistinct)
{
    EXPECT_STREQ(toString(Stage::Dram), "dram");
    EXPECT_STRNE(toString(Stage::PixelShade), toString(Stage::Texture));
}

} // namespace
} // namespace gws
