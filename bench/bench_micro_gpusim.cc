/**
 * @file
 * google-benchmark microbenchmarks of the GPU performance model:
 * cache accesses, the texture-stream sampler, per-draw simulation,
 * the work/time split used by frequency sweeps, and whole-frame
 * simulation.
 */

#include <benchmark/benchmark.h>

#include "gpusim/access_stream.hh"
#include "gpusim/draw_work_cache.hh"
#include "gpusim/gpu_simulator.hh"
#include "synth/generator.hh"
#include "util/rng.hh"

namespace {

using namespace gws;

const Trace &
simTrace()
{
    static const Trace t = [] {
        GameProfile p = builtinProfile("shock1", SuiteScale::Ci);
        p.segments = 1;
        p.segmentFramesMin = p.segmentFramesMax = 2;
        p.drawsPerFrame = 120.0;
        return GameGenerator(p).generate();
    }();
    return t;
}

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheConfig{16 * 1024, 64, 4});
    Rng rng(1);
    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < 4096; ++i)
        addrs.push_back(rng.uniformInt(0, 1 << 20));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i]));
        i = (i + 1) % addrs.size();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheAccess);

void
BM_TextureStream(benchmark::State &state)
{
    // Cycle through a fixed pool of streams with distinct seeds: one
    // stream replayed every iteration lets the branch predictor learn
    // its per-access branches, which real draws never repeat.
    std::vector<StreamParams> pool(1024);
    Rng rng(42);
    for (StreamParams &p : pool) {
        p.totalAccesses = 100000;
        p.footprintBytes = 4 << 20;
        p.locality = 0.85;
        p.seed = rng.nextU64();
    }
    const CacheConfig l1{16 * 1024, 64, 4}, l2{1 << 20, 64, 16};
    const auto max_samples = static_cast<std::uint64_t>(state.range(0));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            runTextureStream(pool[i], l1, l2, max_samples));
        i = (i + 1) % pool.size();
    }
}
BENCHMARK(BM_TextureStream)->Arg(128)->Arg(512)->Arg(2048);

void
BM_SimulateDraw(benchmark::State &state)
{
    // Bypasses the draw-work memo: cycling through 120 draws, every
    // iteration after the first lap would otherwise be a memo hit.
    const Trace &t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const auto &draws = t.frame(0).draws();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim.timeDrawWork(sim.computeDrawWorkUncached(t, draws[i])));
        i = (i + 1) % draws.size();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulateDraw);

void
BM_TimeDrawWork(benchmark::State &state)
{
    // The frequency-sweep fast path: re-pricing precomputed work.
    const Trace &t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    std::vector<DrawWork> works;
    for (const auto &d : t.frame(0).draws())
        works.push_back(sim.computeDrawWork(t, d));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim.timeDrawWork(works[i]));
        i = (i + 1) % works.size();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimeDrawWork);

void
BM_SimulateFrame(benchmark::State &state)
{
    // Clears the draw-work memo before each iteration, untimed: every
    // iteration prices frame 0 again, so without the clear all but the
    // first would time memo hits.
    const Trace &t = simTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    for (auto _ : state) {
        state.PauseTiming();
        drawWorkCacheClear();
        state.ResumeTiming();
        benchmark::DoNotOptimize(sim.simulateFrame(t, t.frame(0)));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(t.frame(0).drawCount()));
}
BENCHMARK(BM_SimulateFrame);

} // namespace

BENCHMARK_MAIN();
