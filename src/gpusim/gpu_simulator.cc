#include "gpusim/gpu_simulator.hh"

#include <algorithm>

#include "gpusim/draw_work_cache.hh"
#include "partition/shards.hh"
#include "runtime/counters.hh"
#include "runtime/parallel_for.hh"
#include "util/logging.hh"

namespace gws {

const char *
toString(Stage stage)
{
    switch (stage) {
      case Stage::Setup:
        return "setup";
      case Stage::VertexFetch:
        return "vfetch";
      case Stage::VertexShade:
        return "vshade";
      case Stage::Raster:
        return "raster";
      case Stage::PixelShade:
        return "pshade";
      case Stage::Texture:
        return "texture";
      case Stage::Rop:
        return "rop";
      case Stage::L2:
        return "l2";
      case Stage::Dram:
        return "dram";
      case Stage::NumStages:
        break;
    }
    GWS_PANIC("unknown stage ", static_cast<int>(stage));
}

double
TraceCost::meanFrameMs() const
{
    if (frames.empty())
        return 0.0;
    return totalNs / static_cast<double>(frames.size()) * 1e-6;
}

double
TraceCost::fps() const
{
    const double ms = meanFrameMs();
    return ms > 0.0 ? 1000.0 / ms : 0.0;
}

GpuSimulator::GpuSimulator(GpuConfig config)
    : cfg(std::move(config)), memory(cfg),
      capacityKey(capacityConfigHash(cfg))
{
    cfg.validate();
}

double
GpuSimulator::weightedOps(const InstructionMix &mix) const
{
    // Special-function ops occupy the SIMD unit for specialOpWeight
    // cycles; a texture op costs one issue slot (the filtering itself
    // is priced by the texture stage).
    return static_cast<double>(mix.aluOps) + mix.maddOps + mix.interpOps +
           mix.controlOps + mix.texOps +
           cfg.specialOpWeight * mix.specialOps;
}

DrawWork
GpuSimulator::computeDrawWork(const Trace &trace,
                              const DrawCall &draw) const
{
    const DrawWorkKey key = drawWorkKey(trace, draw, capacityKey);
    DrawWork work;
    if (drawWorkCacheLookup(key, &work)) {
        runtime_detail::noteDrawCache(1, 0);
        return work;
    }
    work = computeDrawWorkUncached(trace, draw);
    drawWorkCacheInsert(key, work);
    runtime_detail::noteDrawCache(0, 1);
    return work;
}

DrawWork
GpuSimulator::computeDrawWorkUncached(const Trace &trace,
                                      const DrawCall &draw) const
{
    const auto &vs = trace.shaders().get(draw.state.vertexShader);
    const auto &ps = trace.shaders().get(draw.state.pixelShader);
    GWS_ASSERT(vs.stage() == ShaderStage::Vertex,
               "draw binds non-vertex shader in VS slot");
    GWS_ASSERT(ps.stage() == ShaderStage::Pixel,
               "draw binds non-pixel shader in PS slot");

    DrawWork work;
    work.vertices = static_cast<double>(draw.vertices());
    work.primitives = static_cast<double>(draw.primitives());
    work.pixels = static_cast<double>(draw.shadedPixels);
    work.vertexFetchBytes = static_cast<double>(draw.vertexFetchBytes());
    work.vsWeightedOps = weightedOps(vs.mix());
    work.psWeightedOps = weightedOps(ps.mix());
    work.ropPixels = work.pixels * (draw.state.blendEnabled ? 2.0 : 1.0);
    work.traffic = memory.drawTraffic(trace, draw);
    return work;
}

DrawCost
GpuSimulator::timeDrawWork(const DrawWork &work) const
{
    DrawCost cost;
    cost.traffic = work.traffic;
    const double core_ghz = cfg.coreClockGhz;

    auto set = [&](Stage s, double ns) {
        cost.stageNs[static_cast<std::size_t>(s)] = ns;
    };

    // Command-processor setup: serial, not overlapped with the rest.
    const double setup_ns = cfg.drawSetupCycles / core_ghz;
    set(Stage::Setup, setup_ns);

    // Core-domain throughput stages (cycles -> ns at the core clock).
    set(Stage::VertexFetch,
        work.vertexFetchBytes / cfg.vertexFetchBytesPerCycle / core_ghz);
    set(Stage::VertexShade,
        work.vertices * work.vsWeightedOps / cfg.opsPerCycle() /
            core_ghz);
    set(Stage::Raster,
        (work.primitives / cfg.rasterPrimsPerCycle +
         work.pixels / cfg.rasterPixelsPerCycle) /
            core_ghz);
    set(Stage::PixelShade,
        work.pixels * work.psWeightedOps / cfg.opsPerCycle() / core_ghz);
    set(Stage::Texture,
        static_cast<double>(work.traffic.texSamples) /
            cfg.texSamplesPerCycle / core_ghz);
    set(Stage::Rop, work.ropPixels / cfg.ropPixelsPerCycle / core_ghz);
    set(Stage::L2,
        work.traffic.totalL2Bytes() / cfg.l2BytesPerCycle / core_ghz);

    // Memory-domain stage: scales with the memory clock only.
    set(Stage::Dram,
        work.traffic.totalDramBytes() / cfg.dramBandwidthBytesPerNs());

    // Fully-pipelined overlap: wall time = setup + slowest stage.
    double worst = 0.0;
    Stage worst_stage = Stage::VertexFetch;
    for (std::size_t s = static_cast<std::size_t>(Stage::VertexFetch);
         s < numStages; ++s) {
        if (cost.stageNs[s] > worst) {
            worst = cost.stageNs[s];
            worst_stage = static_cast<Stage>(s);
        }
    }
    cost.totalNs = setup_ns + worst;
    cost.bottleneck = worst > setup_ns ? worst_stage : Stage::Setup;
    return cost;
}

DrawCost
GpuSimulator::simulateDraw(const Trace &trace, const DrawCall &draw) const
{
    return timeDrawWork(computeDrawWork(trace, draw));
}

FrameCost
GpuSimulator::simulateFrame(const Trace &trace, const Frame &frame) const
{
    // Draws are priced in parallel (the model is per-draw pure) into
    // index-addressed vectors; the accumulation below then runs
    // serially in submission order, so every sum is bit-identical to
    // a single-threaded run regardless of thread count.
    const auto &draws = frame.draws();
    const std::size_t n = draws.size();

    obs::SpanScope span("gpusim.simulateFrame");
    FrameCost fc;
    fc.frameIndex = frame.index();
    fc.drawNs.resize(n);
    std::vector<Stage> bottlenecks(n);
    parallelFor(0, n, drawGrain, [&](std::size_t i) {
        const DrawCost dc = simulateDraw(trace, draws[i]);
        fc.drawNs[i] = dc.totalNs;
        bottlenecks[i] = dc.bottleneck;
    });

    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        total += fc.drawNs[i];
        const auto b = static_cast<std::size_t>(bottlenecks[i]);
        fc.bottleneckNs[b] += fc.drawNs[i];
        ++fc.bottleneckCount[b];
    }
    fc.totalNs = total + cfg.frameOverheadUs * 1e3;
    return fc;
}

TraceCost
GpuSimulator::simulateTrace(const Trace &trace) const
{
    // Frames are independent, so the whole trace fans out across
    // threads; a frame simulated on a pool worker prices its draws
    // inline (nested loops degrade gracefully). With more than one
    // thread, frames are grouped into equal-draw-count shards (skewed
    // traces leave no thread pinned to one heavy chunk); on one thread
    // they run in order. Either way frame costs land at their index
    // and the totals are reduced in frame order afterwards, so every
    // thread count gives the same bits.
    ScopedRegion region("gpusim.simulateTrace");
    TraceCost tc;
    const std::size_t n = trace.frameCount();
    if (n > 1 && resolvedThreadCount() > 1) {
        std::vector<double> costs(n);
        for (std::size_t i = 0; i < n; ++i)
            costs[i] =
                static_cast<double>(trace.frame(i).draws().size()) +
                1.0;
        const ShardPlan plan =
            partitionTraceShards(costs, defaultShardCount(n));
        tc.frames.resize(n);
        parallelShards(plan.bounds,
                       [&](std::size_t b, std::size_t e) {
                           for (std::size_t i = b; i < e; ++i)
                               tc.frames[i] = simulateFrame(
                                   trace, trace.frame(i));
                       });
    } else {
        tc.frames = parallelMap<FrameCost>(
            0, n, 1, [&](std::size_t i) {
                return simulateFrame(trace, trace.frame(i));
            });
    }
    for (const FrameCost &fc : tc.frames) {
        tc.totalNs += fc.totalNs;
        tc.drawsSimulated += fc.drawNs.size();
    }
    return tc;
}

} // namespace gws
