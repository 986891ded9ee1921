#include "gpusim/work_trace.hh"

#include "gpusim/draw_work_cache.hh"
#include "runtime/counters.hh"
#include "runtime/parallel_for.hh"
#include "util/logging.hh"

namespace gws {

namespace {

/** Round n up to a multiple of the doubles in one alignment unit. */
std::size_t
paddedStride(std::size_t n)
{
    constexpr std::size_t per = WorkTrace::columnAlignment / sizeof(double);
    return (n + per - 1) / per * per;
}

} // namespace

WorkTrace::WorkTrace(std::uint64_t capacity_key,
                     const std::vector<std::size_t> &group_sizes)
    : capKey(capacity_key)
{
    offsets.resize(group_sizes.size() + 1, 0);
    for (std::size_t g = 0; g < group_sizes.size(); ++g)
        offsets[g + 1] = offsets[g] + group_sizes[g];
    rows = offsets.back();
    stride = paddedStride(rows);
    if (rows == 0)
        return;
    const std::size_t doubles = numColumns * stride;
    storage.reset(static_cast<double *>(::operator new[](
        doubles * sizeof(double), std::align_val_t(columnAlignment))));
    for (std::size_t i = 0; i < doubles; ++i)
        storage.get()[i] = 0.0;
}

void
WorkTrace::setRow(std::size_t i, const DrawWork &work)
{
    GWS_ASSERT(i < rows, "work-trace row ", i, " out of range ", rows);
    mutableCol(0)[i] = work.vertices;
    mutableCol(1)[i] = work.primitives;
    mutableCol(2)[i] = work.pixels;
    mutableCol(3)[i] = work.vertexFetchBytes;
    mutableCol(4)[i] = work.vsWeightedOps;
    mutableCol(5)[i] = work.psWeightedOps;
    mutableCol(6)[i] = work.ropPixels;
    mutableCol(7)[i] = static_cast<double>(work.traffic.texSamples);
    mutableCol(8)[i] = work.traffic.texL2FillBytes;
    mutableCol(9)[i] = work.traffic.texDramBytes;
    mutableCol(10)[i] = work.traffic.vertexDramBytes;
    mutableCol(11)[i] = work.traffic.rtDramBytes;
    // Derived columns: the exact expressions the timing model
    // evaluates, computed once (they are config-independent).
    mutableCol(12)[i] = work.traffic.totalL2Bytes();
    mutableCol(13)[i] = work.traffic.totalDramBytes();
    mutableCol(14)[i] = work.vertices * work.vsWeightedOps;
    mutableCol(15)[i] = work.pixels * work.psWeightedOps;
}

DrawWork
WorkTrace::work(std::size_t i) const
{
    GWS_ASSERT(i < rows, "work-trace row ", i, " out of range ", rows);
    DrawWork w;
    w.vertices = vertices()[i];
    w.primitives = primitives()[i];
    w.pixels = pixels()[i];
    w.vertexFetchBytes = vertexFetchBytes()[i];
    w.vsWeightedOps = vsWeightedOps()[i];
    w.psWeightedOps = psWeightedOps()[i];
    w.ropPixels = ropPixels()[i];
    w.traffic.texSamples = static_cast<std::uint64_t>(texSamples()[i]);
    w.traffic.texL2FillBytes = texL2FillBytes()[i];
    w.traffic.texDramBytes = texDramBytes()[i];
    w.traffic.vertexDramBytes = vertexDramBytes()[i];
    w.traffic.rtDramBytes = rtDramBytes()[i];
    return w;
}

double
WorkTrace::totalDramBytes() const
{
    const double *dram = dramBytes();
    double total = 0.0;
    for (std::size_t i = 0; i < rows; ++i)
        total += dram[i];
    return total;
}

WorkTrace
buildWorkTrace(const Trace &trace, const GpuSimulator &simulator)
{
    ScopedRegion region("gpusim.buildWorkTrace");
    const std::uint64_t t0 = runtime_detail::nowNs();

    std::vector<std::size_t> sizes;
    sizes.reserve(trace.frameCount());
    for (const Frame &frame : trace.frames())
        sizes.push_back(frame.drawCount());

    WorkTrace wt(capacityConfigHash(simulator.config()), sizes);
    parallelFor(0, trace.frameCount(), 1, [&](std::size_t f) {
        const Frame &frame = trace.frame(f);
        std::size_t row = wt.groupBegin(f);
        for (const DrawCall &draw : frame.draws())
            wt.setRow(row++, simulator.computeDrawWork(trace, draw));
    });

    runtime_detail::noteWorkTraceBuild(wt.drawCount(),
                                       runtime_detail::nowNs() - t0);
    return wt;
}

} // namespace gws
