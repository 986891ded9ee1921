/**
 * @file
 * Flattened structure-of-arrays image of a whole trace's
 * clock-independent draw work — the compute-once half of the
 * compute-once / retime-many sweep engine.
 *
 * A sweep (frequency scaling, design-point pathfinding, the DVFS
 * energy study) re-times the same draws under many GPU configs. The
 * per-draw DrawWork is clock-independent, so the sweep layer computes
 * it exactly once per trace: buildWorkTrace() walks the frames in
 * parallel (reusing the process-global draw-work memo cache) and lays
 * every DrawWork field out as one 64-byte-aligned column per field,
 * grouped by frame through a per-group offset table. The retiming
 * kernel (core/sweep.hh) then streams those columns for all draws ×
 * all configs in one cache-friendly pass.
 *
 * Rows are grouped into *groups* — frames for a full trace, subset
 * units for a subset work trace (built by core/sweep.cc) — and each
 * group's rows keep their submission order, so serial accumulation
 * over a group reproduces the per-frame cost chains of
 * GpuSimulator::simulateFrame bit for bit.
 *
 * Besides the raw DrawWork fields, four derived columns are
 * precomputed at build time: the L2 and DRAM byte totals (the sums
 * MemoryTraffic::totalL2Bytes/totalDramBytes would produce — same
 * addends, same order, config-independent, hence bit-identical to
 * recomputing them at every clock point) and the vertex/pixel
 * weighted-op products hoisted out of the per-config timing loop.
 * The sixteen columns take 128 bytes a draw. Every sweep flattens its
 * whole parent trace in memory, which for the largest paper-scale
 * playthrough (nomad, 677.7K draws) is about 87 MB.
 *
 * A WorkTrace is bound to the *capacity* parameters of the config it
 * was built under (capacityKey); any config sharing that capacity
 * hash — every point of a clock sweep, throughput-only design
 * variants — can be retimed against it.
 */

#ifndef GWS_GPUSIM_WORK_TRACE_HH
#define GWS_GPUSIM_WORK_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/gpu_simulator.hh"

namespace gws {

/** SoA of per-draw clock-independent work, grouped by frame/unit. */
class WorkTrace
{
  public:
    /** Alignment of every column start, in bytes. */
    static constexpr std::size_t columnAlignment = 64;

    /** Empty work trace. */
    WorkTrace() = default;

    /**
     * Allocate for the given group sizes (rows per group) under a
     * capacity hash. Rows start zeroed; builders fill them with
     * setRow(). Intended for the build functions below and the
     * subset builder in core/sweep.cc.
     */
    WorkTrace(std::uint64_t capacity_key,
              const std::vector<std::size_t> &group_sizes);

    /** Scatter one DrawWork into row i of every column. */
    void setRow(std::size_t i, const DrawWork &work);

    /** Total rows (draws). */
    std::size_t drawCount() const { return rows; }

    /** Groups (frames of a trace, units of a subset). */
    std::size_t groupCount() const
    {
        return offsets.empty() ? 0 : offsets.size() - 1;
    }

    /** First row of group g. */
    std::size_t groupBegin(std::size_t g) const { return offsets[g]; }

    /** One-past-last row of group g. */
    std::size_t groupEnd(std::size_t g) const { return offsets[g + 1]; }

    /** Hash of the capacity config the work was computed under. */
    std::uint64_t capacityKey() const { return capKey; }

    // --- raw DrawWork columns (aligned, length drawCount()) ----------
    const double *vertices() const { return col(0); }
    const double *primitives() const { return col(1); }
    const double *pixels() const { return col(2); }
    const double *vertexFetchBytes() const { return col(3); }
    const double *vsWeightedOps() const { return col(4); }
    const double *psWeightedOps() const { return col(5); }
    const double *ropPixels() const { return col(6); }
    const double *texSamples() const { return col(7); }
    const double *texL2FillBytes() const { return col(8); }
    const double *texDramBytes() const { return col(9); }
    const double *vertexDramBytes() const { return col(10); }
    const double *rtDramBytes() const { return col(11); }

    // --- derived columns (precomputed, bit-identical to recompute) ---
    /** MemoryTraffic::totalL2Bytes() of each row. */
    const double *l2Bytes() const { return col(12); }

    /** MemoryTraffic::totalDramBytes() of each row. */
    const double *dramBytes() const { return col(13); }

    /** vertices * vsWeightedOps of each row. */
    const double *vsOpsTotal() const { return col(14); }

    /** pixels * psWeightedOps of each row. */
    const double *psOpsTotal() const { return col(15); }

    /**
     * Reconstruct row i as a DrawWork for the naive A/B retiming path.
     * Timing-relevant fields only: the texture hit rates (which no
     * clock point reads) are left at their defaults.
     */
    DrawWork work(std::size_t i) const;

    /** Serial left-to-right sum of the DRAM column in row order. */
    double totalDramBytes() const;

  private:
    static constexpr std::size_t numColumns = 16;

    const double *col(std::size_t c) const
    {
        return storage.get() + c * stride;
    }

    double *mutableCol(std::size_t c) { return storage.get() + c * stride; }

    std::size_t rows = 0;
    std::size_t stride = 0;
    std::vector<std::size_t> offsets; // groupCount() + 1
    std::uint64_t capKey = 0;

    struct AlignedDelete
    {
        void operator()(double *p) const
        {
            ::operator delete[](p, std::align_val_t(columnAlignment));
        }
    };
    std::unique_ptr<double[], AlignedDelete> storage;
};

/**
 * Compute the whole trace's work under simulator's capacity config:
 * one group per frame, rows in submission order. Frames are priced in
 * parallel (one frame per chunk, like simulateTrace) through
 * GpuSimulator::computeDrawWork, so repeated draws hit the memo cache.
 * Rows built add to the `gpusim.workTrace.draws` counter; the build
 * time is the `gpusim.buildWorkTrace` span (`--runtime-stats`).
 */
WorkTrace buildWorkTrace(const Trace &trace, const GpuSimulator &simulator);

} // namespace gws

#endif // GWS_GPUSIM_WORK_TRACE_HH
