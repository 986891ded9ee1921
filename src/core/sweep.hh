/**
 * @file
 * The retime-many half of the compute-once / retime-many sweep
 * engine: evaluate all draws of a WorkTrace under many GPU configs in
 * one pass.
 *
 * The paper's headline experiments are sweeps — frequency scaling,
 * design-point pathfinding, the DVFS energy study — that re-time the
 * same per-draw work at every design point. retimeAll() replaces the
 * per-design serial loops with a blocked kernel: parallel over draw
 * groups (frames / subset units), inner loop over configs with the
 * per-config clock and throughput constants hoisted into contiguous
 * arrays, producing per-group and per-trace totals plus per-config
 * bottleneck histograms.
 *
 * Hard bit-identity contract (guarded by tests/test_sweep.cc and
 * re-measured by bench_micro_sweep):
 *
 *  - Every per-draw cost is computed with exactly the operations of
 *    GpuSimulator::timeDrawWork, in the same order — only constants
 *    that are themselves per-config pure (setup ns, ops/cycle, DRAM
 *    bandwidth) are hoisted, never re-associated arithmetic.
 *  - A group's cost is the serial left-to-right chain of its draw
 *    costs in submission order plus the config's frame overhead —
 *    the accumulation order of GpuSimulator::simulateFrame.
 *  - The trace total chains group costs in ascending group order —
 *    the accumulation order of GpuSimulator::simulateTrace.
 *  - Bottleneck histograms accumulate per group in draw order and
 *    combine group partials in ascending group order.
 *
 * Both SweepPath::Naive (a per-design GpuSimulator walking the rows
 * serially through timeDrawWork — the pre-engine loop shape) and
 * SweepPath::Engine follow that contract, so their outputs are
 * bit-identical and A/B-comparable; GWS_NAIVE_SWEEP=1 forces the
 * naive path process-wide for SweepPath::Auto callers.
 *
 * Every sweep retimes one in-memory WorkTrace (gpusim/work_trace.hh
 * gives its size).
 */

#ifndef GWS_CORE_SWEEP_HH
#define GWS_CORE_SWEEP_HH

#include <span>
#include <vector>

#include "core/subset_pipeline.hh"
#include "gpusim/work_trace.hh"
#include "partition/shards.hh"
#include "trace/trace.hh"

namespace gws {

/** Which retiming implementation retimeAll() runs. */
enum class SweepPath : std::uint8_t
{
    /** Engine unless the GWS_NAIVE_SWEEP environment variable forces
     *  the naive path (read once at first use). */
    Auto = 0,

    /** Per-design GpuSimulator + serial timeDrawWork loops (the A/B
     *  reference — the pre-engine shape of the sweep studies). */
    Naive = 1,

    /** Blocked multi-config kernel over the SoA columns. */
    Engine = 2,
};

/** Resolve a path against GWS_NAIVE_SWEEP (read once per process). */
bool sweepUsesNaivePath(SweepPath path);

/** Always false. Kept only for perfbench validate's call; the next
 *  benchmark change removes that call and this declaration. */
inline bool
sweepUsesStreamedPath(SweepPath, std::size_t)
{
    return false;
}

/** trace.totalDraws(). Kept only for perfbench validate's call; the
 *  next benchmark change removes that call and this declaration. */
inline std::size_t
traceDrawCount(const Trace &trace)
{
    return trace.totalDraws();
}

/** retimeAll() options. */
struct SweepConfig
{
    /** Implementation selection. */
    SweepPath path = SweepPath::Auto;

    /**
     * Also record every per-draw cost (configs × draws doubles).
     * Needed when the caller expands representative costs through a
     * prediction mode (subset sweeps); off for parent sweeps where
     * only group/trace totals matter.
     */
    bool perDraw = false;

    /** Groups per parallel chunk (0 = 1, one frame/unit per chunk).
     *  Only the naive partition path chunks by count; the balanced
     *  path derives cost-balanced shard bounds instead. */
    std::size_t groupGrain = 0;

    /**
     * How groups are sharded across threads: Balanced uses
     * cost-balanced contiguous shards from partitionTraceShards()
     * (equal per-shard draw work, so skewed traces keep every thread
     * busy), Naive the uniform groupGrain chunking, Auto the process
     * default (GWS_NAIVE_SHARD / setDefaultPartitionPath). Sharding
     * is pure scheduling — results are bit-identical on every path.
     */
    PartitionPath partition = PartitionPath::Auto;

    /** Shard count for the balanced path (0 = defaultShardCount). */
    std::size_t shardCount = 0;
};

/** All totals of one retimeAll() pass. */
struct SweepResult
{
    /** Configs evaluated (the span's size, in order). */
    std::size_t configCount = 0;

    /** Groups in the work trace. */
    std::size_t groupCount = 0;

    /** Draws in the work trace. */
    std::size_t drawCount = 0;

    /** Per-config trace total (chain of group costs). */
    std::vector<double> totalNs;

    /** Per-config, per-group cost incl. frame overhead; [c × groups + g]. */
    std::vector<double> groupNs;

    /** Per-config bottleneck time by stage; [c × numStages + s]. */
    std::vector<double> bottleneckNs;

    /** Per-config bottleneck draw count by stage; [c × numStages + s]. */
    std::vector<std::uint64_t> bottleneckCount;

    /** Per-config per-draw cost when SweepConfig::perDraw; [c × draws + i]. */
    std::vector<double> drawNs;

    /** Cost of group g under config c. */
    double groupNsAt(std::size_t c, std::size_t g) const
    {
        return groupNs[c * groupCount + g];
    }

    /** Cost of draw i under config c (perDraw runs only). */
    double drawNsAt(std::size_t c, std::size_t i) const
    {
        return drawNs[c * drawCount + i];
    }

    /** Bottleneck time of stage s under config c. */
    double bottleneckNsAt(std::size_t c, Stage s) const
    {
        return bottleneckNs[c * numStages + static_cast<std::size_t>(s)];
    }

    /** Draws bottlenecked on stage s under config c. */
    std::uint64_t bottleneckCountAt(std::size_t c, Stage s) const
    {
        return bottleneckCount[c * numStages +
                               static_cast<std::size_t>(s)];
    }
};

/**
 * Evaluate all draws × all configs. Every config must share the work
 * trace's capacity hash (clock / throughput changes only) — capacity
 * changes need a fresh WorkTrace. Panics otherwise.
 */
SweepResult retimeAll(const WorkTrace &trace,
                      std::span<const GpuConfig> configs,
                      const SweepConfig &config = {});

/**
 * Flatten a subset's representative draws: one group per SubsetUnit,
 * rows in cluster order (the order predictItemCosts expects its
 * representative costs in). Built in parallel like buildWorkTrace.
 */
WorkTrace buildSubsetWorkTrace(const Trace &trace,
                               const WorkloadSubset &subset,
                               const GpuSimulator &simulator);

/** base with every scale applied to the core clock, in sweep order. */
std::vector<GpuConfig> clockSweepConfigs(const GpuConfig &base,
                                         const std::vector<double> &scales);

} // namespace gws

#endif // GWS_CORE_SWEEP_HH
