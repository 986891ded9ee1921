/**
 * @file
 * Test-only oracles of the sweep engine: retimeAll written as the
 * per-design loops every sweep study ran before the engine (one
 * GpuSimulator per config walking the rows serially through
 * timeDrawWork), and the clock studies' subset price computed the
 * same way from the trace's representative draws. test_sweep and
 * test_partition share them.
 */

#ifndef GWS_TESTS_SWEEP_REFERENCE_HH
#define GWS_TESTS_SWEEP_REFERENCE_HH

#include <span>
#include <vector>

#include "core/subset_pipeline.hh"
#include "core/sweep.hh"
#include "gpusim/gpu_simulator.hh"
#include "gpusim/work_trace.hh"

namespace gws {

/**
 * retimeAll() as serial per-design loops. The group, trace and
 * histogram folds run in retimeAll's documented order: draws in row
 * order within a group, group partials in ascending group order.
 */
inline SweepResult
referenceRetimeAll(const WorkTrace &wt, std::span<const GpuConfig> configs,
                   bool per_draw)
{
    const std::size_t n_cfg = configs.size();
    const std::size_t groups = wt.groupCount();
    SweepResult result;
    result.configCount = n_cfg;
    result.groupCount = groups;
    result.drawCount = wt.drawCount();
    result.totalNs.assign(n_cfg, 0.0);
    result.groupNs.assign(n_cfg * groups, 0.0);
    result.bottleneckNs.assign(n_cfg * numStages, 0.0);
    result.bottleneckCount.assign(n_cfg * numStages, 0);
    if (per_draw)
        result.drawNs.assign(n_cfg * wt.drawCount(), 0.0);

    for (std::size_t c = 0; c < n_cfg; ++c) {
        const GpuSimulator sim(configs[c]);
        const double overhead = sim.config().frameOverheadUs * 1e3;
        double *hist_ns = &result.bottleneckNs[c * numStages];
        std::uint64_t *hist_count = &result.bottleneckCount[c * numStages];
        double trace_total = 0.0;
        for (std::size_t g = 0; g < groups; ++g) {
            double total = 0.0;
            double group_ns[numStages] = {};
            std::uint64_t group_count[numStages] = {};
            for (std::size_t i = wt.groupBegin(g); i < wt.groupEnd(g);
                 ++i) {
                const DrawCost dc = sim.timeDrawWork(wt.work(i));
                const auto s = static_cast<std::size_t>(dc.bottleneck);
                total += dc.totalNs;
                group_ns[s] += dc.totalNs;
                ++group_count[s];
                if (per_draw)
                    result.drawNs[c * wt.drawCount() + i] = dc.totalNs;
            }
            result.groupNs[c * groups + g] = total + overhead;
            trace_total += total + overhead;
            for (std::size_t s = 0; s < numStages; ++s) {
                hist_ns[s] += group_ns[s];
                hist_count[s] += group_count[s];
            }
        }
        result.totalNs[c] = trace_total;
    }
    return result;
}

/**
 * The clock studies' subset price under one config, without the
 * engine: each representative draw simulated with timeDrawWork, the
 * unit's costs expanded through predictItemCosts, the frame folded as
 * overhead + each predicted draw, weighted and summed in unit order.
 */
inline double
referenceSubsetSweepNs(const Trace &trace, const WorkloadSubset &subset,
                       const GpuConfig &config)
{
    const GpuSimulator sim(config);
    const double overhead = config.frameOverheadUs * 1e3;
    double total = 0.0;
    for (const SubsetUnit &unit : subset.units) {
        const Clustering &c = unit.frameSubset.clustering;
        const Frame &frame = trace.frame(unit.frameIndex);
        std::vector<double> rep_costs;
        for (std::size_t rep : c.representatives)
            rep_costs.push_back(
                sim.timeDrawWork(sim.computeDrawWorkUncached(
                                     trace, frame.draws()[rep]))
                    .totalNs);
        double frame_ns = overhead;
        for (double ns : predictItemCosts(c, rep_costs, subset.prediction,
                                          unit.frameSubset.workUnits))
            frame_ns += ns;
        total += unit.frameWeight * frame_ns;
    }
    return total;
}

} // namespace gws

#endif // GWS_TESTS_SWEEP_REFERENCE_HH
