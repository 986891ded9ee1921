#include "core/freq_scaling.hh"

#include <cmath>

#include "runtime/counters.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace gws {

FreqScalingResult
runFreqScaling(const Trace &trace, const WorkloadSubset &subset,
               const GpuConfig &base, const FreqScalingConfig &config)
{
    GWS_ASSERT(!config.scales.empty(), "empty clock sweep");
    GWS_ASSERT(config.baselineIndex < config.scales.size(),
               "baseline index out of range");
    ScopedRegion region("core.runFreqScaling");

    FreqScalingResult result;
    result.scales = config.scales;

    // --- compute once, retime many -----------------------------------------
    const GpuSimulator base_sim(base);
    const std::vector<GpuConfig> points =
        clockSweepConfigs(base, config.scales);
    SweepConfig parent_pass;
    parent_pass.path = config.path;
    SweepConfig subset_pass = parent_pass;
    subset_pass.perDraw = true; // representative costs feed prediction

    const SweepResult parent_sweep =
        retimeAll(buildWorkTrace(trace, base_sim), points, parent_pass);

    const WorkTrace subset_work =
        buildSubsetWorkTrace(trace, subset, base_sim);
    const SweepResult subset_sweep =
        retimeAll(subset_work, points, subset_pass);

    for (std::size_t c = 0; c < points.size(); ++c) {
        result.parentNs.push_back(parent_sweep.totalNs[c]);

        // Expand each unit's representative costs through the
        // prediction mode, weight by the frames the unit stands for.
        const double overhead = points[c].frameOverheadUs * 1e3;
        double subset_total = 0.0;
        for (std::size_t u = 0; u < subset.units.size(); ++u) {
            const SubsetUnit &unit = subset.units[u];
            std::vector<double> rep_costs;
            rep_costs.reserve(subset_work.groupEnd(u) -
                              subset_work.groupBegin(u));
            for (std::size_t i = subset_work.groupBegin(u);
                 i < subset_work.groupEnd(u); ++i)
                rep_costs.push_back(subset_sweep.drawNsAt(c, i));
            const auto predicted = predictItemCosts(
                unit.frameSubset.clustering, rep_costs, subset.prediction,
                unit.frameSubset.workUnits);
            double frame_ns = overhead;
            for (double ns : predicted)
                frame_ns += ns;
            subset_total += unit.frameWeight * frame_ns;
        }
        result.subsetNs.push_back(subset_total);
    }

    // --- improvement curves & correlation ----------------------------------
    const double parent_base = result.parentNs[config.baselineIndex];
    const double subset_base = result.subsetNs[config.baselineIndex];
    GWS_ASSERT(parent_base > 0.0 && subset_base > 0.0,
               "degenerate baseline cost");
    for (std::size_t i = 0; i < config.scales.size(); ++i) {
        result.parentImprovement.push_back(parent_base /
                                           result.parentNs[i]);
        result.subsetImprovement.push_back(subset_base /
                                           result.subsetNs[i]);
        result.maxImprovementGap = std::max(
            result.maxImprovementGap,
            std::fabs(result.parentImprovement.back() -
                      result.subsetImprovement.back()));
    }
    result.correlation =
        pearson(result.parentImprovement, result.subsetImprovement);
    return result;
}

} // namespace gws
