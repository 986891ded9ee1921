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
    SweepConfig subset_pass;
    subset_pass.perDraw = true; // representative costs feed prediction

    const SweepResult parent_sweep =
        retimeAll(buildWorkTrace(trace, base_sim), points);

    const WorkTrace subset_work =
        buildSubsetWorkTrace(trace, subset, base_sim);
    const SweepResult subset_sweep =
        retimeAll(subset_work, points, subset_pass);

    result.parentNs = parent_sweep.totalNs;
    result.subsetNs =
        priceSubsetSweep(subset, subset_work, subset_sweep, points);

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
