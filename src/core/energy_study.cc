#include "core/energy_study.hh"

#include <algorithm>

#include "runtime/counters.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace gws {

bool
DvfsResult::optimumWithinOneStep() const
{
    const std::size_t lo = std::min(parentOptimal, subsetOptimal);
    const std::size_t hi = std::max(parentOptimal, subsetOptimal);
    return hi - lo <= 1;
}

DvfsResult
runDvfsStudy(const Trace &trace, const WorkloadSubset &subset,
             const GpuConfig &base, const DvfsConfig &config)
{
    GWS_ASSERT(!config.scales.empty(), "empty DVFS sweep");
    config.power.validate();
    ScopedRegion region("core.runDvfsStudy");

    // --- compute once: flatten parent and subset work ---------------------
    // DRAM traffic is clock-independent, so both totals come straight
    // off the DRAM column (parent: every draw in row order; subset:
    // representative traffic expanded like costs).
    const GpuSimulator base_sim(base);
    const WorkTrace subset_work =
        buildSubsetWorkTrace(trace, subset, base_sim);

    const double *rep_dram_col = subset_work.dramBytes();
    double subset_dram = 0.0;
    std::vector<double> unit_dram(subset.units.size(), 0.0);
    for (std::size_t u = 0; u < subset.units.size(); ++u) {
        const SubsetUnit &unit = subset.units[u];
        std::vector<double> rep_dram;
        rep_dram.reserve(subset_work.groupEnd(u) -
                         subset_work.groupBegin(u));
        for (std::size_t i = subset_work.groupBegin(u);
             i < subset_work.groupEnd(u); ++i)
            rep_dram.push_back(rep_dram_col[i]);
        // Expand per-draw DRAM traffic the same way costs expand.
        const auto predicted = predictItemCosts(
            unit.frameSubset.clustering, rep_dram, subset.prediction,
            unit.frameSubset.workUnits);
        for (double bytes : predicted)
            unit_dram[u] += bytes;
        subset_dram += unit.frameWeight * unit_dram[u];
    }

    // --- retime many: every clock point in one engine pass each -----------
    const std::vector<GpuConfig> points =
        clockSweepConfigs(base, config.scales);
    SweepConfig subset_pass;
    subset_pass.perDraw = true;

    const WorkTrace parent_work = buildWorkTrace(trace, base_sim);
    const double parent_dram = parent_work.totalDramBytes();
    const SweepResult parent_sweep = retimeAll(parent_work, points);
    const SweepResult subset_sweep =
        retimeAll(subset_work, points, subset_pass);
    const std::vector<double> subset_ns =
        priceSubsetSweep(subset, subset_work, subset_sweep, points);

    // --- score every point -------------------------------------------------
    DvfsResult result;
    std::vector<double> parent_energy, subset_energy;
    std::vector<double> parent_edp, subset_edp;
    for (std::size_t c = 0; c < points.size(); ++c) {
        const GpuConfig &cfg = points[c];
        DvfsPoint point;
        point.scale = config.scales[c];
        point.parent = estimateEnergy(
            {parent_sweep.totalNs[c], parent_dram}, cfg, config.power);
        point.subset =
            estimateEnergy({subset_ns[c], subset_dram}, cfg, config.power);
        parent_energy.push_back(point.parent.totalJ());
        subset_energy.push_back(point.subset.totalJ());
        parent_edp.push_back(point.parent.energyDelay());
        subset_edp.push_back(point.subset.energyDelay());
        result.points.push_back(point);
    }

    for (std::size_t i = 1; i < result.points.size(); ++i) {
        if (parent_edp[i] < parent_edp[result.parentOptimal])
            result.parentOptimal = i;
        if (subset_edp[i] < subset_edp[result.subsetOptimal])
            result.subsetOptimal = i;
    }
    if (result.points.size() >= 2) {
        result.energyCorrelation = pearson(parent_energy, subset_energy);
        result.edpCorrelation = pearson(parent_edp, subset_edp);
    }
    return result;
}

} // namespace gws
