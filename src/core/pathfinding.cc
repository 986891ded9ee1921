#include "core/pathfinding.hh"

#include <algorithm>
#include <numeric>

#include "gpusim/draw_work_cache.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace gws {

namespace {

/** rank[i] = position of item i when sorted ascending by cost. */
std::vector<std::size_t>
rankOf(const std::vector<double> &costs)
{
    std::vector<std::size_t> order(costs.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return costs[a] < costs[b];
    });
    std::vector<std::size_t> rank(costs.size());
    for (std::size_t pos = 0; pos < order.size(); ++pos)
        rank[order[pos]] = pos;
    return rank;
}

/**
 * Parent cost of every design through the sweep engine: designs are
 * grouped by capacity hash (first-seen order), each group computes
 * its WorkTrace once and retimes all of its members in one pass. The
 * engine's accumulation contract matches simulateTrace, so the costs
 * are bit-identical to a per-design simulateTrace walk.
 */
std::vector<double>
parentCosts(const Trace &trace, const std::vector<GpuConfig> &designs)
{
    std::vector<std::uint64_t> group_keys;
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const std::uint64_t key = capacityConfigHash(designs[i]);
        std::size_t g = 0;
        while (g < group_keys.size() && group_keys[g] != key)
            ++g;
        if (g == group_keys.size()) {
            group_keys.push_back(key);
            groups.emplace_back();
        }
        groups[g].push_back(i);
    }

    std::vector<double> costs(designs.size(), 0.0);
    for (const std::vector<std::size_t> &members : groups) {
        const GpuSimulator sim(designs[members.front()]);
        std::vector<GpuConfig> configs;
        configs.reserve(members.size());
        for (std::size_t i : members)
            configs.push_back(designs[i]);
        const SweepResult sweep =
            retimeAll(buildWorkTrace(trace, sim), configs);
        for (std::size_t m = 0; m < members.size(); ++m)
            costs[members[m]] = sweep.totalNs[m];
    }
    return costs;
}

} // namespace

PathfindingResult
runPathfinding(const Trace &trace, const WorkloadSubset &subset,
               const std::vector<GpuConfig> &designs)
{
    GWS_ASSERT(designs.size() >= 2,
               "pathfinding needs at least two design points");
    obs::SpanScope span("core.runPathfinding");

    const std::vector<double> parent_costs = parentCosts(trace, designs);

    PathfindingResult result;
    std::vector<double> subset_costs;
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const GpuSimulator sim(designs[i]);
        DesignPointScore score;
        score.name = designs[i].name;
        score.parentNs = parent_costs[i];
        score.subsetNs = subset.predictTotalNs(trace, sim);
        subset_costs.push_back(score.subsetNs);
        result.points.push_back(std::move(score));
    }

    for (auto &score : result.points) {
        score.parentSpeedup = parent_costs[0] / score.parentNs;
        score.subsetSpeedup = subset_costs[0] / score.subsetNs;
    }

    result.parentRanking = rankOf(parent_costs);
    result.subsetRanking = rankOf(subset_costs);
    result.rankingPreserved =
        result.parentRanking == result.subsetRanking;

    std::vector<double> parent_speedups, subset_speedups;
    for (const auto &score : result.points) {
        parent_speedups.push_back(score.parentSpeedup);
        subset_speedups.push_back(score.subsetSpeedup);
    }
    result.speedupCorrelation = pearson(parent_speedups, subset_speedups);
    result.rankCorrelation = spearman(parent_costs, subset_costs);
    return result;
}

} // namespace gws
