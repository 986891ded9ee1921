#include "partition/shards.hh"

#include <algorithm>

#include "obs/obs.hh"
#include "runtime/runtime_config.hh"
#include "util/logging.hh"

namespace gws {

ShardPlan
partitionTraceShards(const std::vector<double> &unit_costs,
                     std::size_t shards)
{
    obs::SpanScope span("part.shard");
    ShardPlan plan;
    const std::size_t n = unit_costs.size();
    if (n == 0)
        return plan;
    shards = std::clamp<std::size_t>(shards, 1, n);

    PartitionConfig cfg;
    cfg.parts = shards;
    cfg.costFn = PartitionCostFn::Balanced;
    const PartitionResult res =
        multilevelPartition(buildChainGraph(unit_costs), cfg);

    // A chain partition is contiguous with parts numbered in index
    // order, so the assignment is a staircase; its steps are the
    // shard bounds.
    plan.bounds.reserve(shards + 1);
    for (std::size_t i = 1; i < n; ++i) {
        if (res.assignment[i] != res.assignment[i - 1]) {
            GWS_ASSERT(res.assignment[i] == res.assignment[i - 1] + 1,
                       "chain partition not contiguous at unit ", i);
            plan.bounds.push_back(i);
        }
    }
    plan.bounds.push_back(n);
    GWS_ASSERT(plan.shardCount() == shards,
               "chain partition produced ", plan.shardCount(),
               " shards, wanted ", shards);

    // Report costs from the raw inputs, not the floored node weights.
    plan.costs.assign(shards, 0.0);
    double total = 0.0;
    for (std::size_t s = 0; s < shards; ++s)
        for (std::size_t i = plan.bounds[s]; i < plan.bounds[s + 1];
             ++i) {
            plan.costs[s] += unit_costs[i];
            total += unit_costs[i];
        }
    const double ideal = total / static_cast<double>(shards);
    if (ideal > 0.0)
        plan.imbalance =
            *std::max_element(plan.costs.begin(), plan.costs.end()) /
            ideal;

    static auto &plans =
        obs::metricsRegistry().counter("gws.part.shard_plans");
    static auto &imb =
        obs::metricsRegistry().gauge("gws.part.shard_imbalance");
    plans.increment();
    imb.set(plan.imbalance);
    return plan;
}

std::size_t
defaultShardCount(std::size_t units)
{
    const std::size_t want = resolvedThreadCount() * 2;
    return std::max<std::size_t>(1, std::min(units, want));
}

} // namespace gws
