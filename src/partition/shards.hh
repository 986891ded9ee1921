/**
 * @file
 * Cost-balanced sharding for the sweep/simulate hot paths.
 *
 * The parallel engines used to split work by *count* — equal-length
 * index ranges — which leaves threads idle whenever cost is skewed
 * (one heavy quarter of the groups pins one shard while the rest
 * finish early). partitionTraceShards() splits by *cost* instead: it
 * partitions the chain graph of per-unit costs with the multilevel
 * partitioner, producing contiguous, equal-work shards.
 *
 * Bit-identity contract: sharding only changes which thread computes
 * which contiguous index range. Every consumer keeps per-unit results
 * index-addressed and folds reductions in ascending index order, so
 * any shard shape — uniform, cost-balanced, or a single shard — gives
 * bit-identical output. The consumers shard only when more than one
 * thread runs; on one thread they walk the units in order.
 */

#ifndef GWS_PARTITION_SHARDS_HH
#define GWS_PARTITION_SHARDS_HH

#include <cstddef>
#include <vector>

#include "partition/multilevel.hh"

namespace gws {

/**
 * A contiguous sharding of [0, n): shard s covers indices
 * [bounds[s], bounds[s+1]).
 */
struct ShardPlan
{
    /** Ascending shard boundaries; shardCount() + 1 entries. */
    std::vector<std::size_t> bounds{0};

    /** Total input cost per shard. */
    std::vector<double> costs;

    /** Max shard cost / ideal shard cost (1.0 = perfect). */
    double imbalance = 1.0;

    /** Number of shards (0 only for an empty input). */
    std::size_t shardCount() const { return bounds.size() - 1; }
};

/**
 * Split the cost sequence `unit_costs` (one entry per group / frame /
 * chunk unit) into up to `shards` contiguous equal-cost shards via the
 * multilevel chain partitioner's Balanced objective. The shard count
 * is clamped to
 * [1, units]; an empty input yields an empty plan (bounds == {0}).
 * Deterministic for equal inputs. Emits a `part.shard` span and the
 * gws.part.shard_* metrics.
 */
ShardPlan partitionTraceShards(const std::vector<double> &unit_costs,
                               std::size_t shards);

/**
 * Default shard count for `units` work units: two shards per resolved
 * worker thread (head-room for imperfect balance), clamped to
 * [1, units] (minimum 1 even when units == 0).
 */
std::size_t defaultShardCount(std::size_t units);

} // namespace gws

#endif // GWS_PARTITION_SHARDS_HH
