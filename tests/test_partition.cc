/**
 * @file
 * Tests of the multilevel graph partitioner and its two consumers:
 * the cost-balanced shard planner feeding the sweep/simulate hot
 * paths (determinism, imbalance bounds, degenerate inputs, and the
 * bit-identity of naive vs balanced sharding at several thread and
 * shard counts) and the graph-partition clustering family (valid
 * clusterings at every k, all four cost functions).
 */

#include <gtest/gtest.h>

#include <vector>

#include "cluster/graph_partition.hh"
#include "core/sweep.hh"
#include "gpusim/draw_work_cache.hh"
#include "gpusim/gpu_simulator.hh"
#include "gpusim/work_trace.hh"
#include "partition/graph.hh"
#include "partition/multilevel.hh"
#include "partition/shards.hh"
#include "runtime/runtime.hh"
#include "synth/generator.hh"
#include "util/rng.hh"

namespace gws {
namespace {

/** A skewed cost chain: the first quarter `skew`-times heavier. */
std::vector<double>
skewedCosts(std::size_t n, double skew)
{
    std::vector<double> costs(n);
    for (std::size_t i = 0; i < n; ++i)
        costs[i] = i < n / 4 ? skew : 1.0;
    return costs;
}

/** Deterministic pseudo-random points in feature space. */
std::vector<FeatureVector>
testPoints(std::size_t n, std::uint64_t seed = 42)
{
    Rng rng(seed);
    std::vector<FeatureVector> points(n);
    for (auto &p : points)
        for (std::size_t d = 0; d < numFeatureDims; ++d)
            p.at(d) = rng.uniform(0.0, 1.0);
    return points;
}

bool
sameSweepResult(const SweepResult &a, const SweepResult &b)
{
    return a.configCount == b.configCount &&
           a.groupCount == b.groupCount && a.drawCount == b.drawCount &&
           a.totalNs == b.totalNs && a.groupNs == b.groupNs &&
           a.bottleneckNs == b.bottleneckNs &&
           a.bottleneckCount == b.bottleneckCount && a.drawNs == b.drawNs;
}

bool
sameTraceCost(const TraceCost &a, const TraceCost &b)
{
    if (a.totalNs != b.totalNs ||
        a.drawsSimulated != b.drawsSimulated ||
        a.frames.size() != b.frames.size())
        return false;
    for (std::size_t i = 0; i < a.frames.size(); ++i) {
        const FrameCost &fa = a.frames[i];
        const FrameCost &fb = b.frames[i];
        if (fa.frameIndex != fb.frameIndex ||
            fa.totalNs != fb.totalNs || fa.drawNs != fb.drawNs ||
            fa.bottleneckNs != fb.bottleneckNs ||
            fa.bottleneckCount != fb.bottleneckCount)
            return false;
    }
    return true;
}

/** Switch thread counts per call and restore on teardown. */
class PartitionTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved = runtimeConfig(); }

    void TearDown() override
    {
        setRuntimeConfig(saved);
        setDefaultPartitionPath(PartitionPath::Auto);
        shutdownGlobalThreadPool();
    }

    template <typename Fn>
    auto
    at(std::size_t threads, Fn &&fn)
    {
        RuntimeConfig cfg = saved;
        cfg.threads = threads;
        setRuntimeConfig(cfg);
        return fn();
    }

    RuntimeConfig saved;
};

// ------------------------------------------------------------ cost fns --

TEST(PartitionCostFnTest, ParseRoundTripsAndRejects)
{
    for (PartitionCostFn fn :
         {PartitionCostFn::Balanced, PartitionCostFn::CriticalPath,
          PartitionCostFn::Greedy, PartitionCostFn::MinMaxWorkloads}) {
        PartitionCostFn parsed = PartitionCostFn::Balanced;
        EXPECT_TRUE(parsePartitionCostFn(toString(fn), &parsed));
        EXPECT_EQ(parsed, fn);
    }
    PartitionCostFn parsed = PartitionCostFn::Greedy;
    EXPECT_FALSE(parsePartitionCostFn("metis", &parsed));
    EXPECT_FALSE(parsePartitionCostFn("", &parsed));
    EXPECT_EQ(parsed, PartitionCostFn::Greedy); // untouched on failure
}

// ------------------------------------------------------- chain partitions --

TEST(MultilevelPartitionTest, ChainPartitionsAreContiguousAndDeterministic)
{
    const std::vector<double> costs = skewedCosts(300, 12.0);
    const PartGraph graph = buildChainGraph(costs);
    graph.validate();

    for (PartitionCostFn fn :
         {PartitionCostFn::Balanced, PartitionCostFn::CriticalPath,
          PartitionCostFn::Greedy, PartitionCostFn::MinMaxWorkloads}) {
        PartitionConfig cfg;
        cfg.parts = 7;
        cfg.costFn = fn;
        const PartitionResult a = multilevelPartition(graph, cfg);
        const PartitionResult b = multilevelPartition(graph, cfg);
        EXPECT_EQ(a.assignment, b.assignment) << toString(fn);
        ASSERT_EQ(a.assignment.size(), costs.size());
        EXPECT_EQ(a.parts, 7u);

        // Contiguity: assignments form an ascending staircase.
        EXPECT_EQ(a.assignment.front(), 0u);
        for (std::size_t i = 1; i < a.assignment.size(); ++i) {
            ASSERT_GE(a.assignment[i], a.assignment[i - 1]);
            ASSERT_LE(a.assignment[i], a.assignment[i - 1] + 1);
        }
        EXPECT_EQ(a.assignment.back(), 6u);
    }
}

TEST(MultilevelPartitionTest, BalancedChainMeetsImbalanceBound)
{
    for (std::size_t n : {64u, 300u, 512u}) {
        const std::vector<double> costs = skewedCosts(n, 16.0);
        double total = 0.0;
        double max_cost = 0.0;
        for (double c : costs) {
            total += c;
            max_cost = std::max(max_cost, c);
        }
        for (std::size_t parts : {2u, 3u, 5u, 8u}) {
            // Contiguous shards can't split a unit, so the achievable
            // bound is granularity-limited: a part may exceed the
            // ideal by up to one unit before 1.10 becomes reachable
            // (e.g. 64 units with cost-16 heads against an ideal of
            // 38 bottom out at 48/38 ≈ 1.26).
            const double ideal = total / static_cast<double>(parts);
            const double bound =
                std::max(1.10, 1.0 + max_cost / ideal);
            PartitionConfig cfg;
            cfg.parts = parts;
            cfg.costFn = PartitionCostFn::Balanced;
            const PartitionResult res =
                multilevelPartition(buildChainGraph(costs), cfg);
            EXPECT_LE(res.imbalance, bound + 1e-9)
                << n << " units into " << parts << " parts";
        }
    }
}

TEST(MultilevelPartitionTest, DegenerateShapes)
{
    // Empty graph.
    const PartitionResult empty =
        multilevelPartition(buildChainGraph({}), {});
    EXPECT_EQ(empty.parts, 0u);
    EXPECT_TRUE(empty.assignment.empty());

    // Single node: parts clamp to 1.
    PartitionConfig cfg;
    cfg.parts = 4;
    const PartitionResult one =
        multilevelPartition(buildChainGraph({5.0}), cfg);
    EXPECT_EQ(one.parts, 1u);
    ASSERT_EQ(one.assignment.size(), 1u);
    EXPECT_EQ(one.assignment[0], 0u);

    // parts == n: identity.
    const PartitionResult id =
        multilevelPartition(buildChainGraph({1.0, 2.0, 3.0, 4.0}), cfg);
    EXPECT_EQ(id.parts, 4u);
    EXPECT_EQ(id.assignment,
              (std::vector<std::uint32_t>{0, 1, 2, 3}));
    EXPECT_DOUBLE_EQ(id.cutCost, 3.0); // every chain edge cut
}

// --------------------------------------------------------- general graphs --

TEST(MultilevelPartitionTest, GeneralGraphPartsNonEmptyEveryCostFn)
{
    // Two dense blobs joined by one weak edge; any sane objective
    // should keep each part non-empty and most of each blob together.
    std::vector<GraphEdge> edges;
    const std::uint32_t half = 20;
    for (std::uint32_t i = 0; i < half; ++i)
        for (std::uint32_t j = i + 1; j < half; ++j) {
            edges.push_back({i, j, 4.0});
            edges.push_back({i + half, j + half, 4.0});
        }
    edges.push_back({0, half, 0.1});
    const PartGraph graph =
        buildGraph(std::vector<double>(2 * half, 1.0), edges);
    graph.validate();

    for (PartitionCostFn fn :
         {PartitionCostFn::Balanced, PartitionCostFn::CriticalPath,
          PartitionCostFn::Greedy, PartitionCostFn::MinMaxWorkloads}) {
        PartitionConfig cfg;
        cfg.parts = 2;
        cfg.costFn = fn;
        const PartitionResult a = multilevelPartition(graph, cfg);
        const PartitionResult b = multilevelPartition(graph, cfg);
        EXPECT_EQ(a.assignment, b.assignment) << toString(fn);
        ASSERT_EQ(a.partWeights.size(), 2u);
        EXPECT_GT(a.partWeights[0], 0.0) << toString(fn);
        EXPECT_GT(a.partWeights[1], 0.0) << toString(fn);
        // The weak bridge is the natural cut.
        EXPECT_LE(a.cutCost, 8.0 + 0.1) << toString(fn);
    }
}

// ------------------------------------------------------------ shard plans --

TEST(ShardPlanTest, EdgeCases)
{
    // Empty input: no shards.
    const ShardPlan empty =
        partitionTraceShards({}, 4, PartitionCostFn::Balanced);
    EXPECT_EQ(empty.shardCount(), 0u);
    EXPECT_EQ(empty.bounds, std::vector<std::size_t>{0});

    // Single unit.
    const ShardPlan one =
        partitionTraceShards({3.0}, 4, PartitionCostFn::Balanced);
    EXPECT_EQ(one.shardCount(), 1u);
    EXPECT_EQ(one.bounds, (std::vector<std::size_t>{0, 1}));
    EXPECT_DOUBLE_EQ(one.imbalance, 1.0);

    // One shard spans everything.
    const ShardPlan single = partitionTraceShards(
        skewedCosts(10, 4.0), 1, PartitionCostFn::Balanced);
    EXPECT_EQ(single.shardCount(), 1u);
    EXPECT_EQ(single.bounds, (std::vector<std::size_t>{0, 10}));

    // More shards than units: clamped to one unit per shard.
    const ShardPlan clamped = partitionTraceShards(
        {1.0, 1.0, 1.0}, 9, PartitionCostFn::Balanced);
    EXPECT_EQ(clamped.shardCount(), 3u);
    EXPECT_EQ(clamped.bounds, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ShardPlanTest, BalancesSkewedCostsWithinBound)
{
    const std::vector<double> costs = skewedCosts(512, 16.0);
    for (std::size_t shards : {2u, 3u, 4u, 8u}) {
        const ShardPlan plan = partitionTraceShards(
            costs, shards, PartitionCostFn::Balanced);
        ASSERT_EQ(plan.shardCount(), shards);
        EXPECT_LE(plan.imbalance, 1.10) << shards << " shards";
        // Bounds tile [0, n) ascending.
        EXPECT_EQ(plan.bounds.front(), 0u);
        EXPECT_EQ(plan.bounds.back(), costs.size());
        for (std::size_t s = 1; s < plan.bounds.size(); ++s)
            EXPECT_LT(plan.bounds[s - 1], plan.bounds[s]);
    }
}

TEST(ShardPlanTest, DeterministicAcrossCalls)
{
    const std::vector<double> costs = skewedCosts(200, 8.0);
    for (PartitionCostFn fn :
         {PartitionCostFn::Balanced, PartitionCostFn::CriticalPath,
          PartitionCostFn::Greedy, PartitionCostFn::MinMaxWorkloads}) {
        const ShardPlan a = partitionTraceShards(costs, 5, fn);
        const ShardPlan b = partitionTraceShards(costs, 5, fn);
        EXPECT_EQ(a.bounds, b.bounds) << toString(fn);
    }
}

// ----------------------------------------------------- clustering family --

TEST(GraphPartitionClusterTest, ProducesValidClusterings)
{
    const auto points = testPoints(60);
    for (std::size_t k : {1u, 2u, 7u, 59u, 60u}) {
        GraphPartitionConfig cfg;
        cfg.targetK = k;
        const Clustering c = graphPartitionCluster(points, cfg);
        EXPECT_EQ(c.k, k);
        EXPECT_EQ(c.items(), points.size());
        // validate() ran inside; spot-check representative coherence.
        for (std::size_t i = 0; i < c.k; ++i)
            EXPECT_EQ(c.assignment[c.representatives[i]], i);
    }
}

TEST(GraphPartitionClusterTest, SinglePointAndEfficiencyTarget)
{
    const Clustering one = graphPartitionCluster(testPoints(1), {});
    EXPECT_EQ(one.k, 1u);
    EXPECT_EQ(one.representatives[0], 0u);

    GraphPartitionConfig cfg;
    cfg.targetEfficiency = 0.75;
    const Clustering c = graphPartitionCluster(testPoints(100), cfg);
    EXPECT_EQ(c.k, 25u); // n * (1 - 0.75)
    EXPECT_NEAR(c.efficiency(), 0.75, 1e-9);
}

TEST(GraphPartitionClusterTest, DeterministicAcrossCalls)
{
    const auto points = testPoints(80, 7);
    GraphPartitionConfig cfg;
    cfg.targetK = 10;
    const Clustering a = graphPartitionCluster(points, cfg);
    const Clustering b = graphPartitionCluster(points, cfg);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.representatives, b.representatives);
}

// ------------------------------------------------- sweep path bit-identity --

TEST_F(PartitionTest, RetimeAllBitIdenticalAcrossShardings)
{
    // A skewed synthetic work trace: heavy first quarter.
    std::vector<std::size_t> sizes(48);
    for (std::size_t g = 0; g < sizes.size(); ++g)
        sizes[g] = g < sizes.size() / 4 ? 160 : 10;
    WorkTrace wt(capacityConfigHash(makeGpuPreset("baseline")), sizes);
    Rng rng(99);
    for (std::size_t i = 0; i < wt.drawCount(); ++i) {
        DrawWork w;
        w.vertices = rng.uniform(10.0, 1000.0);
        w.primitives = w.vertices / 3.0;
        w.pixels = rng.uniform(100.0, 50000.0);
        w.vertexFetchBytes = w.vertices * 32.0;
        w.vsWeightedOps = w.vertices * 40.0;
        w.psWeightedOps = w.pixels * 20.0;
        w.ropPixels = w.pixels;
        w.traffic.texSamples =
            static_cast<std::uint64_t>(w.pixels);
        w.traffic.texDramBytes = w.pixels;
        wt.setRow(i, w);
    }
    const std::vector<GpuConfig> points = clockSweepConfigs(
        makeGpuPreset("baseline"), {0.6, 1.0, 1.4, 1.8});

    SweepConfig naive_cfg;
    naive_cfg.path = SweepPath::Engine;
    naive_cfg.partition = PartitionPath::Naive;
    naive_cfg.perDraw = true;
    const SweepResult reference =
        at(1, [&] { return retimeAll(wt, points, naive_cfg); });

    for (std::size_t threads : {1u, 4u}) {
        for (std::size_t shards : {1u, 3u, 4u}) {
            SweepConfig balanced_cfg = naive_cfg;
            balanced_cfg.partition = PartitionPath::Balanced;
            balanced_cfg.shardCount = shards;
            const SweepResult got = at(threads, [&] {
                return retimeAll(wt, points, balanced_cfg);
            });
            EXPECT_TRUE(sameSweepResult(reference, got))
                << threads << " threads, " << shards << " shards";
        }
    }
}

TEST_F(PartitionTest, RetimeAllEmptyAndSingleGroupTraces)
{
    const std::vector<GpuConfig> points =
        clockSweepConfigs(makeGpuPreset("baseline"), {0.8, 1.2});
    const std::uint64_t key =
        capacityConfigHash(makeGpuPreset("baseline"));

    for (const std::vector<std::size_t> &sizes :
         {std::vector<std::size_t>{}, std::vector<std::size_t>{5}}) {
        WorkTrace wt(key, sizes);
        for (std::size_t i = 0; i < wt.drawCount(); ++i) {
            DrawWork w;
            w.vertices = 100.0;
            w.pixels = 1000.0;
            w.vsWeightedOps = 4000.0;
            w.psWeightedOps = 20000.0;
            wt.setRow(i, w);
        }
        SweepConfig naive_cfg;
        naive_cfg.partition = PartitionPath::Naive;
        SweepConfig balanced_cfg;
        balanced_cfg.partition = PartitionPath::Balanced;
        const SweepResult a = at(4, [&] {
            return retimeAll(wt, points, naive_cfg);
        });
        const SweepResult b = at(4, [&] {
            return retimeAll(wt, points, balanced_cfg);
        });
        EXPECT_TRUE(sameSweepResult(a, b))
            << sizes.size() << " groups";
    }
}

TEST_F(PartitionTest, SimulateTraceBitIdenticalOnBalancedPath)
{
    const Trace trace =
        GameGenerator(builtinProfile("shock1", SuiteScale::Ci))
            .generate();
    const GpuSimulator sim(makeGpuPreset("baseline"));

    setDefaultPartitionPath(PartitionPath::Naive);
    const TraceCost naive =
        at(4, [&] { return sim.simulateTrace(trace); });

    setDefaultPartitionPath(PartitionPath::Balanced);
    for (std::size_t threads : {1u, 4u}) {
        const TraceCost balanced =
            at(threads, [&] { return sim.simulateTrace(trace); });
        EXPECT_TRUE(sameTraceCost(naive, balanced))
            << threads << " threads";
    }
    setDefaultPartitionPath(PartitionPath::Auto);
}

TEST_F(PartitionTest, StreamedSweepBitIdenticalOnBalancedPath)
{
    const Trace trace =
        GameGenerator(builtinProfile("shock1", SuiteScale::Ci))
            .generate();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const std::vector<GpuConfig> points = clockSweepConfigs(
        makeGpuPreset("baseline"), {0.7, 1.0, 1.5});
    const WorkTrace wt = buildWorkTrace(trace, sim);

    SweepConfig naive_cfg;
    naive_cfg.partition = PartitionPath::Naive;
    const SweepResult reference =
        at(1, [&] { return retimeAll(wt, points, naive_cfg); });

    SweepConfig balanced_cfg;
    balanced_cfg.partition = PartitionPath::Balanced;
    const SweepResult streamed = at(4, [&] {
        StreamOptions opt;
        opt.memBudgetBytes = 1 << 20;
        StreamingWorkTrace stream(trace, sim, opt);
        return retimeAllStreamed(stream, points, balanced_cfg);
    });
    EXPECT_TRUE(sameSweepResult(reference, streamed));
}

TEST_F(PartitionTest, DefaultPathPinningResolves)
{
    const PartitionPath original = defaultPartitionPath();

    setDefaultPartitionPath(PartitionPath::Naive);
    EXPECT_TRUE(partitionUsesNaivePath(PartitionPath::Auto));
    EXPECT_EQ(defaultPartitionPath(), PartitionPath::Naive);

    setDefaultPartitionPath(PartitionPath::Balanced);
    EXPECT_FALSE(partitionUsesNaivePath(PartitionPath::Auto));
    EXPECT_EQ(defaultPartitionPath(), PartitionPath::Balanced);

    // Explicit paths ignore the pin.
    EXPECT_TRUE(partitionUsesNaivePath(PartitionPath::Naive));
    EXPECT_FALSE(partitionUsesNaivePath(PartitionPath::Balanced));

    setDefaultPartitionPath(PartitionPath::Auto);
    EXPECT_EQ(defaultPartitionPath(), original);
}

} // namespace
} // namespace gws
