/**
 * @file
 * The metrics-registry names the benchmark harness reads. perfbench's
 * LayerReport (perfbench/src/main.cc) turns these registry counters
 * and gauges into per-layer metrics; a name missing under a prefix a
 * workload drives makes a traced benchmark run malformed even when it
 * exits 0. This binary drives the library calls those workloads make
 * at 4 threads — a multi-frame buildWorkTrace + retimeAll, one k-means
 * and one leader clustering — and checks that every name is
 * registered. It runs alone in its own process, so a name registered
 * only on first use (the shard balancer's) shows up only if these
 * calls reach it.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cluster/kmeans.hh"
#include "cluster/leader.hh"
#include "core/sweep.hh"
#include "gpusim/gpu_simulator.hh"
#include "gpusim/work_trace.hh"
#include "obs/metrics.hh"
#include "runtime/runtime.hh"
#include "synth/generator.hh"
#include "util/rng.hh"

namespace gws {
namespace {

/** n random points spread over every feature dimension. */
std::vector<FeatureVector>
randomPoints(std::size_t n)
{
    Rng rng(7);
    std::vector<FeatureVector> points(n);
    for (auto &p : points)
        for (std::size_t d = 0; d < numFeatureDims; ++d)
            p.at(d) = rng.uniform(-3.0, 3.0);
    return points;
}

TEST(MetricNames, RegistryHoldsEveryNameTheBenchmarkReads)
{
    const RuntimeConfig saved = runtimeConfig();
    RuntimeConfig cfg = saved;
    cfg.threads = 4;
    setRuntimeConfig(cfg);

    GameProfile profile = builtinProfile("shock1", SuiteScale::Ci);
    profile.segments = 1;
    profile.segmentFramesMin = profile.segmentFramesMax = 4;
    profile.drawsPerFrame = 60.0;
    const Trace trace = GameGenerator(profile).generate();
    ASSERT_GE(trace.frameCount(), 2u);

    const GpuConfig base = makeGpuPreset("baseline");
    const WorkTrace work = buildWorkTrace(trace, GpuSimulator(base));
    retimeAll(work, clockSweepConfigs(base, {0.8, 1.2}));

    const std::vector<FeatureVector> points = randomPoints(400);
    KMeansConfig kcfg;
    kcfg.k = 12;
    kmeans(points, kcfg);
    leaderCluster(points, LeaderConfig{});

    setRuntimeConfig(saved);
    shutdownGlobalThreadPool();

    std::map<std::string, obs::MetricSnapshot> registry;
    for (obs::MetricSnapshot &row : obs::metricsRegistry().snapshot())
        registry.emplace(row.name, std::move(row));

    // Every name LayerReport reads under a prefix some workload drives.
    for (const char *name :
         {"gws.part.shard_plans", "gws.part.shard_imbalance",
          "runtime.parallelRegions", "runtime.inlineRegions",
          "runtime.tasksSubmitted", "runtime.workerIdleNs",
          "runtime.submitterWaitNs", "gpusim.drawCache.hits",
          "gpusim.drawCache.misses", "gpusim.texBind.hits",
          "gpusim.texBind.misses", "cluster.kmeans.boundsSkipped",
          "cluster.kmeans.fullScans", "cluster.leader.normRejects",
          "cluster.leader.distances"})
        EXPECT_TRUE(registry.contains(name)) << name << " not registered";

    // The calls above really reached the code behind those names.
    for (const char *name :
         {"gws.part.shard_plans", "runtime.parallelRegions",
          "runtime.tasksSubmitted", "gpusim.drawCache.misses",
          "cluster.kmeans.fullScans", "cluster.leader.distances"}) {
        const auto it = registry.find(name);
        if (it != registry.end()) {
            EXPECT_GT(it->second.counterValue, 0u) << name;
        }
    }
}

} // namespace
} // namespace gws
