#include <cmath>

#include "bench.hh"
#include "cluster/quality.hh"
#include "runtime/parallel_for.hh"
#include "spans.hh"
#include "synth/generator.hh"

namespace perfbench {

using namespace gws;

bool
validCost(double ns)
{
    return std::isfinite(ns) && ns > 0.0;
}

namespace {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::vector<GameProfile>
seededProfiles(SuiteScale scale, std::uint64_t seed)
{
    std::vector<GameProfile> profiles = builtinSuite(scale);
    if (seed != 0)
        for (GameProfile &p : profiles)
            p.seed ^= splitmix64(seed);
    return profiles;
}

Trace
generateGame(const GameProfile &profile)
{
    SpanScope span("synth.generate");
    Trace trace = GameGenerator(profile).generate();
    span.setItems(trace.totalDraws());
    return trace;
}

double
priceSubset(const Trace &parent, const WorkloadSubset &subset,
            const GpuSimulator &simulator)
{
    const SpanContext ctx = currentContext();
    const double overhead = simulator.config().frameOverheadUs * 1e3;
    const std::vector<double> terms = parallelMap<double>(
        0, subset.units.size(), 1, [&](std::size_t i) {
            AdoptContext adopt(ctx);
            const SubsetUnit &u = subset.units[i];
            const Frame &frame = parent.frame(u.frameIndex);
            const Clustering &c = u.frameSubset.clustering;
            std::vector<double> rep_costs(c.k, 0.0);
            {
                SpanScope span("gpusim.price");
                for (std::size_t cl = 0; cl < c.k; ++cl) {
                    const DrawCall &rep = frame.draws()[c.representatives[cl]];
                    rep_costs[cl] = simulator.simulateDraw(parent, rep).totalNs;
                }
                span.setItems(c.k);
            }
            SpanScope span("core.predict");
            const std::vector<double> predicted = predictItemCosts(
                c, rep_costs, subset.prediction, u.frameSubset.workUnits);
            double total = 0.0;
            for (double ns : predicted)
                total += ns;
            return u.frameWeight * (total + overhead);
        });
    double total = 0.0;
    for (double t : terms)
        total += t;
    return total;
}

} // namespace perfbench
