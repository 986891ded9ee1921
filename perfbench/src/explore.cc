/**
 * @file
 * explore: production pathfinding. Subsets are built once per game;
 * a design grid (the five presets crossed with core-clock,
 * memory-clock and L2-size variants) is then priced on the subsets
 * only. The representative draws hit the draw-work memo cache almost
 * every time, so per-call overhead and fan-out dominate — the other
 * side of gpusim from validate's miss path.
 */

#include <string>

#include "bench.hh"
#include "phase/phase_detect.hh"
#include "spans.hh"

namespace perfbench {

namespace {

using namespace gws;

constexpr double coreClockScales[] = {0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4};
constexpr double memClockScales[] = {0.75, 0.875, 1.0, 1.25, 1.5};
constexpr double l2Scales[] = {0.5, 1.0, 2.0};

std::vector<GpuConfig>
designGrid()
{
    std::vector<GpuConfig> grid;
    for (const std::string &preset : gpuPresetNames()) {
        const GpuConfig base = makeGpuPreset(preset);
        for (double l2 : l2Scales)
            for (double core : coreClockScales)
                for (double mem : memClockScales) {
                    GpuConfig cfg = base;
                    cfg.name = preset + "/l2x" + std::to_string(l2) +
                               "/core" + std::to_string(core) + "/mem" +
                               std::to_string(mem);
                    cfg.l2.sizeBytes = static_cast<std::uint64_t>(
                        static_cast<double>(base.l2.sizeBytes) * l2);
                    cfg.coreClockGhz *= core;
                    cfg.memClockGhz *= mem;
                    grid.push_back(std::move(cfg));
                }
    }
    return grid;
}

class Explore final : public Workload
{
  public:
    void
    setup(std::uint64_t seed, const std::string &) override
    {
        suite.clear();
        for (const GameProfile &p : seededProfiles(SuiteScale::Ci, seed))
            suite.push_back(generateGame(p));
        designs = designGrid();
    }

    void
    reference() override
    {
        ref = run(false);
    }

    void
    pass() override
    {
        last = run(true);
    }

    PassCheck
    check() const override
    {
        PassCheck out;
        Digest d;
        for (std::size_t g = 0; g < suite.size(); ++g) {
            d.add(last.subsetDraws[g]);
            if (last.subsetDraws[g] != ref.subsetDraws[g])
                out.mismatches.push_back("explore: game " +
                                         std::to_string(g) +
                                         " subset size differs");
        }
        for (std::size_t i = 0; i < last.costs.size(); ++i) {
            ++out.attempted;
            const bool ok = validCost(last.costs[i]);
            out.failed += ok ? 0 : 1;
            d.add(last.costs[i]);
            if (!sameBits(last.costs[i], ref.costs[i]))
                out.mismatches.push_back(
                    "explore: design " + designs[i / suite.size()].name +
                    " game " + std::to_string(i % suite.size()) +
                    " differs from predictTotalNs");
        }
        out.digest = d.value();
        return out;
    }

    void
    fidelity(Metrics &out) const override
    {
        std::uint64_t parent = 0, sub = 0;
        for (std::size_t g = 0; g < suite.size(); ++g) {
            parent += suite[g].totalDraws();
            sub += last.subsetDraws[g];
        }
        out.push_back({"subset_draw_pct",
                       100.0 * static_cast<double>(sub) /
                           static_cast<double>(parent),
                       "%"});
    }

    std::vector<std::string>
    drivenPrefixes() const override
    {
        return {"runtime.", "gpusim.drawCache.", "gpusim.texBind.",
                "cluster.leader."};
    }

  private:
    /** Per game subset size; per (design, game) predicted cost. */
    struct Results
    {
        std::vector<std::uint64_t> subsetDraws;
        std::vector<double> costs; // [design × games + game]
    };

    Results
    run(bool decomposed) const
    {
        std::vector<WorkloadSubset> subsets;
        for (const Trace &trace : suite) {
            if (decomposed) {
                // The subset build detects phases itself; the separate
                // call times that layer on its own.
                SpanScope span("phase.detect");
                span.setItems(detectPhases(trace, PhaseConfig{}).phaseCount);
            }
            SpanScope span("core.subset");
            subsets.push_back(buildWorkloadSubset(trace, SubsetConfig{}));
            span.setItems(subsets.back().subsetDraws());
        }
        Results out;
        for (const WorkloadSubset &s : subsets)
            out.subsetDraws.push_back(s.subsetDraws());
        out.costs.assign(designs.size() * suite.size(), 0.0);
        for (std::size_t d = 0; d < designs.size(); ++d) {
            const GpuSimulator sim(designs[d]);
            for (std::size_t g = 0; g < suite.size(); ++g) {
                double &cost = out.costs[d * suite.size() + g];
                try {
                    if (decomposed) {
                        OperationScope op("explore.price");
                        cost = priceSubset(suite[g], subsets[g], sim);
                    } else {
                        cost = subsets[g].predictTotalNs(suite[g], sim);
                    }
                } catch (const std::exception &) {
                    cost = 0.0; // counted as failed
                }
            }
        }
        return out;
    }

    std::vector<Trace> suite;
    std::vector<GpuConfig> designs;
    Results ref;
    Results last;
};

} // namespace

std::unique_ptr<Workload>
makeExplore()
{
    return std::make_unique<Explore>();
}

} // namespace perfbench
