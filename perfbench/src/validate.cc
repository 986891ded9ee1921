/**
 * @file
 * validate: Fig. 7 and Fig. 9 on CI-scale playthroughs read back from
 * trace files written at set-up. For each game: buildWorkloadSubset,
 * the 8-point core-clock sweep and the five-preset ranking, each
 * priced on the full parent and on the subset. Draw-work simulation
 * inside buildWorkTrace (texture stream and cache model) dominates;
 * the parent draws overflow the draw-work memo cache.
 */

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <string>

#include "bench.hh"
#include "core/freq_scaling.hh"
#include "core/pathfinding.hh"
#include "gpusim/draw_work_cache.hh"
#include "spans.hh"
#include "trace/trace_io.hh"
#include "util/stats.hh"

namespace perfbench {

namespace {

using namespace gws;

/** What one game's two studies produce (the checked outputs). */
struct GameResult
{
    bool ok = false;
    std::uint64_t parentDraws = 0;
    std::uint64_t subsetDraws = 0;
    std::uint32_t phases = 0;

    /** Frequency sweep: parent and subset cost per clock point. */
    std::vector<double> freqParentNs;
    std::vector<double> freqSubsetNs;
    double correlation = 0.0;

    /** Pathfinding: parent and subset cost per preset. */
    std::vector<double> designParentNs;
    std::vector<double> designSubsetNs;
    std::vector<std::size_t> parentRanking;
    std::vector<std::size_t> subsetRanking;
    bool rankingPreserved = false;
};

/** rank[i] = position of item i sorted ascending (runPathfinding's). */
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

bool
allValid(const std::vector<double> &costs)
{
    return std::all_of(costs.begin(), costs.end(), validCost);
}

std::vector<GpuConfig>
presetDesigns()
{
    std::vector<GpuConfig> designs;
    for (const std::string &name : gpuPresetNames())
        designs.push_back(makeGpuPreset(name));
    return designs;
}

/** buildWorkTrace + retimeAll over the parent, one span each. */
SweepResult
sweepParent(const Trace &trace, const GpuSimulator &sim,
            const std::vector<GpuConfig> &configs)
{
    if (sweepUsesStreamedPath(SweepPath::Auto, traceDrawCount(trace)))
        throw std::runtime_error(
            "validate: parent trace would stream out of core");
    WorkTrace work;
    {
        SpanScope span("gpusim.work_build");
        work = buildWorkTrace(trace, sim);
        span.setItems(work.drawCount());
    }
    SpanScope span("core.retime");
    SweepResult sweep = retimeAll(work, configs, SweepConfig{});
    span.setItems(work.drawCount() * configs.size());
    return sweep;
}

/** runFreqScaling through its constituent calls. */
void
freqScalingDecomposed(const Trace &trace, const WorkloadSubset &subset,
                      GameResult &r)
{
    const FreqScalingConfig fcfg;
    const GpuConfig base = makeGpuPreset("baseline");
    const GpuSimulator base_sim(base);
    const std::vector<GpuConfig> points =
        clockSweepConfigs(base, fcfg.scales);
    const SweepResult parent_sweep = sweepParent(trace, base_sim, points);

    WorkTrace subset_work;
    {
        SpanScope span("gpusim.work_build");
        subset_work = buildSubsetWorkTrace(trace, subset, base_sim);
        span.setItems(subset_work.drawCount());
    }
    SweepResult subset_sweep;
    {
        SpanScope span("core.retime");
        SweepConfig pass;
        pass.perDraw = true;
        subset_sweep = retimeAll(subset_work, points, pass);
        span.setItems(subset_work.drawCount() * points.size());
    }

    SpanScope span("core.predict");
    for (std::size_t c = 0; c < points.size(); ++c) {
        r.freqParentNs.push_back(parent_sweep.totalNs[c]);
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
        r.freqSubsetNs.push_back(subset_total);
    }
    const double parent_base = r.freqParentNs[fcfg.baselineIndex];
    const double subset_base = r.freqSubsetNs[fcfg.baselineIndex];
    std::vector<double> parent_impr, subset_impr;
    for (std::size_t i = 0; i < points.size(); ++i) {
        parent_impr.push_back(parent_base / r.freqParentNs[i]);
        subset_impr.push_back(subset_base / r.freqSubsetNs[i]);
    }
    r.correlation = pearson(parent_impr, subset_impr);
}

/** runPathfinding (engine path) through its constituent calls. */
void
pathfindingDecomposed(const Trace &trace, const WorkloadSubset &subset,
                      const std::vector<GpuConfig> &designs, GameResult &r)
{
    // Designs sharing a capacity hash share one work trace and one
    // retime pass, in first-seen order.
    std::vector<std::uint64_t> keys;
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const std::uint64_t key = capacityConfigHash(designs[i]);
        const auto it = std::find(keys.begin(), keys.end(), key);
        if (it == keys.end()) {
            keys.push_back(key);
            groups.push_back({i});
        } else {
            groups[static_cast<std::size_t>(it - keys.begin())].push_back(i);
        }
    }
    r.designParentNs.assign(designs.size(), 0.0);
    for (const std::vector<std::size_t> &members : groups) {
        std::vector<GpuConfig> configs;
        for (std::size_t i : members)
            configs.push_back(designs[i]);
        const SweepResult sweep = sweepParent(
            trace, GpuSimulator(designs[members.front()]), configs);
        for (std::size_t m = 0; m < members.size(); ++m)
            r.designParentNs[members[m]] = sweep.totalNs[m];
    }
    for (const GpuConfig &design : designs)
        r.designSubsetNs.push_back(
            priceSubset(trace, subset, GpuSimulator(design)));
    r.parentRanking = rankOf(r.designParentNs);
    r.subsetRanking = rankOf(r.designSubsetNs);
    r.rankingPreserved = r.parentRanking == r.subsetRanking;
}

bool
sameCosts(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!sameBits(a[i], b[i]))
            return false;
    return true;
}

bool
costsValid(const GameResult &r)
{
    return allValid(r.freqParentNs) && allValid(r.freqSubsetNs) &&
           allValid(r.designParentNs) && allValid(r.designSubsetNs);
}

class Validate final : public Workload
{
  public:
    void
    setup(std::uint64_t seed, const std::string &work_dir) override
    {
        files.clear();
        for (const GameProfile &p : seededProfiles(SuiteScale::Ci, seed)) {
            const Trace trace = generateGame(p);
            TraceFile file{work_dir + "/" + p.name + ".trace", 0};
            SpanScope span("trace.write");
            writeTraceFile(trace, file.path);
            file.bytes = std::filesystem::file_size(file.path);
            span.setItems(file.bytes);
            files.push_back(std::move(file));
        }
    }

    void
    reference() override
    {
        const std::vector<GpuConfig> designs = presetDesigns();
        ref.clear();
        for (const TraceFile &file : files) {
            GameResult r;
            try {
                const Trace trace = readTraceFile(file.path);
                const WorkloadSubset subset =
                    buildWorkloadSubset(trace, SubsetConfig{});
                r.parentDraws = subset.parentDraws;
                r.subsetDraws = subset.subsetDraws();
                r.phases = subset.timeline.phaseCount;
                const FreqScalingResult fr =
                    runFreqScaling(trace, subset, makeGpuPreset("baseline"),
                                   FreqScalingConfig{});
                r.freqParentNs = fr.parentNs;
                r.freqSubsetNs = fr.subsetNs;
                r.correlation = fr.correlation;
                const PathfindingResult pr =
                    runPathfinding(trace, subset, designs);
                for (const DesignPointScore &s : pr.points) {
                    r.designParentNs.push_back(s.parentNs);
                    r.designSubsetNs.push_back(s.subsetNs);
                }
                r.parentRanking = pr.parentRanking;
                r.subsetRanking = pr.subsetRanking;
                r.rankingPreserved = pr.rankingPreserved;
                r.ok = costsValid(r);
            } catch (const std::exception &) {
                r.ok = false;
            }
            ref.push_back(std::move(r));
        }
    }

    void
    pass() override
    {
        const std::vector<GpuConfig> designs = presetDesigns();
        last.clear();
        for (const TraceFile &file : files) {
            OperationScope op("validate.game");
            GameResult r;
            try {
                Trace trace;
                {
                    SpanScope span("trace.read");
                    trace = readTraceFile(file.path);
                    span.setItems(file.bytes);
                }
                PhaseTimeline timeline;
                {
                    SpanScope span("phase.detect");
                    timeline = detectPhases(trace, PhaseConfig{});
                    span.setItems(timeline.phaseCount);
                }
                WorkloadSubset subset;
                {
                    SpanScope span("core.subset");
                    subset = buildWorkloadSubset(trace, SubsetConfig{});
                    span.setItems(subset.subsetDraws());
                }
                if (timeline.phaseSequence() !=
                    subset.timeline.phaseSequence())
                    throw std::runtime_error("phase timelines differ");
                r.parentDraws = subset.parentDraws;
                r.subsetDraws = subset.subsetDraws();
                r.phases = timeline.phaseCount;
                freqScalingDecomposed(trace, subset, r);
                pathfindingDecomposed(trace, subset, designs, r);
                r.ok = costsValid(r);
            } catch (const std::exception &) {
                r.ok = false;
            }
            last.push_back(std::move(r));
        }
    }

    PassCheck
    check() const override
    {
        PassCheck out;
        Digest d;
        for (std::size_t g = 0; g < last.size(); ++g) {
            const GameResult &a = last[g];
            const GameResult &b = ref[g];
            ++out.attempted;
            out.failed += a.ok ? 0 : 1;
            d.add(static_cast<std::uint64_t>(a.ok));
            d.add(a.parentDraws);
            d.add(a.subsetDraws);
            d.add(static_cast<std::uint64_t>(a.phases));
            for (double v : a.freqParentNs)
                d.add(v);
            for (double v : a.freqSubsetNs)
                d.add(v);
            d.add(a.correlation);
            for (double v : a.designParentNs)
                d.add(v);
            for (double v : a.designSubsetNs)
                d.add(v);
            const bool same =
                a.ok == b.ok && a.parentDraws == b.parentDraws &&
                a.subsetDraws == b.subsetDraws && a.phases == b.phases &&
                sameCosts(a.freqParentNs, b.freqParentNs) &&
                sameCosts(a.freqSubsetNs, b.freqSubsetNs) &&
                sameBits(a.correlation, b.correlation) &&
                sameCosts(a.designParentNs, b.designParentNs) &&
                sameCosts(a.designSubsetNs, b.designSubsetNs) &&
                a.parentRanking == b.parentRanking &&
                a.subsetRanking == b.subsetRanking &&
                a.rankingPreserved == b.rankingPreserved;
            if (!same)
                out.mismatches.push_back(
                    "validate: game " + std::to_string(g) +
                    " differs from runFreqScaling/runPathfinding");
        }
        out.digest = d.value();
        return out;
    }

    void
    fidelity(Metrics &out) const override
    {
        double min_corr = 1.0;
        std::uint64_t preserved = 0, games = 0, parent = 0, sub = 0;
        for (const GameResult &r : last) {
            if (!r.ok)
                continue;
            min_corr = std::min(min_corr, r.correlation);
            preserved += r.rankingPreserved ? 1 : 0;
            ++games;
            parent += r.parentDraws;
            sub += r.subsetDraws;
        }
        out.push_back({"min_corr_pct", min_corr * 100.0, "%"});
        out.push_back({"rank_preserved_pct",
                       games ? 100.0 * static_cast<double>(preserved) /
                                   static_cast<double>(games)
                             : 0.0,
                       "%"});
        out.push_back({"subset_draw_pct",
                       parent ? 100.0 * static_cast<double>(sub) /
                                    static_cast<double>(parent)
                              : 0.0,
                       "%"});
    }

    std::vector<std::string>
    drivenPrefixes() const override
    {
        return {"runtime.", "gpusim.drawCache.", "gpusim.texBind.",
                "cluster.leader.", "gws.part."};
    }

  private:
    /** One game's playthrough as written at set-up. */
    struct TraceFile
    {
        std::string path;
        std::uint64_t bytes = 0;
    };

    std::vector<TraceFile> files;
    std::vector<GameResult> ref;
    std::vector<GameResult> last;
};

} // namespace

std::unique_ptr<Workload>
makeValidate()
{
    return std::make_unique<Validate>();
}

} // namespace perfbench
