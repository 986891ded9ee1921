/**
 * @file
 * characterize: Fig. 2/3 on paper-size frames. Corpus frames are
 * sampled from the seeded paper-scale suite; every frame is evaluated
 * under all four clustering families with a full ground-truth
 * simulation of every draw. The cluster module does most of the work.
 */

#include <string>

#include "bench.hh"
#include "core/predictor.hh"
#include "features/extractor.hh"
#include "spans.hh"
#include "synth/suite.hh"

namespace perfbench {

namespace {

using namespace gws;

/**
 * Corpus frames evaluated per pass (about 1,150 draws each). Frame
 * size drives clustering cost superlinearly; at 12 frames the sum of
 * squared frame sizes varied 0.16 (quartile spread over the median)
 * across seeds 0-9, at 36 frames 0.06.
 */
constexpr std::uint64_t corpusFrames = 36;

constexpr ClusterAlgo families[] = {
    ClusterAlgo::Leader, ClusterAlgo::KMeansBic,
    ClusterAlgo::Agglomerative, ClusterAlgo::GraphPartition};
constexpr std::size_t numFamilies = std::size(families);

/** Span name of each family's clustering call. */
constexpr const char *clusterSpans[numFamilies] = {
    "cluster.leader", "cluster.kmeans_bic", "cluster.agglomerative",
    "cluster.graphpart"};

/** One evaluation of one frame under one family. */
struct FrameResult
{
    bool ok = false;
    FramePredictionReport report;
};

DrawSubsetConfig
familyConfig(std::size_t f)
{
    DrawSubsetConfig cfg;
    cfg.algo = families[f];
    return cfg;
}

/**
 * evaluateFramePrediction through its constituent calls: feature
 * extraction, the family's clustering function, drawWorkUnits,
 * simulateDraw on every draw, predictItemCosts and
 * assessClusterQuality — the same calls in the same order.
 */
FramePredictionReport
evaluateDecomposed(const Trace &trace, const Frame &frame,
                   const GpuSimulator &sim, std::size_t f)
{
    const DrawSubsetConfig cfg = familyConfig(f);
    std::vector<FeatureVector> points;
    {
        SpanScope span("features.extract");
        const FeatureExtractor extractor(trace);
        const auto raw = extractor.extractFrame(frame);
        const Normalizer norm = Normalizer::fit(raw);
        points = projectFeatures(norm.applyAll(raw), cfg.features);
        span.setItems(points.size());
    }
    FrameSubset subset;
    {
        SpanScope span(clusterSpans[f]);
        switch (cfg.algo) {
          case ClusterAlgo::Leader:
            subset.clustering = leaderCluster(points, cfg.leader);
            break;
          case ClusterAlgo::KMeansBic:
            subset.clustering = selectK(points, cfg.kselect).clustering;
            break;
          case ClusterAlgo::Agglomerative:
            subset.clustering = agglomerativeCluster(points, cfg.agglo);
            break;
          case ClusterAlgo::GraphPartition:
            subset.clustering =
                graphPartitionCluster(points, cfg.graphPart);
            break;
        }
        span.setItems(points.size());
    }
    {
        SpanScope span("core.predict");
        subset.workUnits.reserve(frame.drawCount());
        for (const auto &draw : frame.draws())
            subset.workUnits.push_back(drawWorkUnits(trace, draw));
    }
    const Clustering &c = subset.clustering;

    FramePredictionReport report;
    report.frameIndex = frame.index();
    report.drawsTotal = frame.drawCount();
    report.drawsSimulated = c.k;
    report.efficiency = c.efficiency();

    std::vector<double> costs;
    costs.reserve(frame.drawCount());
    double actual = 0.0;
    {
        SpanScope span("gpusim.truth");
        for (const auto &draw : frame.draws()) {
            costs.push_back(sim.simulateDraw(trace, draw).totalNs);
            actual += costs.back();
        }
        span.setItems(frame.drawCount());
    }
    const double overhead = sim.config().frameOverheadUs * 1e3;
    report.actualNs = actual + overhead;
    {
        SpanScope span("core.predict");
        std::vector<double> rep_costs(c.k, 0.0);
        for (std::size_t cl = 0; cl < c.k; ++cl)
            rep_costs[cl] = costs[c.representatives[cl]];
        const auto predicted = predictItemCosts(c, rep_costs,
                                                cfg.prediction,
                                                subset.workUnits);
        double predicted_total = 0.0;
        for (double ns : predicted)
            predicted_total += ns;
        report.predictedNs = predicted_total + overhead;
    }
    {
        SpanScope span("cluster.quality");
        report.quality = assessClusterQuality(c, costs, cfg.prediction,
                                              subset.workUnits);
    }
    return report;
}

void
digestReport(Digest &d, const FrameResult &r)
{
    d.add(static_cast<std::uint64_t>(r.ok));
    if (!r.ok)
        return;
    const FramePredictionReport &p = r.report;
    d.add(static_cast<std::uint64_t>(p.frameIndex));
    d.add(p.actualNs);
    d.add(p.predictedNs);
    d.add(static_cast<std::uint64_t>(p.drawsTotal));
    d.add(static_cast<std::uint64_t>(p.drawsSimulated));
    d.add(p.efficiency);
    for (double e : p.quality.intraError)
        d.add(e);
    d.add(p.quality.meanIntraError);
    d.add(static_cast<std::uint64_t>(p.quality.outliers));
    d.add(p.quality.outlierFraction);
}

bool
sameReport(const FramePredictionReport &a, const FramePredictionReport &b)
{
    if (a.frameIndex != b.frameIndex || a.drawsTotal != b.drawsTotal ||
        a.drawsSimulated != b.drawsSimulated ||
        !sameBits(a.actualNs, b.actualNs) ||
        !sameBits(a.predictedNs, b.predictedNs) ||
        !sameBits(a.efficiency, b.efficiency) ||
        a.quality.intraError.size() != b.quality.intraError.size() ||
        !sameBits(a.quality.meanIntraError, b.quality.meanIntraError) ||
        a.quality.outliers != b.quality.outliers ||
        !sameBits(a.quality.outlierFraction, b.quality.outlierFraction))
        return false;
    for (std::size_t i = 0; i < a.quality.intraError.size(); ++i)
        if (!sameBits(a.quality.intraError[i], b.quality.intraError[i]))
            return false;
    return true;
}

class Characterize final : public Workload
{
  public:
    void
    setup(std::uint64_t seed, const std::string &) override
    {
        suite.clear(); // one paper-scale suite resident at a time
        for (const GameProfile &p : seededProfiles(SuiteScale::Paper, seed))
            suite.push_back(generateGame(p));
        SpanScope span("synth.sample");
        corpus = sampleCorpus(suite, corpusFrames);
        span.setItems(corpusDraws(suite, corpus));
    }

    void
    reference() override
    {
        ref = run([](const Trace &t, const Frame &frame,
                     const GpuSimulator &sim, std::size_t f) {
            return evaluateFramePrediction(t, frame, sim, familyConfig(f));
        });
    }

    void
    pass() override
    {
        last = run([](const Trace &t, const Frame &frame,
                      const GpuSimulator &sim, std::size_t f) {
            OperationScope op("characterize.frame");
            return evaluateDecomposed(t, frame, sim, f);
        });
    }

    PassCheck
    check() const override
    {
        PassCheck out;
        Digest d;
        for (std::size_t f = 0; f < numFamilies; ++f) {
            for (std::size_t i = 0; i < last[f].size(); ++i) {
                const FrameResult &a = last[f][i];
                const FrameResult &b = ref[f][i];
                ++out.attempted;
                out.failed += a.ok ? 0 : 1;
                digestReport(d, a);
                if (a.ok != b.ok || (a.ok && !sameReport(a.report, b.report)))
                    out.mismatches.push_back(
                        std::string("characterize: ") + toString(families[f]) +
                        " frame " + std::to_string(i) +
                        " differs from evaluateFramePrediction");
            }
        }
        out.digest = d.value();
        return out;
    }

    void
    fidelity(Metrics &out) const override
    {
        for (std::size_t f = 0; f < numFamilies; ++f) {
            const CorpusPredictionReport agg = aggregate(f);
            const std::string base =
                std::string("cluster.") + toString(families[f]);
            out.push_back({base + ".error_pct", agg.meanError * 100.0, "%"});
            out.push_back(
                {base + ".eff_pct", agg.meanEfficiency * 100.0, "%"});
            if (f == 0) {
                out.push_back({"pred_error_pct", agg.meanError * 100.0, "%"});
                out.push_back(
                    {"cluster_eff_pct", agg.meanEfficiency * 100.0, "%"});
                out.push_back(
                    {"outlier_pct", agg.outlierFraction() * 100.0, "%"});
            }
        }
    }

    std::vector<std::string>
    drivenPrefixes() const override
    {
        return {"runtime.", "gpusim.drawCache.", "gpusim.texBind.",
                "cluster.kmeans.", "cluster.leader."};
    }

  private:
    template <typename Eval>
    std::vector<std::vector<FrameResult>>
    run(Eval eval) const
    {
        // A fresh simulator per pass: its texture-bind memo starts
        // empty, like a fresh figure run.
        const GpuSimulator sim(makeGpuPreset("baseline"));
        std::vector<std::vector<FrameResult>> out(numFamilies);
        for (std::size_t f = 0; f < numFamilies; ++f) {
            for (const CorpusFrame &cf : corpus) {
                const Trace &t = suite[cf.traceIndex];
                FrameResult r;
                try {
                    r.report = eval(t, t.frame(cf.frameIndex), sim, f);
                    r.ok = validCost(r.report.actualNs) &&
                           validCost(r.report.predictedNs);
                } catch (const std::exception &) {
                    r.ok = false;
                }
                out[f].push_back(std::move(r));
            }
        }
        return out;
    }

    CorpusPredictionReport
    aggregate(std::size_t f) const
    {
        CorpusPredictionReport agg;
        for (const FrameResult &r : last[f])
            if (r.ok)
                accumulate(agg, r.report);
        return agg;
    }

    std::vector<Trace> suite;
    std::vector<CorpusFrame> corpus;
    std::vector<std::vector<FrameResult>> ref;
    std::vector<std::vector<FrameResult>> last;
};

} // namespace

std::unique_ptr<Workload>
makeCharacterize()
{
    return std::make_unique<Characterize>();
}

} // namespace perfbench
