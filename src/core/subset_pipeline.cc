#include "core/subset_pipeline.hh"

#include <cmath>

#include "obs/trace.hh"
#include "runtime/parallel_for.hh"
#include "util/logging.hh"

namespace gws {

std::uint64_t
WorkloadSubset::subsetDraws() const
{
    std::uint64_t n = 0;
    for (const auto &u : units)
        n += u.frameSubset.clustering.k;
    return n;
}

double
WorkloadSubset::drawFraction() const
{
    if (parentDraws == 0)
        return 0.0;
    return static_cast<double>(subsetDraws()) /
           static_cast<double>(parentDraws);
}

double
WorkloadSubset::totalFrameWeight() const
{
    double w = 0.0;
    for (const auto &u : units)
        w += u.frameWeight;
    return w;
}

double
WorkloadSubset::predictTotalNs(const Trace &parent,
                               const GpuSimulator &simulator) const
{
    // Each unit prices its own representative draws, so units fan out
    // one per chunk; the weighted terms are then summed in unit order,
    // matching the serial accumulation bit for bit.
    const std::vector<double> terms = parallelMap<double>(
        0, units.size(), 1, [&](std::size_t i) {
            const SubsetUnit &u = units[i];
            const Frame &frame = parent.frame(u.frameIndex);
            return u.frameWeight *
                   predictFrameNs(parent, frame, u.frameSubset,
                                  simulator, prediction);
        });
    double total = 0.0;
    for (double t : terms)
        total += t;
    return total;
}

const char *
toString(PhaseMethod method)
{
    switch (method) {
      case PhaseMethod::ShaderVector:
        return "shader_vector";
      case PhaseMethod::FeatureCluster:
        return "feature_cluster";
    }
    GWS_PANIC("unknown phase method ", static_cast<int>(method));
}

WorkloadSubset
buildWorkloadSubset(const Trace &trace, const SubsetConfig &config)
{
    obs::SpanScope span("core.buildWorkloadSubset");
    WorkloadSubset subset;
    subset.parentName = trace.name();
    subset.prediction = config.draws.prediction;
    subset.parentFrames = trace.frameCount();
    subset.parentDraws = trace.totalDraws();
    subset.timeline =
        config.phaseMethod == PhaseMethod::ShaderVector
            ? detectPhases(trace, config.phase)
            : detectPhasesByFeatures(trace, config.featurePhase);

    GWS_ASSERT(config.framesPerPhase >= 1,
               "framesPerPhase must be at least 1");
    GWS_ASSERT(config.occurrencesPerPhase >= 1,
               "occurrencesPerPhase must be at least 1");
    // Pass 1 (serial, cheap): walk the timeline and decide every
    // representative frame and its weight. Pass 2 (parallel): run the
    // per-frame draw clustering — the expensive step — one unit per
    // chunk. Assembly stays in pass-1 order, so the subset is
    // identical to a serial build.
    const auto occurrence = subset.timeline.occurrenceCounts();
    subset.unitsOfPhase.resize(subset.timeline.phaseCount);
    for (std::uint32_t p = 0; p < subset.timeline.phaseCount; ++p) {
        const auto &phase_ivs = subset.timeline.phaseIntervals[p];
        GWS_ASSERT(occurrence[p] >= 1, "phase with no occurrence");

        // Weight: every parent frame in any interval of this phase,
        // split evenly across the phase's representative frames.
        double weight = 0.0;
        for (std::size_t iv : phase_ivs)
            weight += static_cast<double>(
                subset.timeline.intervals[iv].frames());

        // Occurrences: spread evenly across the phase's occurrence
        // list (the single-occurrence case is the first one — the
        // paper's capture-once choice).
        const std::uint32_t n_occ = std::min<std::uint32_t>(
            config.occurrencesPerPhase,
            static_cast<std::uint32_t>(phase_ivs.size()));
        std::vector<const Interval *> chosen;
        if (n_occ == 1) {
            chosen.push_back(
                &subset.timeline
                     .intervals[subset.timeline.representatives[p]]);
        } else {
            for (std::uint32_t s = 0; s < n_occ; ++s) {
                const std::size_t pick =
                    static_cast<std::size_t>(s) *
                    (phase_ivs.size() - 1) / (n_occ - 1);
                chosen.push_back(
                    &subset.timeline.intervals[phase_ivs[pick]]);
            }
        }

        // Representative frames: spread evenly across each chosen
        // interval (the single-frame case lands in the middle, away
        // from interval edges that may straddle transitions).
        std::vector<std::uint32_t> frames;
        for (const Interval *iv : chosen) {
            const std::uint32_t n_frames =
                std::min(config.framesPerPhase, iv->frames());
            for (std::uint32_t s = 0; s < n_frames; ++s) {
                frames.push_back(iv->beginFrame + (2 * s + 1) *
                                                      iv->frames() /
                                                      (2 * n_frames));
            }
        }
        GWS_ASSERT(!frames.empty(), "no representative frames for phase");
        for (std::uint32_t rep_frame : frames) {
            SubsetUnit unit;
            unit.phaseId = p;
            unit.frameIndex = rep_frame;
            unit.frameWeight =
                weight / static_cast<double>(frames.size());
            subset.unitsOfPhase[p].push_back(subset.units.size());
            subset.units.push_back(std::move(unit));
        }
    }

    // Pass 2: cluster every representative frame's draws in parallel.
    parallelFor(0, subset.units.size(), 1, [&](std::size_t i) {
        SubsetUnit &unit = subset.units[i];
        unit.frameSubset = buildFrameSubset(
            trace, trace.frame(unit.frameIndex), config.draws);
    });

    GWS_ASSERT(std::llround(subset.totalFrameWeight()) ==
                   static_cast<long long>(trace.frameCount()),
               "subset weights do not cover the parent: ",
               subset.totalFrameWeight(), " vs ", trace.frameCount());
    return subset;
}

double
SubsetEvaluation::relError() const
{
    if (parentNs <= 0.0)
        return 0.0;
    return std::fabs(predictedNs - parentNs) / parentNs;
}

SubsetEvaluation
evaluateSubset(const Trace &trace, const WorkloadSubset &subset,
               const GpuSimulator &simulator)
{
    SubsetEvaluation eval;
    eval.parentNs = simulator.simulateTrace(trace).totalNs;
    eval.predictedNs = subset.predictTotalNs(trace, simulator);
    return eval;
}

} // namespace gws
