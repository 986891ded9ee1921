#include "phase/phase_detect.hh"

#include "obs/trace.hh"
#include "util/logging.hh"

namespace gws {

std::vector<std::uint32_t>
PhaseTimeline::phaseSequence() const
{
    std::vector<std::uint32_t> out;
    out.reserve(intervals.size());
    for (const auto &iv : intervals)
        out.push_back(iv.phaseId);
    return out;
}

std::vector<std::size_t>
PhaseTimeline::occurrenceCounts() const
{
    std::vector<std::size_t> out(phaseCount, 0);
    for (const auto &iv : intervals)
        ++out[iv.phaseId];
    return out;
}

bool
PhaseTimeline::hasRecurringPhase() const
{
    for (std::size_t n : occurrenceCounts()) {
        if (n >= 2)
            return true;
    }
    return false;
}

double
PhaseTimeline::representativeFraction() const
{
    if (intervals.empty())
        return 0.0;
    return static_cast<double>(phaseCount) /
           static_cast<double>(intervals.size());
}

PhaseTimeline
detectPhases(const Trace &trace, const PhaseConfig &config)
{
    GWS_ASSERT(trace.frameCount() > 0, "phase detection on empty trace");
    GWS_ASSERT(config.intervalFrames >= 1, "interval length must be >= 1");
    GWS_ASSERT(config.similarityThreshold > 0.0 &&
                   config.similarityThreshold <= 1.0,
               "similarity threshold out of (0,1]");
    obs::SpanScope span("phase.detect");

    const std::size_t universe = trace.shaders().size();
    PhaseTimeline timeline;

    // Signature of each phase = shader vector of its first interval.
    std::vector<ShaderVector> signatures;

    const auto n_frames = static_cast<std::uint32_t>(trace.frameCount());
    for (std::uint32_t begin = 0; begin < n_frames;
         begin += config.intervalFrames) {
        Interval iv;
        iv.beginFrame = begin;
        iv.endFrame = std::min(begin + config.intervalFrames, n_frames);
        iv.shaders = ShaderVector(universe);
        for (std::uint32_t f = iv.beginFrame; f < iv.endFrame; ++f) {
            const ShaderVector fv = frameShaderVector(
                trace.frame(f), universe, config.pixelShadersOnly);
            for (ShaderId id : fv.ids())
                iv.shaders.set(id);
        }

        // Match against existing phases in first-appearance order.
        std::uint32_t phase = timeline.phaseCount;
        for (std::size_t p = 0; p < signatures.size(); ++p) {
            const bool match =
                config.similarityThreshold >= 1.0
                    ? iv.shaders == signatures[p]
                    : iv.shaders.jaccard(signatures[p]) >=
                          config.similarityThreshold;
            if (match) {
                phase = static_cast<std::uint32_t>(p);
                break;
            }
        }
        iv.phaseId = phase;
        if (phase == timeline.phaseCount) {
            signatures.push_back(iv.shaders);
            timeline.phaseIntervals.emplace_back();
            timeline.representatives.push_back(timeline.intervals.size());
            ++timeline.phaseCount;
        }
        timeline.phaseIntervals[phase].push_back(
            timeline.intervals.size());
        timeline.intervals.push_back(std::move(iv));
    }
    return timeline;
}

} // namespace gws
