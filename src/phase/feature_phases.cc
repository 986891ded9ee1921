#include "phase/feature_phases.hh"

#include "cluster/leader.hh"
#include "features/extractor.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace gws {

PhaseTimeline
detectPhasesByFeatures(const Trace &trace,
                       const FeaturePhaseConfig &config)
{
    GWS_ASSERT(trace.frameCount() > 0,
               "feature-phase detection on empty trace");
    GWS_ASSERT(config.intervalFrames >= 1,
               "interval length must be >= 1");
    obs::SpanScope span("phase.detectByFeatures");

    const std::size_t universe = trace.shaders().size();
    const FeatureExtractor extractor(trace);

    PhaseTimeline timeline;
    std::vector<FeatureVector> centroids;

    // Partition into intervals; centroid = mean draw feature vector.
    const auto n_frames = static_cast<std::uint32_t>(trace.frameCount());
    for (std::uint32_t begin = 0; begin < n_frames;
         begin += config.intervalFrames) {
        Interval iv;
        iv.beginFrame = begin;
        iv.endFrame = std::min(begin + config.intervalFrames, n_frames);
        iv.shaders = ShaderVector(universe);

        FeatureVector centroid;
        std::uint64_t draws = 0;
        for (std::uint32_t f = iv.beginFrame; f < iv.endFrame; ++f) {
            const Frame &frame = trace.frame(f);
            for (const auto &draw : frame.draws()) {
                const FeatureVector v = extractor.extract(draw);
                for (std::size_t d = 0; d < numFeatureDims; ++d)
                    centroid.at(d) += v.at(d);
                ++draws;
                if (draw.state.pixelShader != invalidShaderId)
                    iv.shaders.set(draw.state.pixelShader);
            }
        }
        if (draws > 0) {
            for (std::size_t d = 0; d < numFeatureDims; ++d)
                centroid.at(d) /= static_cast<double>(draws);
        }
        centroids.push_back(centroid);
        timeline.intervals.push_back(std::move(iv));
    }

    // Normalize across intervals, then leader-cluster the centroids.
    const Normalizer norm = Normalizer::fit(centroids);
    LeaderConfig lc;
    lc.radius = config.radius;
    const Clustering clusters =
        leaderCluster(norm.applyAll(centroids), lc);

    // Relabel clusters in first-appearance order (the refinement pass
    // can move an interval ahead of its cluster's founder, so leader
    // IDs alone do not guarantee that).
    std::vector<std::uint32_t> relabel(clusters.k, UINT32_MAX);
    timeline.phaseCount = 0;
    for (std::size_t i = 0; i < timeline.intervals.size(); ++i) {
        const std::uint32_t raw = clusters.assignment[i];
        if (relabel[raw] == UINT32_MAX) {
            relabel[raw] = timeline.phaseCount++;
            timeline.phaseIntervals.emplace_back();
            timeline.representatives.push_back(i);
        }
        const std::uint32_t phase = relabel[raw];
        timeline.intervals[i].phaseId = phase;
        timeline.phaseIntervals[phase].push_back(i);
    }
    return timeline;
}

} // namespace gws
