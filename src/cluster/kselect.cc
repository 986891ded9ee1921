#include "cluster/kselect.hh"

#include <algorithm>
#include <limits>

#include "cluster/bic.hh"
#include "runtime/parallel_for.hh"
#include "util/logging.hh"

namespace gws {

namespace {

/** One tried k: its clustering and BIC score. */
struct KRun
{
    Clustering clustering;
    double score = 0.0;
};

} // namespace

KSelectResult
selectK(const std::vector<FeatureVector> &points,
        const KSelectConfig &config)
{
    GWS_ASSERT(!points.empty(), "selectK on an empty point set");
    GWS_ASSERT(config.maxK >= 1 && config.step >= 1,
               "degenerate k-selection config");
    GWS_ASSERT(config.bicFraction > 0.0 && config.bicFraction <= 1.0,
               "bicFraction out of (0,1]: ", config.bicFraction);

    const std::size_t max_k = std::min(config.maxK, points.size());
    const std::size_t tries = (max_k - 1) / config.step + 1;

    // Every k is an independent k-means run (restart r is seeded from
    // base.seed + r whatever k is), so the sweep fans out over k at
    // grain 1. Chunk c runs the c-th largest k: cost grows with k, so
    // the long runs are claimed first. A run's own loops fan out again
    // on the calling thread and run inline on a pool worker; either
    // way they keep their chunks and combine order, so every
    // clustering and score keeps its bits.
    std::vector<KRun> runs = parallelMap<KRun>(
        0, tries, 1, [&](std::size_t c) {
            KMeansConfig kc = config.base;
            kc.k = 1 + (tries - 1 - c) * config.step;
            KRun run;
            run.clustering = kmeans(points, kc);
            run.score = bicScore(run.clustering, points);
            return run;
        });
    std::reverse(runs.begin(), runs.end());

    KSelectResult result;
    double best = -std::numeric_limits<double>::infinity();
    double worst = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < tries; ++i) {
        result.triedK.push_back(1 + i * config.step);
        result.bicByK.push_back(runs[i].score);
        best = std::max(best, runs[i].score);
        worst = std::min(worst, runs[i].score);
    }

    // Smallest k whose score covers bicFraction of the observed span.
    const double span = best - worst;
    const double threshold =
        span > 0.0 ? worst + config.bicFraction * span : best;
    std::size_t pick = result.triedK.size() - 1;
    for (std::size_t i = 0; i < result.triedK.size(); ++i) {
        if (result.bicByK[i] >= threshold) {
            pick = i;
            break;
        }
    }
    result.chosenK = result.triedK[pick];
    result.clustering = std::move(runs[pick].clustering);
    return result;
}

} // namespace gws
