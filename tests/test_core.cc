/**
 * @file
 * Tests of the core subsetting pipeline: per-frame draw subsets,
 * frame prediction, the end-to-end workload subset, baselines, the
 * frequency-scaling study, and the pathfinding study.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "core/baselines.hh"
#include "core/energy_study.hh"
#include "core/freq_scaling.hh"
#include "core/pathfinding.hh"
#include "core/predictor.hh"
#include "core/subset_pipeline.hh"
#include "core/suite_subset.hh"
#include "core/temporal_subset.hh"
#include "synth/generator.hh"

namespace gws {
namespace {

Trace
coreTrace()
{
    GameProfile p = builtinProfile("shock1", SuiteScale::Ci);
    p.levels = 3;
    p.segments = 6;
    p.segmentFramesMin = 8;
    p.segmentFramesMax = 10;
    p.drawsPerFrame = 60.0;
    return GameGenerator(p).generate();
}

const Trace &
sharedTrace()
{
    static const Trace t = coreTrace();
    return t;
}

// ------------------------------------------------------------ draw subset --

TEST(DrawSubset, LeaderSubsetIsValidAndCompresses)
{
    const Trace &t = sharedTrace();
    const FrameSubset s =
        buildFrameSubset(t, t.frame(0), DrawSubsetConfig{});
    s.clustering.validate();
    EXPECT_EQ(s.clustering.items(), t.frame(0).drawCount());
    EXPECT_LT(s.representativeCount(), t.frame(0).drawCount());
    EXPECT_EQ(s.workUnits.size(), t.frame(0).drawCount());
}

TEST(DrawSubset, KMeansBicVariantWorks)
{
    const Trace &t = sharedTrace();
    DrawSubsetConfig cfg;
    cfg.algo = ClusterAlgo::KMeansBic;
    cfg.kselect.maxK = 24;
    cfg.kselect.step = 4;
    const FrameSubset s = buildFrameSubset(t, t.frame(0), cfg);
    s.clustering.validate();
    EXPECT_GE(s.clustering.k, 1u);
    EXPECT_LE(s.clustering.k, 24u);
}

TEST(DrawSubset, WorkUnitsArePositiveAndScaleWithWork)
{
    const Trace &t = sharedTrace();
    DrawCall small = t.frame(0).draws()[0];
    small.shadedPixels = 100;
    DrawCall big = small;
    big.shadedPixels = 100000;
    EXPECT_GT(drawWorkUnits(t, small), 0.0);
    EXPECT_GT(drawWorkUnits(t, big), drawWorkUnits(t, small));
}

TEST(DrawSubset, SameMaterialDrawsUsuallyShareClusters)
{
    // Count how often two draws of the same material land in the same
    // cluster; the generator's jitter is small so this should be the
    // overwhelming majority.
    const Trace &t = sharedTrace();
    const FrameSubset s =
        buildFrameSubset(t, t.frame(0), DrawSubsetConfig{});
    const auto &draws = t.frame(0).draws();
    std::size_t pairs = 0, together = 0;
    for (std::size_t i = 0; i < draws.size(); ++i) {
        for (std::size_t j = i + 1; j < draws.size(); ++j) {
            if (draws[i].materialId != draws[j].materialId)
                continue;
            ++pairs;
            together += s.clustering.assignment[i] ==
                                s.clustering.assignment[j]
                            ? 1
                            : 0;
        }
    }
    ASSERT_GT(pairs, 0u);
    EXPECT_GT(static_cast<double>(together) / pairs, 0.9);
}

TEST(DrawSubset, AlgoNames)
{
    EXPECT_STREQ(toString(ClusterAlgo::Leader), "leader");
    EXPECT_STREQ(toString(ClusterAlgo::KMeansBic), "kmeans_bic");
}

// -------------------------------------------------------------- predictor --

TEST(Predictor, EvaluationErrorIsSmall)
{
    const Trace &t = sharedTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const FramePredictionReport r =
        evaluateFramePrediction(t, t.frame(2), sim, DrawSubsetConfig{});
    EXPECT_GT(r.actualNs, 0.0);
    EXPECT_GT(r.predictedNs, 0.0);
    EXPECT_LT(r.relError(), 0.10);
    EXPECT_GT(r.efficiency, 0.2);
    EXPECT_EQ(r.drawsTotal, t.frame(2).drawCount());
    EXPECT_LT(r.drawsSimulated, r.drawsTotal);
}

TEST(Predictor, PredictFrameMatchesEvaluationPrediction)
{
    const Trace &t = sharedTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const DrawSubsetConfig cfg;
    const FrameSubset subset = buildFrameSubset(t, t.frame(1), cfg);
    const double production =
        predictFrameNs(t, t.frame(1), subset, sim, cfg.prediction);
    const FramePredictionReport r =
        evaluateFramePrediction(t, t.frame(1), sim, cfg);
    EXPECT_NEAR(production, r.predictedNs, 1e-6);
}

TEST(Predictor, WorkScaledBeatsUniformOnAverage)
{
    const Trace &t = sharedTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    DrawSubsetConfig uniform, scaled;
    scaled.prediction = PredictionMode::WorkScaled;
    double uniform_err = 0.0, scaled_err = 0.0;
    for (std::uint32_t f = 0; f < 8; ++f) {
        uniform_err +=
            evaluateFramePrediction(t, t.frame(f), sim, uniform)
                .quality.meanIntraError;
        scaled_err +=
            evaluateFramePrediction(t, t.frame(f), sim, scaled)
                .quality.meanIntraError;
    }
    EXPECT_LT(scaled_err, uniform_err);
}

TEST(Predictor, AccumulateAggregates)
{
    CorpusPredictionReport agg;
    FramePredictionReport a;
    a.actualNs = 100.0;
    a.predictedNs = 110.0;
    a.drawsTotal = 50;
    a.drawsSimulated = 10;
    a.efficiency = 0.8;
    a.quality.intraError = {0.1, 0.3};
    a.quality.outliers = 1;
    FramePredictionReport b = a;
    b.predictedNs = 100.0; // zero error
    b.efficiency = 0.6;
    b.quality.outliers = 0;
    accumulate(agg, a);
    accumulate(agg, b);
    EXPECT_EQ(agg.frames, 2u);
    EXPECT_EQ(agg.draws, 100u);
    EXPECT_NEAR(agg.meanError, 0.05, 1e-12);
    EXPECT_NEAR(agg.meanEfficiency, 0.7, 1e-12);
    EXPECT_NEAR(agg.maxError, 0.1, 1e-12);
    EXPECT_EQ(agg.clusters, 4u);
    EXPECT_EQ(agg.outlierClusters, 1u);
    EXPECT_DOUBLE_EQ(agg.outlierFraction(), 0.25);
}

// --------------------------------------------------------- subset pipeline --

TEST(SubsetPipeline, SubsetCoversParentAndIsSmall)
{
    const Trace &t = sharedTrace();
    const WorkloadSubset s = buildWorkloadSubset(t, SubsetConfig{});
    EXPECT_EQ(s.parentFrames, t.frameCount());
    EXPECT_EQ(s.parentDraws, t.totalDraws());
    EXPECT_EQ(s.units.size(), s.timeline.phaseCount);
    EXPECT_NEAR(s.totalFrameWeight(),
                static_cast<double>(t.frameCount()), 1e-9);
    EXPECT_LT(s.drawFraction(), 0.2); // small even on a tiny CI trace
    EXPECT_GT(s.subsetDraws(), 0u);
}

TEST(SubsetPipeline, UnitsReferenceDistinctPhases)
{
    const Trace &t = sharedTrace();
    const WorkloadSubset s = buildWorkloadSubset(t, SubsetConfig{});
    std::set<std::uint32_t> phases;
    for (const auto &u : s.units) {
        EXPECT_TRUE(phases.insert(u.phaseId).second);
        EXPECT_LT(u.frameIndex, t.frameCount());
        u.frameSubset.clustering.validate();
    }
}

TEST(SubsetPipeline, RepresentativeFrameLiesInsideItsInterval)
{
    const Trace &t = sharedTrace();
    const WorkloadSubset s = buildWorkloadSubset(t, SubsetConfig{});
    for (const auto &u : s.units) {
        const Interval &iv =
            s.timeline.intervals[s.timeline.representatives[u.phaseId]];
        EXPECT_GE(u.frameIndex, iv.beginFrame);
        EXPECT_LT(u.frameIndex, iv.endFrame);
    }
}

TEST(SubsetPipeline, MultipleFramesPerPhase)
{
    const Trace &t = sharedTrace();
    SubsetConfig cfg;
    cfg.framesPerPhase = 3;
    const WorkloadSubset s = buildWorkloadSubset(t, cfg);
    // Weights still cover the parent exactly.
    EXPECT_NEAR(s.totalFrameWeight(),
                static_cast<double>(t.frameCount()), 1e-9);
    // Up to 3 units per phase, all within the phase's rep interval,
    // at distinct frames.
    ASSERT_EQ(s.unitsOfPhase.size(), s.timeline.phaseCount);
    for (std::uint32_t p = 0; p < s.timeline.phaseCount; ++p) {
        const Interval &iv =
            s.timeline.intervals[s.timeline.representatives[p]];
        const auto &unit_ids = s.unitsOfPhase[p];
        EXPECT_GE(unit_ids.size(), 1u);
        EXPECT_LE(unit_ids.size(), 3u);
        std::set<std::uint32_t> frames;
        for (std::size_t ui : unit_ids) {
            const SubsetUnit &u = s.units[ui];
            EXPECT_EQ(u.phaseId, p);
            EXPECT_GE(u.frameIndex, iv.beginFrame);
            EXPECT_LT(u.frameIndex, iv.endFrame);
            EXPECT_TRUE(frames.insert(u.frameIndex).second)
                << "duplicate rep frame in phase " << p;
        }
    }
}

TEST(SubsetPipeline, MoreFramesPerPhaseNeverHurtMuch)
{
    // Averaging several frames per phase should not make total-time
    // prediction meaningfully worse, and typically improves it.
    const Trace &t = sharedTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    SubsetConfig one, four;
    four.framesPerPhase = 4;
    const double err1 =
        evaluateSubset(t, buildWorkloadSubset(t, one), sim).relError();
    const double err4 =
        evaluateSubset(t, buildWorkloadSubset(t, four), sim).relError();
    EXPECT_LT(err4, err1 + 0.02);
}

TEST(SubsetPipeline, MultipleOccurrencesPerPhase)
{
    const Trace &t = sharedTrace();
    SubsetConfig cfg;
    cfg.occurrencesPerPhase = 3;
    const WorkloadSubset s = buildWorkloadSubset(t, cfg);
    EXPECT_NEAR(s.totalFrameWeight(),
                static_cast<double>(t.frameCount()), 1e-9);
    const auto occ = s.timeline.occurrenceCounts();
    for (std::uint32_t p = 0; p < s.timeline.phaseCount; ++p) {
        // One unit per sampled occurrence, capped by the occurrence
        // count; frames must be distinct and inside phase intervals.
        const std::size_t expect =
            std::min<std::size_t>(3, occ[p]);
        EXPECT_EQ(s.unitsOfPhase[p].size(), expect) << "phase " << p;
        std::set<std::uint32_t> seen;
        for (std::size_t ui : s.unitsOfPhase[p]) {
            const SubsetUnit &u = s.units[ui];
            EXPECT_TRUE(seen.insert(u.frameIndex).second);
            bool inside = false;
            for (std::size_t iv : s.timeline.phaseIntervals[p]) {
                inside = inside ||
                         (u.frameIndex >=
                              s.timeline.intervals[iv].beginFrame &&
                          u.frameIndex <
                              s.timeline.intervals[iv].endFrame);
            }
            EXPECT_TRUE(inside) << "frame " << u.frameIndex;
        }
    }
}

TEST(SubsetPipeline, SingleOccurrenceMatchesDefaultExactly)
{
    const Trace &t = sharedTrace();
    SubsetConfig explicit_one;
    explicit_one.occurrencesPerPhase = 1;
    const WorkloadSubset a = buildWorkloadSubset(t, SubsetConfig{});
    const WorkloadSubset b = buildWorkloadSubset(t, explicit_one);
    ASSERT_EQ(a.units.size(), b.units.size());
    for (std::size_t i = 0; i < a.units.size(); ++i)
        EXPECT_EQ(a.units[i].frameIndex, b.units[i].frameIndex);
}

TEST(SubsetPipeline, FramesPerPhaseClampedToIntervalLength)
{
    const Trace &t = sharedTrace();
    SubsetConfig cfg;
    cfg.framesPerPhase = 1000; // longer than any interval
    const WorkloadSubset s = buildWorkloadSubset(t, cfg);
    for (std::uint32_t p = 0; p < s.timeline.phaseCount; ++p) {
        const Interval &iv =
            s.timeline.intervals[s.timeline.representatives[p]];
        EXPECT_EQ(s.unitsOfPhase[p].size(), iv.frames());
    }
    EXPECT_NEAR(s.totalFrameWeight(),
                static_cast<double>(t.frameCount()), 1e-9);
}

TEST(SubsetPipeline, PredictionTracksParent)
{
    const Trace &t = sharedTrace();
    const WorkloadSubset s = buildWorkloadSubset(t, SubsetConfig{});
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const SubsetEvaluation eval = evaluateSubset(t, s, sim);
    EXPECT_GT(eval.parentNs, 0.0);
    EXPECT_GT(eval.predictedNs, 0.0);
    EXPECT_LT(eval.relError(), 0.15);
}

// ------------------------------------------------ cross-config invariance --

TEST(SubsetPipeline, SubsetConstructionNeverSeesAGpuConfig)
{
    // The headline micro-architecture-independence property: one
    // subset serves every design point. Construction takes no
    // simulator, so two builds are bit-identical and a single build
    // prices consistently across presets (mobile slowest everywhere).
    const Trace &t = sharedTrace();
    const WorkloadSubset a = buildWorkloadSubset(t, SubsetConfig{});
    const WorkloadSubset b = buildWorkloadSubset(t, SubsetConfig{});
    ASSERT_EQ(a.units.size(), b.units.size());
    for (std::size_t i = 0; i < a.units.size(); ++i) {
        EXPECT_EQ(a.units[i].frameIndex, b.units[i].frameIndex);
        EXPECT_EQ(a.units[i].frameSubset.clustering.assignment,
                  b.units[i].frameSubset.clustering.assignment);
    }
}

TEST(FreqScaling, CustomScaleListAndBaseline)
{
    const Trace &t = sharedTrace();
    const WorkloadSubset s = buildWorkloadSubset(t, SubsetConfig{});
    FreqScalingConfig cfg;
    cfg.scales = {1.0, 0.5};
    cfg.baselineIndex = 0;
    const FreqScalingResult r =
        runFreqScaling(t, s, makeGpuPreset("baseline"), cfg);
    EXPECT_DOUBLE_EQ(r.parentImprovement[0], 1.0);
    EXPECT_LT(r.parentImprovement[1], 1.0); // 0.5x clock is slower
}

TEST(FreqScaling, DegenerateSweepDies)
{
    const Trace &t = sharedTrace();
    const WorkloadSubset s = buildWorkloadSubset(t, SubsetConfig{});
    FreqScalingConfig cfg;
    cfg.scales = {1.0};
    cfg.baselineIndex = 3; // out of range
    EXPECT_DEATH(runFreqScaling(t, s, makeGpuPreset("baseline"), cfg),
                 "baseline index");
}

TEST(Quality, LooserOutlierThresholdFindsFewer)
{
    const Trace &t = sharedTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const FrameSubset subset =
        buildFrameSubset(t, t.frame(0), DrawSubsetConfig{});
    std::vector<double> costs;
    for (const auto &d : t.frame(0).draws())
        costs.push_back(sim.simulateDraw(t, d).totalNs);
    const ClusterQuality strict = assessClusterQuality(
        subset.clustering, costs, PredictionMode::Uniform, {}, 0.05);
    const ClusterQuality loose = assessClusterQuality(
        subset.clustering, costs, PredictionMode::Uniform, {}, 0.50);
    EXPECT_GE(strict.outliers, loose.outliers);
}

// ------------------------------------------------------------ suite subset --

TEST(SuiteSubset, StructureAndWeights)
{
    const std::vector<Trace> suite = {sharedTrace(), coreTrace()};
    std::vector<CorpusFrame> corpus;
    for (std::size_t t = 0; t < suite.size(); ++t) {
        for (std::uint32_t f = 0; f < 10; ++f)
            corpus.push_back({t, f});
    }
    const SuiteSubset s =
        buildSuiteSubset(suite, corpus, SuiteSubsetConfig{});
    EXPECT_EQ(s.corpusFrames, corpus.size());
    EXPECT_NEAR(s.totalWeight(), static_cast<double>(corpus.size()),
                1e-9);
    EXPECT_LE(s.frames.size(), corpus.size());
    EXPECT_GE(s.frames.size(), 1u);
    EXPECT_EQ(s.assignment.size(), corpus.size());
    for (const auto &ref : s.frames) {
        ASSERT_LT(ref.traceIndex, suite.size());
        ASSERT_LT(ref.frameIndex,
                  suite[ref.traceIndex].frameCount());
    }
}

TEST(SuiteSubset, IdenticalTracesCollapseAcrossGames)
{
    // Two copies of the same game produce pairwise-identical frames;
    // clustering must find cross-game clusters and compress >= 2x.
    const std::vector<Trace> suite = {sharedTrace(), sharedTrace()};
    std::vector<CorpusFrame> corpus;
    for (std::size_t t = 0; t < 2; ++t) {
        for (std::uint32_t f = 0; f < 12; ++f)
            corpus.push_back({t, f});
    }
    const SuiteSubset s =
        buildSuiteSubset(suite, corpus, SuiteSubsetConfig{});
    EXPECT_LE(s.frames.size(), corpus.size() / 2);
    EXPECT_GT(s.crossGameClusters, 0u);
}

TEST(SuiteSubset, PredictionTracksCorpus)
{
    const std::vector<Trace> suite = {sharedTrace()};
    std::vector<CorpusFrame> corpus;
    for (std::uint32_t f = 0; f < suite[0].frameCount(); f += 2)
        corpus.push_back({0, f});
    const SuiteSubset s =
        buildSuiteSubset(suite, corpus, SuiteSubsetConfig{});
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const double actual = measureCorpusNs(suite, corpus, sim);
    const double predicted = predictCorpusNs(suite, s, sim);
    EXPECT_GT(actual, 0.0);
    EXPECT_LT(std::fabs(predicted - actual) / actual, 0.15);
}

TEST(SuiteSubset, FrameDescriptorScalesWithContent)
{
    const Trace &t = sharedTrace();
    const FeatureVector a = frameDescriptor(t, t.frame(0));
    // An empty frame descriptor is all zeros; a real frame is not.
    Frame empty(0);
    const FeatureVector e = frameDescriptor(t, empty);
    EXPECT_GT(a[FeatureDim::LogPixels], 0.0);
    EXPECT_DOUBLE_EQ(e[FeatureDim::LogPixels], 0.0);
    EXPECT_DOUBLE_EQ(e[FeatureDim::Overdraw], 0.0);
}

TEST(SuiteSubset, TighterRadiusKeepsMoreFrames)
{
    const std::vector<Trace> suite = {sharedTrace()};
    std::vector<CorpusFrame> corpus;
    for (std::uint32_t f = 0; f < suite[0].frameCount(); ++f)
        corpus.push_back({0, f});
    SuiteSubsetConfig tight, loose;
    tight.radius = 0.3;
    loose.radius = 2.0;
    EXPECT_GE(buildSuiteSubset(suite, corpus, tight).frames.size(),
              buildSuiteSubset(suite, corpus, loose).frames.size());
}

// ------------------------------------------------------------- energy study --

TEST(PowerModel, VoltageAndPowerCurves)
{
    PowerConfig p;
    p.validate();
    EXPECT_DOUBLE_EQ(p.voltageAt(1.0), p.voltageAt1Ghz);
    EXPECT_GT(p.voltageAt(2.0), p.voltageAt(1.0));
    EXPECT_GE(p.voltageAt(0.1), p.minVoltage);
    // Dynamic power superlinear in f (V rises with f).
    EXPECT_GT(p.dynamicWatts(2.0), 2.0 * p.dynamicWatts(1.0));
    EXPECT_GT(p.leakageWatts(2.0), p.leakageWatts(1.0));
}

TEST(PowerModel, EnergyBreakdownAddsUp)
{
    PowerConfig p;
    const GpuConfig cfg = makeGpuPreset("baseline");
    const EnergyReport r = estimateEnergy({1e9, 1e9}, cfg, p); // 1 s, 1 GB
    EXPECT_NEAR(r.seconds, 1.0, 1e-12);
    EXPECT_NEAR(r.totalJ(),
                r.dynamicJ + r.leakageJ + r.dramJ + r.boardJ, 1e-12);
    EXPECT_NEAR(r.dramJ, 1e9 * p.dramPicojoulesPerByte * 1e-12, 1e-9);
    EXPECT_NEAR(r.averageWatts(), r.totalJ(), 1e-9); // 1 s run
    EXPECT_NEAR(r.energyDelay(), r.totalJ(), 1e-9);
}

TEST(DvfsStudy, SubsetReproducesParentEnergyBehavior)
{
    const Trace &t = sharedTrace();
    const WorkloadSubset s = buildWorkloadSubset(t, SubsetConfig{});
    const DvfsResult r =
        runDvfsStudy(t, s, makeGpuPreset("baseline"), DvfsConfig{});
    ASSERT_EQ(r.points.size(), 8u);
    EXPECT_TRUE(r.optimumWithinOneStep());
    EXPECT_GT(r.energyCorrelation, 0.99);
    EXPECT_GT(r.edpCorrelation, 0.99);
    // The EDP optimum is interior or at an edge but well-defined.
    EXPECT_LT(r.parentOptimal, r.points.size());
}

TEST(DvfsStudy, EnergyRisesAtHighClocksTimeFallsMonotonically)
{
    const Trace &t = sharedTrace();
    const WorkloadSubset s = buildWorkloadSubset(t, SubsetConfig{});
    const DvfsResult r =
        runDvfsStudy(t, s, makeGpuPreset("baseline"), DvfsConfig{});
    // Time strictly decreases with clock; the top-end point must burn
    // more energy than the EDP optimum (superlinear dynamic power).
    for (std::size_t i = 1; i < r.points.size(); ++i)
        EXPECT_LT(r.points[i].parent.seconds,
                  r.points[i - 1].parent.seconds);
    EXPECT_GT(r.points.back().parent.totalJ(),
              r.points[r.parentOptimal].parent.totalJ());
}

// ---------------------------------------------------------- temporal subset --

TEST(TemporalSubset, EfficiencyExceedsPerFrameClustering)
{
    const Trace &t = sharedTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const TemporalReport tr =
        runTemporalSubsetting(t, sim, TemporalSubsetConfig{});
    EXPECT_EQ(tr.frames, t.frameCount());
    EXPECT_EQ(tr.draws, t.totalDraws());
    EXPECT_GT(tr.efficiency(), 0.85);
    EXPECT_LT(tr.meanFrameError(), 0.08);
}

TEST(TemporalSubset, ClusterDiscoveryDecays)
{
    // Almost all clusters are founded in the first frame of each
    // level; later frames of the same level found few.
    const Trace &t = sharedTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const TemporalReport tr =
        runTemporalSubsetting(t, sim, TemporalSubsetConfig{});
    ASSERT_GE(tr.newClustersPerFrame.size(), 2u);
    EXPECT_GT(tr.newClustersPerFrame[0], tr.newClustersPerFrame[1]);
    EXPECT_LT(tr.newClustersPerFrame[1],
              tr.newClustersPerFrame[0] / 2);
}

TEST(TemporalSubset, MaxFramesCapsProcessing)
{
    const Trace &t = sharedTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    TemporalSubsetConfig cfg;
    cfg.maxFrames = 5;
    const TemporalReport tr = runTemporalSubsetting(t, sim, cfg);
    EXPECT_EQ(tr.frames, 5u);
    EXPECT_EQ(tr.frameErrors.size(), 5u);
}

TEST(TemporalSubset, ZeroRadiusDegeneratesTowardPerDraw)
{
    const Trace &t = sharedTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    TemporalSubsetConfig tight, wide;
    tight.radius = 0.0;
    tight.maxFrames = wide.maxFrames = 4;
    wide.radius = 2.0;
    const TemporalReport a = runTemporalSubsetting(t, sim, tight);
    const TemporalReport b = runTemporalSubsetting(t, sim, wide);
    EXPECT_GT(a.clusters, b.clusters);
    EXPECT_LE(a.meanFrameError(), b.meanFrameError() + 1e-9);
}

// ---------------------------------------------------------------- baselines --

TEST(Baselines, KindsAndNames)
{
    EXPECT_EQ(allBaselineKinds().size(), 3u);
    EXPECT_STREQ(toString(BaselineKind::Random), "random");
    EXPECT_STREQ(toString(BaselineKind::Uniform), "uniform");
    EXPECT_STREQ(toString(BaselineKind::StratifiedShader), "stratified");
}

TEST(Baselines, SampleSizesAndWeights)
{
    const Trace &t = sharedTrace();
    const Frame &f = t.frame(0);
    for (BaselineKind kind : allBaselineKinds()) {
        const BaselineSample s =
            selectBaselineSample(f, 10, kind, 42);
        ASSERT_EQ(s.draws.size(), s.weights.size());
        ASSERT_FALSE(s.draws.empty());
        double weight_sum = 0.0;
        for (std::size_t i = 0; i < s.draws.size(); ++i) {
            ASSERT_LT(s.draws[i], f.drawCount());
            ASSERT_GT(s.weights[i], 0.0);
            weight_sum += s.weights[i];
        }
        EXPECT_NEAR(weight_sum, static_cast<double>(f.drawCount()),
                    static_cast<double>(f.drawCount()) * 0.35)
            << toString(kind);
    }
}

TEST(Baselines, RandomSampleIsDeterministicPerSeed)
{
    const Trace &t = sharedTrace();
    const auto a = selectBaselineSample(t.frame(0), 8,
                                        BaselineKind::Random, 7);
    const auto b = selectBaselineSample(t.frame(0), 8,
                                        BaselineKind::Random, 7);
    const auto c = selectBaselineSample(t.frame(0), 8,
                                        BaselineKind::Random, 8);
    EXPECT_EQ(a.draws, b.draws);
    EXPECT_NE(a.draws, c.draws);
}

TEST(Baselines, UniformSampleIsEvenlySpaced)
{
    const Trace &t = sharedTrace();
    const auto s = selectBaselineSample(t.frame(0), 5,
                                        BaselineKind::Uniform, 0);
    const std::size_t n = t.frame(0).drawCount();
    ASSERT_EQ(s.draws.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(s.draws[i], i * n / 5);
}

TEST(Baselines, BudgetClampedToFrame)
{
    const Trace &t = sharedTrace();
    const std::size_t n = t.frame(0).drawCount();
    const auto s = selectBaselineSample(t.frame(0), n * 10,
                                        BaselineKind::Random, 1);
    EXPECT_EQ(s.draws.size(), n);
}

TEST(Baselines, StratifiedCoversEveryShader)
{
    const Trace &t = sharedTrace();
    const Frame &f = t.frame(0);
    const auto s = selectBaselineSample(
        f, f.drawCount() / 3, BaselineKind::StratifiedShader, 3);
    std::set<ShaderId> sampled;
    for (std::size_t i : s.draws)
        sampled.insert(f.draws()[i].state.pixelShader);
    EXPECT_EQ(sampled, f.pixelShaderSet());
}

TEST(Baselines, PredictionIsPositiveAndBounded)
{
    // Baselines are allowed to be bad (that is the point of the
    // comparison bench) but must stay positive and sane.
    const Trace &t = sharedTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const Frame &f = t.frame(0);
    const double actual = sim.simulateFrame(t, f).totalNs;
    for (BaselineKind kind : allBaselineKinds()) {
        const auto s = selectBaselineSample(f, f.drawCount() / 3,
                                            kind, 11);
        const double predicted = predictFrameFromSample(t, f, sim, s);
        EXPECT_GT(predicted, 0.0);
        EXPECT_LT(std::fabs(predicted - actual) / actual, 5.0)
            << toString(kind);
    }
}

TEST(Baselines, ClusteringBeatsEveryBaselineAtEqualBudget)
{
    // The paper's implicit comparison: at the budget the clustering
    // chose, similarity-blind sampling predicts frames far worse —
    // none of the baselines isolates the heavy full-screen draws the
    // way performance-similarity clustering does.
    const Trace &t = sharedTrace();
    const GpuSimulator sim(makeGpuPreset("baseline"));
    double cluster_err = 0.0;
    std::map<BaselineKind, double> baseline_err;
    int frames = 0;
    for (std::uint32_t fi = 0; fi < 6; ++fi, ++frames) {
        const Frame &f = t.frame(fi);
        const double actual = sim.simulateFrame(t, f).totalNs;
        const FramePredictionReport rep =
            evaluateFramePrediction(t, f, sim, DrawSubsetConfig{});
        cluster_err += rep.relError();
        for (BaselineKind kind : allBaselineKinds()) {
            double err = 0.0;
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                const auto s = selectBaselineSample(
                    f, rep.drawsSimulated, kind, seed);
                err += std::fabs(predictFrameFromSample(t, f, sim, s) -
                                 actual) /
                       actual;
            }
            baseline_err[kind] += err / 4.0;
        }
    }
    for (BaselineKind kind : allBaselineKinds()) {
        EXPECT_LT(cluster_err, baseline_err[kind])
            << "clustering vs " << toString(kind) << " over " << frames
            << " frames";
    }
}

// ------------------------------------------------------------ freq scaling --

TEST(FreqScaling, ImprovementCurvesAndCorrelation)
{
    const Trace &t = sharedTrace();
    const WorkloadSubset s = buildWorkloadSubset(t, SubsetConfig{});
    FreqScalingConfig cfg;
    cfg.scales = {0.5, 1.0, 2.0};
    cfg.baselineIndex = 1;
    const FreqScalingResult r =
        runFreqScaling(t, s, makeGpuPreset("baseline"), cfg);
    ASSERT_EQ(r.parentNs.size(), 3u);
    // Baseline point normalizes to exactly 1.
    EXPECT_DOUBLE_EQ(r.parentImprovement[1], 1.0);
    EXPECT_DOUBLE_EQ(r.subsetImprovement[1], 1.0);
    // Higher clock -> more improvement, but sublinear (memory floor).
    EXPECT_LT(r.parentImprovement[0], 1.0);
    EXPECT_GT(r.parentImprovement[2], 1.0);
    EXPECT_LT(r.parentImprovement[2], 2.0);
    // The headline claim: near-perfect correlation.
    EXPECT_GT(r.correlation, 0.997);
}

TEST(FreqScaling, ParentCostsDecreaseMonotonically)
{
    const Trace &t = sharedTrace();
    const WorkloadSubset s = buildWorkloadSubset(t, SubsetConfig{});
    const FreqScalingResult r = runFreqScaling(
        t, s, makeGpuPreset("baseline"), FreqScalingConfig{});
    for (std::size_t i = 1; i < r.parentNs.size(); ++i) {
        EXPECT_LT(r.parentNs[i], r.parentNs[i - 1]);
        EXPECT_LT(r.subsetNs[i], r.subsetNs[i - 1]);
    }
}

TEST(FreqScaling, FastPathMatchesDirectSimulation)
{
    const Trace &t = sharedTrace();
    const WorkloadSubset s = buildWorkloadSubset(t, SubsetConfig{});
    FreqScalingConfig cfg;
    cfg.scales = {1.0, 1.5};
    cfg.baselineIndex = 0;
    const GpuConfig base = makeGpuPreset("baseline");
    const FreqScalingResult r = runFreqScaling(t, s, base, cfg);
    const GpuSimulator direct(base.withCoreClockScale(1.5));
    // The sweep engine's contract makes the parent total bitwise
    // simulateTrace's.
    EXPECT_EQ(r.parentNs[1], direct.simulateTrace(t).totalNs);
    // The subset price folds each frame as overhead + draws, while
    // predictTotalNs (through predictFrameNs) adds the overhead last,
    // so the two can differ in the last bits.
    EXPECT_NEAR(r.subsetNs[1], s.predictTotalNs(t, direct),
                r.subsetNs[1] * 1e-9);
}

// ------------------------------------------------------------- pathfinding --

TEST(Pathfinding, RankingPreservedAcrossPresets)
{
    const Trace &t = sharedTrace();
    const WorkloadSubset s = buildWorkloadSubset(t, SubsetConfig{});
    std::vector<GpuConfig> designs;
    for (const auto &name : gpuPresetNames())
        designs.push_back(makeGpuPreset(name));
    const PathfindingResult r = runPathfinding(t, s, designs);
    ASSERT_EQ(r.points.size(), designs.size());
    EXPECT_TRUE(r.rankingPreserved);
    EXPECT_GT(r.speedupCorrelation, 0.99);
    EXPECT_GT(r.rankCorrelation, 0.99);
    // Speedups are relative to the first design point.
    EXPECT_DOUBLE_EQ(r.points[0].parentSpeedup, 1.0);
    EXPECT_DOUBLE_EQ(r.points[0].subsetSpeedup, 1.0);
}

TEST(Pathfinding, RankingsAreValidPermutations)
{
    const Trace &t = sharedTrace();
    const WorkloadSubset s = buildWorkloadSubset(t, SubsetConfig{});
    const PathfindingResult r = runPathfinding(
        t, s, {makeGpuPreset("baseline"), makeGpuPreset("mobile")});
    std::set<std::size_t> pr(r.parentRanking.begin(),
                             r.parentRanking.end());
    EXPECT_EQ(pr.size(), 2u);
    // mobile is strictly slower than baseline.
    EXPECT_EQ(r.parentRanking[0], 0u);
    EXPECT_EQ(r.parentRanking[1], 1u);
}

} // namespace
} // namespace gws
