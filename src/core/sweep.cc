#include "core/sweep.hh"

#include <algorithm>

#include "gpusim/draw_work_cache.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "partition/shards.hh"
#include "runtime/parallel_for.hh"
#include "util/logging.hh"

namespace gws {

namespace {

obs::Counter &g_sweep_configs =
    obs::metricsRegistry().counter("core.sweep.configs");
obs::Counter &g_draws_retimed =
    obs::metricsRegistry().counter("core.sweep.drawsRetimed");
obs::Counter &g_work_trace_draws =
    obs::metricsRegistry().counter("gpusim.workTrace.draws");

constexpr std::size_t stageIdx(Stage s)
{
    return static_cast<std::size_t>(s);
}

/**
 * Per-config constants of the timing model, hoisted out of the draw
 * loop into contiguous arrays. Every value is computed with exactly
 * the expression timeDrawWork evaluates (or is a plain config field
 * it divides by), so using them changes nothing but where the
 * computation happens.
 */
struct HoistedConfigs
{
    std::vector<double> setupNs;     // drawSetupCycles / coreClockGhz
    std::vector<double> coreGhz;     // coreClockGhz
    std::vector<double> opsPerCyc;   // opsPerCycle()
    std::vector<double> vfRate;      // vertexFetchBytesPerCycle
    std::vector<double> primRate;    // rasterPrimsPerCycle
    std::vector<double> pixRate;     // rasterPixelsPerCycle
    std::vector<double> texRate;     // texSamplesPerCycle
    std::vector<double> ropRate;     // ropPixelsPerCycle
    std::vector<double> l2Rate;      // l2BytesPerCycle
    std::vector<double> dramBw;      // dramBandwidthBytesPerNs()
    std::vector<double> overheadNs;  // frameOverheadUs * 1e3

    explicit HoistedConfigs(std::span<const GpuConfig> configs)
    {
        const std::size_t n = configs.size();
        setupNs.reserve(n);
        coreGhz.reserve(n);
        opsPerCyc.reserve(n);
        vfRate.reserve(n);
        primRate.reserve(n);
        pixRate.reserve(n);
        texRate.reserve(n);
        ropRate.reserve(n);
        l2Rate.reserve(n);
        dramBw.reserve(n);
        overheadNs.reserve(n);
        for (const GpuConfig &cfg : configs) {
            setupNs.push_back(cfg.drawSetupCycles / cfg.coreClockGhz);
            coreGhz.push_back(cfg.coreClockGhz);
            opsPerCyc.push_back(cfg.opsPerCycle());
            vfRate.push_back(cfg.vertexFetchBytesPerCycle);
            primRate.push_back(cfg.rasterPrimsPerCycle);
            pixRate.push_back(cfg.rasterPixelsPerCycle);
            texRate.push_back(cfg.texSamplesPerCycle);
            ropRate.push_back(cfg.ropPixelsPerCycle);
            l2Rate.push_back(cfg.l2BytesPerCycle);
            dramBw.push_back(cfg.dramBandwidthBytesPerNs());
            overheadNs.push_back(cfg.frameOverheadUs * 1e3);
        }
    }
};

/**
 * Schedule per_group(g) for every group: one group per chunk on one
 * thread, else over cost-balanced contiguous shards (one shard plan
 * per call, per-group cost = row count + 1 so empty groups still carry
 * scheduling weight). Pure scheduling: every caller keeps per-group
 * state indexed by g and reduces in ascending group order afterwards,
 * so any shard shape produces bit-identical results by construction.
 */
template <typename Fn>
void
forEachGroupSharded(const WorkTrace &wt, Fn &&per_group)
{
    const std::size_t groups = wt.groupCount();
    if (resolvedThreadCount() <= 1) {
        parallelFor(0, groups, 1, per_group);
        return;
    }
    std::vector<double> costs(groups);
    for (std::size_t g = 0; g < groups; ++g)
        costs[g] = static_cast<double>(wt.groupEnd(g) -
                                       wt.groupBegin(g)) +
                   1.0;
    const ShardPlan plan =
        partitionTraceShards(costs, defaultShardCount(groups));
    const auto &f = per_group;
    parallelShards(plan.bounds, [&f](std::size_t b, std::size_t e) {
        for (std::size_t g = b; g < e; ++g)
            f(g);
    });
}

/**
 * Generic blocked kernel: parallel over groups, and for each draw an
 * inner loop over all configs so the row's columns are loaded once
 * per pass instead of once per design. The arithmetic per draw ×
 * config replicates timeDrawWork operation for operation (same
 * divides, same order, strict-> max scan starting at VertexFetch),
 * so every per-draw total and bottleneck stage is bit-identical to
 * timeDrawWork's. Handles configs whose capacity rates differ (e.g.
 * pathfinding groups that share a capacity hash but not widths).
 */
void
retimeEngineGeneric(const WorkTrace &wt,
                    std::span<const GpuConfig> configs,
                    const HoistedConfigs &h, bool per_draw,
                    SweepResult &result,
                    std::vector<double> &group_hist_ns,
                    std::vector<std::uint64_t> &group_hist_count)
{
    const std::size_t n_cfg = configs.size();
    const std::size_t groups = wt.groupCount();

    const double *vfetch = wt.vertexFetchBytes();
    const double *vs_ops = wt.vsOpsTotal();
    const double *prims = wt.primitives();
    const double *pixels = wt.pixels();
    const double *ps_ops = wt.psOpsTotal();
    const double *tex = wt.texSamples();
    const double *rop = wt.ropPixels();
    const double *l2 = wt.l2Bytes();
    const double *dram = wt.dramBytes();

    forEachGroupSharded(wt, [&](std::size_t g) {
        std::vector<double> acc(n_cfg, 0.0);
        double *hist_ns = &group_hist_ns[g * n_cfg * numStages];
        std::uint64_t *hist_count =
            &group_hist_count[g * n_cfg * numStages];
        for (std::size_t i = wt.groupBegin(g); i < wt.groupEnd(g); ++i) {
            const double d_vfetch = vfetch[i];
            const double d_vs_ops = vs_ops[i];
            const double d_prims = prims[i];
            const double d_pixels = pixels[i];
            const double d_ps_ops = ps_ops[i];
            const double d_tex = tex[i];
            const double d_rop = rop[i];
            const double d_l2 = l2[i];
            const double d_dram = dram[i];
            for (std::size_t c = 0; c < n_cfg; ++c) {
                const double ghz = h.coreGhz[c];
                const double s_vf = d_vfetch / h.vfRate[c] / ghz;
                const double s_vs = d_vs_ops / h.opsPerCyc[c] / ghz;
                const double s_ra =
                    (d_prims / h.primRate[c] + d_pixels / h.pixRate[c]) /
                    ghz;
                const double s_ps = d_ps_ops / h.opsPerCyc[c] / ghz;
                const double s_tx = d_tex / h.texRate[c] / ghz;
                const double s_ro = d_rop / h.ropRate[c] / ghz;
                const double s_l2 = d_l2 / h.l2Rate[c] / ghz;
                const double s_dr = d_dram / h.dramBw[c];

                // timeDrawWork's max scan: enum order, strict >,
                // initial worst 0 / VertexFetch.
                double worst = 0.0;
                std::size_t worst_stage = stageIdx(Stage::VertexFetch);
                if (s_vf > worst) {
                    worst = s_vf;
                    worst_stage = stageIdx(Stage::VertexFetch);
                }
                if (s_vs > worst) {
                    worst = s_vs;
                    worst_stage = stageIdx(Stage::VertexShade);
                }
                if (s_ra > worst) {
                    worst = s_ra;
                    worst_stage = stageIdx(Stage::Raster);
                }
                if (s_ps > worst) {
                    worst = s_ps;
                    worst_stage = stageIdx(Stage::PixelShade);
                }
                if (s_tx > worst) {
                    worst = s_tx;
                    worst_stage = stageIdx(Stage::Texture);
                }
                if (s_ro > worst) {
                    worst = s_ro;
                    worst_stage = stageIdx(Stage::Rop);
                }
                if (s_l2 > worst) {
                    worst = s_l2;
                    worst_stage = stageIdx(Stage::L2);
                }
                if (s_dr > worst) {
                    worst = s_dr;
                    worst_stage = stageIdx(Stage::Dram);
                }

                const double total = h.setupNs[c] + worst;
                const std::size_t bottleneck =
                    worst > h.setupNs[c] ? worst_stage
                                         : stageIdx(Stage::Setup);
                acc[c] += total;
                hist_ns[c * numStages + bottleneck] += total;
                ++hist_count[c * numStages + bottleneck];
                if (per_draw)
                    result.drawNs[c * wt.drawCount() + i] = total;
            }
        }
        for (std::size_t c = 0; c < n_cfg; ++c)
            result.groupNs[c * groups + g] = acc[c] + h.overheadNs[c];
    });
}

/** All values of a hoisted-constant column bitwise equal? */
bool
uniformColumn(const std::vector<double> &v)
{
    for (double x : v)
        if (x != v.front())
            return false;
    return true;
}

/**
 * A clock sweep leaves every throughput rate identical across
 * configs; only coreClockGhz (and therefore setup / overhead) moves.
 * When that holds the per-draw quotients q_s = work / rate are
 * config-independent, and because IEEE division by a positive clock
 * is monotone the max over the seven clocked stages commutes with
 * the division: max_s round(q_s / ghz) == round(max_s q_s / ghz).
 * That shrinks the clocked max scan to ONE divide per draw × config.
 */
bool
clockOnlySweep(const HoistedConfigs &h)
{
    return uniformColumn(h.opsPerCyc) && uniformColumn(h.vfRate) &&
           uniformColumn(h.primRate) && uniformColumn(h.pixRate) &&
           uniformColumn(h.texRate) && uniformColumn(h.ropRate) &&
           uniformColumn(h.l2Rate) && uniformColumn(h.dramBw);
}

/**
 * Exact timeDrawWork max scan from the shared quotients, for the
 * (astronomically rare) draws where two stage quotients land within
 * a few ulps of each other and the divided values could tie. The
 * divides here are the very operations timeDrawWork performs, so
 * the recovered bottleneck stage matches it bitwise.
 */
void
exactClockedScan(const double *q, double s_dr, double ghz, double setup,
                 double &total, std::size_t &bneck)
{
    double worst = 0.0;
    std::size_t worst_stage = stageIdx(Stage::VertexFetch);
    for (std::size_t k = 0; k < 7; ++k) {
        const double s = q[k] / ghz;
        if (s > worst) {
            worst = s;
            worst_stage = stageIdx(Stage::VertexFetch) + k;
        }
    }
    if (s_dr > worst) {
        worst = s_dr;
        worst_stage = stageIdx(Stage::Dram);
    }
    total = setup + worst;
    bneck = worst > setup ? worst_stage : stageIdx(Stage::Setup);
}

/**
 * Fast kernel for clock-only sweeps. Per block of draws: compute the
 * config-independent stage quotients once (vectorizable divides),
 * take their max/argmax once, then each config pays a single divide
 * plus the dram/setup comparisons. The quotients are bitwise
 * timeDrawWork's intermediates (same dividends, same rates), the max
 * value commutes with the positive division, and near-ties fall back
 * to the exact scan above — so the output stays bit-identical.
 */
void
retimeEngineClocked(const WorkTrace &wt,
                    std::span<const GpuConfig> configs,
                    const HoistedConfigs &h, bool per_draw,
                    SweepResult &result,
                    std::vector<double> &group_hist_ns,
                    std::vector<std::uint64_t> &group_hist_count)
{
    constexpr std::size_t kBlock = 128;
    // A stage quotient this close (relatively) to the block max could
    // round to the same divided value; ~45 quotient ulps of margin
    // over the <= 2 ulp window where a collision is possible.
    constexpr double kNearTie = 1.0 - 1e-14;

    const std::size_t n_cfg = configs.size();
    const std::size_t groups = wt.groupCount();

    const double *vfetch = wt.vertexFetchBytes();
    const double *vs_ops = wt.vsOpsTotal();
    const double *prims = wt.primitives();
    const double *pixels = wt.pixels();
    const double *ps_ops = wt.psOpsTotal();
    const double *tex = wt.texSamples();
    const double *rop = wt.ropPixels();
    const double *l2 = wt.l2Bytes();
    const double *dram = wt.dramBytes();

    const double vf_rate = h.vfRate.front();
    const double ops_rate = h.opsPerCyc.front();
    const double prim_rate = h.primRate.front();
    const double pix_rate = h.pixRate.front();
    const double tex_rate = h.texRate.front();
    const double rop_rate = h.ropRate.front();
    const double l2_rate = h.l2Rate.front();
    const double dram_bw = h.dramBw.front();

    forEachGroupSharded(wt, [&](std::size_t g) {
        std::vector<double> acc(n_cfg, 0.0);
        double *hist_base = &group_hist_ns[g * n_cfg * numStages];
        std::uint64_t *count_base =
            &group_hist_count[g * n_cfg * numStages];

        for (std::size_t row = wt.groupBegin(g); row < wt.groupEnd(g);
             row += kBlock) {
            const std::size_t n =
                std::min(kBlock, wt.groupEnd(g) - row);

            // Pass A: config-independent stage quotients, one divide
            // chain per stage, stage-major so each loop vectorizes.
            double q[7][kBlock];
            double s_dr[kBlock];
            for (std::size_t j = 0; j < n; ++j)
                q[0][j] = vfetch[row + j] / vf_rate;
            for (std::size_t j = 0; j < n; ++j)
                q[1][j] = vs_ops[row + j] / ops_rate;
            for (std::size_t j = 0; j < n; ++j)
                q[2][j] = prims[row + j] / prim_rate +
                          pixels[row + j] / pix_rate;
            for (std::size_t j = 0; j < n; ++j)
                q[3][j] = ps_ops[row + j] / ops_rate;
            for (std::size_t j = 0; j < n; ++j)
                q[4][j] = tex[row + j] / tex_rate;
            for (std::size_t j = 0; j < n; ++j)
                q[5][j] = rop[row + j] / rop_rate;
            for (std::size_t j = 0; j < n; ++j)
                q[6][j] = l2[row + j] / l2_rate;
            for (std::size_t j = 0; j < n; ++j)
                s_dr[j] = dram[row + j] / dram_bw;

            // Pass B: max/argmax of the clocked stages (strict >,
            // stage order — first index attaining the max, exactly
            // the tie-break of timeDrawWork's scan) plus a near-tie
            // flag for draws needing the exact fallback.
            double max_q[kBlock];
            std::size_t arg_q[kBlock];
            bool near[kBlock];
            for (std::size_t j = 0; j < n; ++j) {
                double wq = 0.0;
                std::size_t ws = 0;
                for (std::size_t k = 0; k < 7; ++k) {
                    const bool gt = q[k][j] > wq;
                    ws = gt ? k : ws;
                    wq = gt ? q[k][j] : wq;
                }
                bool tie = false;
                for (std::size_t k = 0; k < 7; ++k)
                    tie |= q[k][j] < wq && q[k][j] > wq * kNearTie;
                max_q[j] = wq;
                arg_q[j] = stageIdx(Stage::VertexFetch) + ws;
                near[j] = tie;
            }

            // Pass C: one divide per draw × config, then the dram and
            // setup comparisons of timeDrawWork on identical values.
            for (std::size_t c = 0; c < n_cfg; ++c) {
                const double ghz = h.coreGhz[c];
                const double setup = h.setupNs[c];
                double *hist_ns = hist_base + c * numStages;
                std::uint64_t *hist_count = count_base + c * numStages;
                double *dst =
                    per_draw
                        ? &result.drawNs[c * wt.drawCount() + row]
                        : nullptr;

                double t_total[kBlock];
                std::size_t t_bneck[kBlock];
                for (std::size_t j = 0; j < n; ++j) {
                    const double worst7 = max_q[j] / ghz;
                    const bool dr = s_dr[j] > worst7;
                    const double worst = dr ? s_dr[j] : worst7;
                    const std::size_t ws =
                        dr ? stageIdx(Stage::Dram) : arg_q[j];
                    t_total[j] = setup + worst;
                    t_bneck[j] = worst > setup ? ws
                                               : stageIdx(Stage::Setup);
                }

                double a = acc[c];
                for (std::size_t j = 0; j < n; ++j) {
                    double total = t_total[j];
                    std::size_t bneck = t_bneck[j];
                    if (near[j]) {
                        double qj[7];
                        for (std::size_t k = 0; k < 7; ++k)
                            qj[k] = q[k][j];
                        exactClockedScan(qj, s_dr[j], ghz, setup,
                                         total, bneck);
                    }
                    a += total;
                    hist_ns[bneck] += total;
                    ++hist_count[bneck];
                    if (dst != nullptr)
                        dst[j] = total;
                }
                acc[c] = a;
            }
        }

        for (std::size_t c = 0; c < n_cfg; ++c)
            result.groupNs[c * groups + g] = acc[c] + h.overheadNs[c];
    });
}

} // namespace

SweepResult
retimeAll(const WorkTrace &trace, std::span<const GpuConfig> configs,
          const SweepConfig &config)
{
    obs::SpanScope span("core.retimeAll");
    GWS_ASSERT(!configs.empty(), "retimeAll with no configs");
    for (const GpuConfig &cfg : configs)
        GWS_ASSERT(capacityConfigHash(cfg) == trace.capacityKey(),
                   "config '", cfg.name,
                   "' changes capacity parameters; the work trace was "
                   "computed under a different capacity hash");

    const std::size_t n_cfg = configs.size();
    const std::size_t groups = trace.groupCount();

    SweepResult result;
    result.configCount = n_cfg;
    result.groupCount = groups;
    result.drawCount = trace.drawCount();
    result.totalNs.assign(n_cfg, 0.0);
    result.groupNs.assign(n_cfg * groups, 0.0);
    result.bottleneckNs.assign(n_cfg * numStages, 0.0);
    result.bottleneckCount.assign(n_cfg * numStages, 0);
    if (config.perDraw)
        result.drawNs.assign(n_cfg * trace.drawCount(), 0.0);

    // Per-group histogram partials, combined in ascending group order
    // below, so the merge order (and therefore every rounded sum) does
    // not depend on the shard shape.
    std::vector<double> group_hist_ns(groups * n_cfg * numStages, 0.0);
    std::vector<std::uint64_t> group_hist_count(
        groups * n_cfg * numStages, 0);

    // Clock-only sweeps take the single-divide kernel.
    const HoistedConfigs h(configs);
    if (clockOnlySweep(h))
        retimeEngineClocked(trace, configs, h, config.perDraw, result,
                            group_hist_ns, group_hist_count);
    else
        retimeEngineGeneric(trace, configs, h, config.perDraw, result,
                            group_hist_ns, group_hist_count);

    for (std::size_t c = 0; c < n_cfg; ++c) {
        double total = 0.0;
        for (std::size_t g = 0; g < groups; ++g)
            total += result.groupNs[c * groups + g];
        result.totalNs[c] = total;
        for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t slab = (g * n_cfg + c) * numStages;
            for (std::size_t s = 0; s < numStages; ++s) {
                result.bottleneckNs[c * numStages + s] +=
                    group_hist_ns[slab + s];
                result.bottleneckCount[c * numStages + s] +=
                    group_hist_count[slab + s];
            }
        }
    }

    g_sweep_configs.add(n_cfg);
    g_draws_retimed.add(n_cfg * trace.drawCount());
    return result;
}

WorkTrace
buildSubsetWorkTrace(const Trace &trace, const WorkloadSubset &subset,
                     const GpuSimulator &simulator)
{
    obs::SpanScope span("core.buildSubsetWorkTrace");

    std::vector<std::size_t> sizes;
    sizes.reserve(subset.units.size());
    for (const SubsetUnit &unit : subset.units)
        sizes.push_back(unit.frameSubset.clustering.k);

    WorkTrace wt(capacityConfigHash(simulator.config()), sizes);
    parallelFor(0, subset.units.size(), 1, [&](std::size_t u) {
        const SubsetUnit &unit = subset.units[u];
        const Frame &frame = trace.frame(unit.frameIndex);
        std::size_t row = wt.groupBegin(u);
        for (std::size_t rep : unit.frameSubset.clustering.representatives)
            wt.setRow(row++, simulator.computeDrawWork(
                                 trace, frame.draws()[rep]));
    });

    g_work_trace_draws.add(wt.drawCount());
    return wt;
}

std::vector<double>
priceSubsetSweep(const WorkloadSubset &subset, const WorkTrace &subset_work,
                 const SweepResult &subset_sweep,
                 std::span<const GpuConfig> configs)
{
    std::vector<double> totals;
    totals.reserve(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const double overhead = configs[c].frameOverheadUs * 1e3;
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
        totals.push_back(subset_total);
    }
    return totals;
}

std::vector<GpuConfig>
clockSweepConfigs(const GpuConfig &base, const std::vector<double> &scales)
{
    std::vector<GpuConfig> configs;
    configs.reserve(scales.size());
    for (double scale : scales)
        configs.push_back(base.withCoreClockScale(scale));
    return configs;
}

} // namespace gws
