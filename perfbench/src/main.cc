/**
 * @file
 * gws_perfbench: the repository's end-to-end benchmark harness.
 *
 *   gws_perfbench --workload characterize|validate|explore --seed N
 *                 --seconds S --trace 0|1 [--threads 4]
 *                 [--work-dir DIR]
 *
 * One process: set up the seeded inputs several times (at least 3
 * times and for at least 2 s; setup_s is the median), run one untimed
 * reference pass through the library's composite entry points (it
 * also warms OS and page caches), then repeat timed passes through the
 * constituent public calls until S seconds have been measured. Every
 * timed pass starts with an empty draw-work memo cache and zeroed
 * registry counters, and must reproduce the reference results bit for
 * bit with the same digest.
 *
 * With --trace 0 every pass is untraced and the result line carries
 * the end-to-end metrics: setup_s, wall_s (median pass time) and
 * setup_rss_mb (peak resident set after set-up). The peak of the whole
 * run (peak_rss_mb) is reported with the per-layer metrics: on
 * validate it differs by up to a quarter between processes of one
 * seed, as glibc's arenas keep more or less freed memory around the
 * same live heap, and on characterize it follows the largest sampled
 * frame. With --trace 1 untraced and
 * traced passes alternate; the traced ones record the harness's spans,
 * which give the per-layer metrics, and the spans of the last traced
 * pass are written as Chrome trace JSON to
 * DIR/<workload>-seed<N>.trace.json.
 * The last stdout line is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench.hh"
#include "gpusim/draw_work_cache.hh"
#include "obs/mem.hh"
#include "obs/metrics.hh"
#include "runtime/runtime_config.hh"
#include "spans.hh"

namespace perfbench {

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::size_t threads = 4;
    std::string workDir = ".bench_build/run";
};

/** Set-up runs: at least 3 and for at least 2 s, at most 25. */
constexpr std::size_t minSetupRuns = 3;
constexpr double minSetupSeconds = 2.0;
constexpr std::size_t maxSetupRuns = 25;

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "gws_perfbench: %s\n"
                 "usage: gws_perfbench --workload characterize|validate|"
                 "explore --seed N --seconds S --trace 0|1\n"
                 "                     [--threads 4] [--work-dir DIR]\n",
                 problem.c_str());
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &name, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno == ERANGE)
        usage("--" + name + " wants a non-negative integer, got '" + text +
              "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            usage("unexpected argument '" + arg + "'");
        arg = arg.substr(2);
        std::string value;
        if (const auto eq = arg.find('='); eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage("--" + arg + " needs a value");
        }
        if (arg == "workload") {
            o.workload = value;
            have_workload = true;
        } else if (arg == "seed") {
            o.seed = parseUint(arg, value);
            have_seed = true;
        } else if (arg == "seconds") {
            o.seconds = static_cast<double>(parseUint(arg, value));
            have_seconds = true;
        } else if (arg == "trace") {
            if (value != "0" && value != "1")
                usage("--trace wants 0 or 1");
            o.trace = value == "1";
            have_trace = true;
        } else if (arg == "threads") {
            o.threads = parseUint(arg, value);
        } else if (arg == "work-dir") {
            o.workDir = value;
        } else {
            usage("unknown option --" + arg);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (o.seconds < 1 || o.threads < 1)
        usage("--seconds and --threads must be at least 1");
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "characterize")
        return makeCharacterize();
    if (name == "validate")
        return makeValidate();
    if (name == "explore")
        return makeExplore();
    usage("unknown workload '" + name + "'");
}

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
peakRssMb()
{
    return static_cast<double>(gws::obs::peakRssBytes()) / 1048576.0;
}

/** Empty the program's caches, as at the start of a fresh figure run. */
void
coldCaches()
{
    gws::drawWorkCacheClear();
    gws::obs::metricsRegistry().resetAll();
}

/** Every workload's fidelity metrics, all in percent. */
constexpr const char *fidelityNames[] = {
    "pred_error_pct", "cluster_eff_pct", "outlier_pct", "min_corr_pct",
    "rank_preserved_pct", "subset_draw_pct", "cluster.leader.error_pct",
    "cluster.leader.eff_pct", "cluster.kmeans_bic.error_pct",
    "cluster.kmeans_bic.eff_pct", "cluster.agglomerative.error_pct",
    "cluster.agglomerative.eff_pct", "cluster.graphpart.error_pct",
    "cluster.graphpart.eff_pct"};

/**
 * Per-layer metrics of one traced pass. Registry counters under a
 * prefix the workload drives but that the library no longer registers
 * are returned in `absent` instead.
 */
class LayerReport
{
  public:
    LayerReport(std::map<std::string, LayerTotals> setup_layers,
                std::map<std::string, LayerTotals> pass_layers,
                std::vector<std::string> driven)
        : setup(std::move(setup_layers)), pass(std::move(pass_layers)),
          drivenPrefixes(std::move(driven))
    {
        for (gws::obs::MetricSnapshot &row :
             gws::obs::metricsRegistry().snapshot())
            registry.emplace(row.name, std::move(row));
    }

    Metrics
    build(const Workload &wl)
    {
        add("synth.generate_s", secs(setup, "synth.generate"), "s");
        add("synth.draws", items(setup, "synth.generate"), "count");
        add("trace.write_s", secs(setup, "trace.write"), "s");
        const double read_s = secs(pass, "trace.read");
        add("trace.read_s", read_s, "s");
        add("trace.read_mb_per_s",
            read_s > 0 ? items(pass, "trace.read") / 1048576.0 / read_s : 0.0,
            "MiB/s");
        add("phase.detect_s", secs(pass, "phase.detect"), "s");
        add("phase.phases", items(pass, "phase.detect"), "count");
        add("features.extract_s", secs(pass, "features.extract"), "s");
        add("features.points", items(pass, "features.extract"), "count");
        for (const char *f :
             {"leader", "kmeans_bic", "agglomerative", "graphpart"})
            add(std::string("cluster.") + f + ".busy_s",
                secs(pass, std::string("cluster.") + f), "s");
        add("cluster.quality_s", secs(pass, "cluster.quality"), "s");
        addRatio("cluster.kmeans.bound_skip_pct",
                 "cluster.kmeans.boundsSkipped", "cluster.kmeans.fullScans");
        addRatio("cluster.leader.norm_reject_pct",
                 "cluster.leader.normRejects", "cluster.leader.distances");

        const double truth_s = secs(pass, "gpusim.truth");
        const double build_s = secs(pass, "gpusim.work_build");
        const double price_s = secs(pass, "gpusim.price");
        const double sim_draws = items(pass, "gpusim.truth") +
                                 items(pass, "gpusim.work_build") +
                                 items(pass, "gpusim.price");
        add("gpusim.truth_s", truth_s, "s");
        add("gpusim.work_build_s", build_s, "s");
        add("gpusim.work_draws", items(pass, "gpusim.work_build"), "count");
        add("gpusim.ns_per_draw",
            sim_draws > 0 ? (truth_s + build_s + price_s) * 1e9 / sim_draws
                          : 0.0,
            "ns");
        add("gpusim.price_s", price_s, "s");
        add("gpusim.priced_draws", items(pass, "gpusim.price"), "count");
        addRatio("gpusim.memo_hit_pct", "gpusim.drawCache.hits",
                 "gpusim.drawCache.misses");
        addRatio("gpusim.texbind_hit_pct", "gpusim.texBind.hits",
                 "gpusim.texBind.misses");

        add("core.subset_s", secs(pass, "core.subset"), "s");
        add("core.retime_s", secs(pass, "core.retime"), "s");
        add("core.draw_configs", items(pass, "core.retime"), "count");
        add("core.predict_s", secs(pass, "core.predict"), "s");

        addCounter("runtime.parallel_regions", "runtime.parallelRegions",
                   1.0, "count");
        addCounter("runtime.inline_regions", "runtime.inlineRegions", 1.0,
                   "count");
        addCounter("runtime.pool_tasks", "runtime.tasksSubmitted", 1.0,
                   "count");
        addCounter("runtime.worker_idle_s", "runtime.workerIdleNs", 1e-9,
                   "s");
        addCounter("runtime.submitter_wait_s", "runtime.submitterWaitNs",
                   1e-9, "s");
        addCounter("partition.shard_plans", "gws.part.shard_plans", 1.0,
                   "count");
        addCounter("partition.shard_imbalance", "gws.part.shard_imbalance",
                   1.0, "ratio");

        // Fidelity metrics: those a workload does not produce read 0.
        Metrics fidelity;
        wl.fidelity(fidelity);
        for (const char *name : fidelityNames) {
            const auto it =
                std::find_if(fidelity.begin(), fidelity.end(),
                             [&](const Metric &m) { return m.name == name; });
            add(name, it == fidelity.end() ? 0.0 : it->value, "%");
        }
        return out;
    }

    /** Metrics whose registry counter disappeared. */
    std::vector<std::string> absent;

  private:
    static double
    secs(const std::map<std::string, LayerTotals> &layers,
         const std::string &name)
    {
        const auto it = layers.find(name);
        return it == layers.end() ? 0.0 : it->second.selfNs * 1e-9;
    }

    static double
    items(const std::map<std::string, LayerTotals> &layers,
          const std::string &name)
    {
        const auto it = layers.find(name);
        return it == layers.end() ? 0.0
                                  : static_cast<double>(it->second.items);
    }

    void
    add(const std::string &name, double value, const char *unit)
    {
        out.push_back({name, value, unit});
    }

    /** A registry value; nullopt when it is gone from a driven prefix. */
    std::optional<double>
    lookup(const std::string &name) const
    {
        const auto it = registry.find(name);
        if (it != registry.end()) {
            const gws::obs::MetricSnapshot &row = it->second;
            return row.type == gws::obs::MetricType::Gauge
                       ? row.gaugeValue
                       : static_cast<double>(row.counterValue);
        }
        for (const std::string &prefix : drivenPrefixes)
            if (name.rfind(prefix, 0) == 0)
                return std::nullopt;
        return 0.0; // the workload never runs that layer
    }

    void
    addCounter(const std::string &metric, const std::string &counter,
               double scale, const char *unit)
    {
        if (const auto v = lookup(counter))
            add(metric, *v * scale, unit);
        else
            absent.push_back(metric + " (no registry metric " + counter +
                             ")");
    }

    void
    addRatio(const std::string &metric, const std::string &num,
             const std::string &other)
    {
        const auto a = lookup(num);
        const auto b = lookup(other);
        if (!a || !b) {
            absent.push_back(metric + " (no registry metric " +
                             (a ? other : num) + ")");
            return;
        }
        add(metric, *a + *b > 0 ? 100.0 * *a / (*a + *b) : 0.0, "%");
    }

    std::map<std::string, LayerTotals> setup;
    std::map<std::string, LayerTotals> pass;
    std::vector<std::string> drivenPrefixes;
    std::map<std::string, gws::obs::MetricSnapshot> registry;
    Metrics out;
};

/** Median of each named metric across passes (first pass's order). */
Metrics
medianMetrics(const std::vector<Metrics> &passes)
{
    Metrics out;
    if (passes.empty())
        return out;
    for (const Metric &m : passes.front()) {
        std::vector<double> values;
        for (const Metrics &p : passes)
            for (const Metric &q : p)
                if (q.name == m.name)
                    values.push_back(q.value);
        out.push_back({m.name, median(values), m.unit});
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

int
run(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    std::unique_ptr<Workload> wl = makeWorkload(opt.workload);
    std::filesystem::create_directories(opt.workDir);

    gws::RuntimeConfig rc = gws::runtimeConfig();
    rc.threads = opt.threads;
    gws::setRuntimeConfig(rc);
    setRecording(false);

    // --- set-up: several times, report the median -------------------
    std::vector<double> setup_s;
    std::map<std::string, LayerTotals> setup_layers;
    double setup_total = 0.0;
    for (std::size_t r = 0;
         r < minSetupRuns ||
         (setup_total < minSetupSeconds && r < maxSetupRuns);
         ++r) {
        clearSpans();
        setRecording(opt.trace);
        const std::uint64_t t0 = nowNs();
        wl->setup(opt.seed, opt.workDir);
        setup_s.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        setup_total += setup_s.back();
        setRecording(false);
        setup_layers = layerTotals(collectSpans());
    }
    clearSpans();
    const double setup_rss_mb = peakRssMb();

    // --- reference pass: composite entry points, untimed ------------
    coldCaches();
    wl->reference();
    const double reference_rss_mb = peakRssMb();

    // --- timed passes ------------------------------------------------
    std::vector<double> untraced_s, traced_s;
    std::vector<Metrics> layer_passes;
    std::vector<std::string> problems, absent;
    std::vector<Span> last_spans;
    std::uint64_t attempted = 0, failed = 0;
    std::optional<std::uint64_t> digest;
    const std::uint64_t start = nowNs();
    for (std::size_t i = 0;; ++i) {
        const bool traced = opt.trace && i % 2 == 1;
        coldCaches();
        clearSpans();
        setRecording(traced);
        const std::uint64_t t0 = nowNs();
        wl->pass();
        const double dt = static_cast<double>(nowNs() - t0) * 1e-9;
        setRecording(false);
        (traced ? traced_s : untraced_s).push_back(dt);

        const PassCheck chk = wl->check();
        attempted += chk.attempted;
        failed += chk.failed;
        problems.insert(problems.end(), chk.mismatches.begin(),
                        chk.mismatches.end());
        if (digest && *digest != chk.digest)
            problems.push_back("pass " + std::to_string(i) +
                               " digest differs from pass 0");
        digest = chk.digest;

        if (traced) {
            last_spans = collectSpans();
            LayerReport report(setup_layers, layerTotals(last_spans),
                               wl->drivenPrefixes());
            layer_passes.push_back(report.build(*wl));
            absent = report.absent;
        }
        const double elapsed = static_cast<double>(nowNs() - start) * 1e-9;
        if (elapsed >= opt.seconds && (!opt.trace || !traced_s.empty()))
            break;
    }
    const double wall_s = median(untraced_s);
    const double peak_rss_mb = peakRssMb();

    // --- report ------------------------------------------------------
    Metrics fidelity;
    wl->fidelity(fidelity);
    Metrics metrics;
    if (opt.trace) {
        metrics = medianMetrics(layer_passes);
        metrics.push_back({"trace_overhead_pct",
                           100.0 * (median(traced_s) / wall_s - 1.0), "%"});
        metrics.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
        const std::string path = opt.workDir + "/" + opt.workload +
                                 "-seed" + std::to_string(opt.seed) +
                                 ".trace.json";
        if (!writeChromeTrace(last_spans, path))
            problems.push_back("cannot write " + path);
        std::printf("trace: %zu spans of the last traced pass in %s\n",
                    last_spans.size(), path.c_str());
    } else {
        metrics.push_back({"setup_s", median(setup_s), "s"});
        metrics.push_back({"wall_s", wall_s, "s"});
        metrics.push_back({"setup_rss_mb", setup_rss_mb, "MiB"});
    }

    std::printf("gws_perfbench workload=%s seed=%" PRIu64
                " threads=%zu trace=%d\n",
                opt.workload.c_str(), opt.seed, opt.threads,
                opt.trace ? 1 : 0);
    std::printf("setup runs %zu, timed passes %zu untraced + %zu traced "
                "(+1 reference)\n",
                setup_s.size(), untraced_s.size(), traced_s.size());
    for (const auto &[label, times] :
         {std::pair{"setup", &setup_s}, std::pair{"untraced", &untraced_s},
          std::pair{"traced", &traced_s}}) {
        std::printf("%s seconds:", label);
        for (double t : *times)
            std::printf(" %.4f", t);
        std::printf("\n");
    }
    std::printf("peak RSS after set-up %.1f MiB, after the reference pass "
                "%.1f MiB, after the timed passes %.1f MiB\n",
                setup_rss_mb, reference_rss_mb, peak_rss_mb);
    std::printf("fail_ratio %.6g fraction (%" PRIu64 " of %" PRIu64
                " operations)\n",
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0,
                failed, attempted);
    for (const Metric &m : fidelity)
        std::printf("%s %.6g %s (fidelity)\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const Metric &m : metrics)
        std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    for (const std::string &a : absent)
        std::printf("absent: %s\n", a.c_str());
    std::printf("digest %s seed=%" PRIu64 " %016" PRIx64 "\n",
                opt.workload.c_str(), opt.seed, digest.value_or(0));
    for (const std::string &p : problems)
        std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());

    const bool correct = problems.empty();
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + jsonNumber(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gws_perfbench: %s\n", e.what());
        return 1;
    }
}
