/**
 * @file
 * Shared plumbing for the experiment harnesses: every bench accepts
 * --scale=ci|paper (ci by default so running every bench binary in a
 * loop stays fast; paper regenerates the full 717-frame corpus) and
 * prints the rows/series of the paper table or figure it reproduces.
 *
 * Observability: --trace-out=<file> records a Chrome trace (load it in
 * https://ui.perfetto.dev), --metrics-out=<file> exports the metrics
 * registry, and --runtime-stats prints the counter report plus the
 * span self-time rollup. Results JSON goes through BenchJsonWriter so
 * every BENCH_<name>.json shares one envelope (bench name, git
 * revision, thread count, wall time).
 */

#ifndef GWS_BENCH_BENCH_COMMON_HH
#define GWS_BENCH_BENCH_COMMON_HH

#include <sys/stat.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "features/pca.hh"
#include "obs/obs.hh"
#include "report/report.hh"
#include "runtime/runtime.hh"
#include "synth/suite.hh"
#include "util/args.hh"
#include "util/env.hh"
#include "util/error.hh"
#include "util/logging.hh"

#ifndef GWS_GIT_DESCRIBE
#define GWS_GIT_DESCRIBE "unknown"
#endif

namespace gws {

/** Suite + corpus regenerated for one bench run. */
struct BenchContext
{
    /** The selected scale. */
    SuiteScale scale = SuiteScale::Ci;

    /** Playthrough traces of the built-in game suite. */
    std::vector<Trace> suite;

    /** The sampled characterization corpus. */
    std::vector<CorpusFrame> corpus;
};

/**
 * Steady-clock origin of this bench process, pinned on first call
 * (addThreadsOption() calls it at startup). The envelope's wall time
 * is measured from here.
 */
inline std::uint64_t
benchProcessT0()
{
    static const std::uint64_t t0 = runtime_detail::nowNs();
    return t0;
}

/** Register the standard --scale option. */
inline void
addScaleOption(ArgParser &args)
{
    args.addString("scale", "ci",
                   "suite scale: ci (fast) or paper (717-frame corpus)");
}

/**
 * Register the standard --threads option (0 = hardware concurrency),
 * defaulting from the GWS_THREADS environment variable, plus the
 * --runtime-stats flag. Applied by makeBenchContext() /
 * applyThreadsOption().
 */
inline void
addThreadsOption(ArgParser &args)
{
    benchProcessT0(); // pin the envelope's wall-time origin early
    const std::int64_t def =
        static_cast<std::int64_t>(envSize("GWS_THREADS", 0));
    args.addInt("threads", def,
                "worker threads, 0 = hardware concurrency "
                "(default from GWS_THREADS)");
    args.addFlag("runtime-stats",
                 "print parallel-runtime counters before exit");
    args.addString("trace-out", "",
                   "record a Chrome/Perfetto trace to this file");
    args.addString("metrics-out", "",
                   "export the metrics registry as JSON to this file");
    args.addString("report-out", "",
                   "write a self-contained HTML dashboard built from "
                   "the --trace-out / --metrics-out artifacts and "
                   "results/ to this file");
    args.addString("pca", "",
                   "cluster in the PCA-whitened feature space keeping "
                   "this cumulative-variance fraction in (0, 1]; "
                   "'off' forces the raw space (the default)");
}

/**
 * Apply a parsed --threads value to the global runtime config and arm
 * the --trace-out / --metrics-out exports (flushed by reportRuntime()
 * or atexit). Recording starts here, so everything the bench does
 * after option parsing lands in the trace.
 */
inline void
applyThreadsOption(const ArgParser &args)
{
    RuntimeConfig cfg = runtimeConfig();
    const std::int64_t t = args.getInt("threads");
    cfg.threads = t <= 0 ? 0 : static_cast<std::size_t>(t);
    setRuntimeConfig(cfg);
    obs::metricsRegistry().gauge("gws.threads")
        .set(static_cast<double>(resolvedThreadCount()));

    const std::string trace_out = args.getString("trace-out");
    if (!trace_out.empty()) {
        obs::setTraceOutputPath(trace_out);
        if (!obs::traceEnabled())
            obs::traceBegin();
    }
    const std::string metrics_out = args.getString("metrics-out");
    if (!metrics_out.empty())
        obs::setMetricsOutputPath(metrics_out);

    const std::string pca = args.getString("pca");
    if (!pca.empty()) {
        FeatureSpaceConfig fs;
        if (pca == "off" || pca == "0") {
            fs.path = FeaturePath::Naive;
        } else {
            char *end = nullptr;
            const double frac = std::strtod(pca.c_str(), &end);
            if (end == pca.c_str() || *end != '\0' || !(frac > 0.0) ||
                frac > 1.0)
                GWS_FATAL("--pca wants a variance fraction in (0, 1] "
                          "or 'off', got '", pca, "'");
            fs.path = FeaturePath::Pca;
            fs.pcaVariance = frac;
        }
        setDefaultFeatureSpace(fs);
    }
}

/**
 * Print the runtime counter report and span rollup if --runtime-stats
 * was given, then flush any armed --trace-out / --metrics-out files.
 */
inline void
reportRuntime(const ArgParser &args)
{
    if (args.getFlag("runtime-stats")) {
        std::fputs(runtimeCountersReport().c_str(), stdout);
        std::fputs(obs::traceRollupReport().c_str(), stdout);
    }
    obs::flushObservability();

    // --report-out feeds the artifacts just flushed (plus any
    // results/ envelopes, the bench's own included) into the
    // dashboard, so one flag turns a bench run into a shareable page.
    const std::string report_out = args.getString("report-out");
    if (!report_out.empty()) {
        report::ReportInputs inputs;
        inputs.tracePath = args.getString("trace-out");
        inputs.metricsPath = args.getString("metrics-out");
        struct stat st;
        if (::stat("results", &st) == 0 && S_ISDIR(st.st_mode))
            inputs.benchDir = "results";
        try {
            report::writeReportHtml(
                report::buildReportModel(inputs), report_out);
            std::printf("wrote %s\n", report_out.c_str());
        } catch (const IoError &e) {
            GWS_WARN("cannot write report: ", e.what());
        }
    }
}

/**
 * Build the context for the parsed options. Requires both
 * addScaleOption() and addThreadsOption() to have been registered —
 * every bench takes --threads.
 */
inline BenchContext
makeBenchContext(const ArgParser &args)
{
    applyThreadsOption(args);
    BenchContext ctx;
    ctx.scale = parseSuiteScale(args.getString("scale"));
    ctx.suite = generateSuite(ctx.scale);
    ctx.corpus = sampleCorpus(ctx.suite, defaultCorpusFrames(ctx.scale));
    return ctx;
}

namespace bench_detail {

/**
 * SIGINT/SIGTERM handler: flush any armed --trace-out /
 * --metrics-out exports, then die by the default disposition so the
 * shell still sees a signal death.
 * flushObservability() is not async-signal-safe in the strict sense;
 * this is a best-effort last write on an interactive ^C, and the
 * worst case is a torn output file that was about to be dropped
 * entirely anyway.
 */
inline void
flushOnSignal(int sig)
{
    std::signal(sig, SIG_DFL);
    obs::flushObservability();
    std::raise(sig);
}

/** Install flushOnSignal for SIGINT and SIGTERM. */
inline void
installSignalFlush()
{
    std::signal(SIGINT, flushOnSignal);
    std::signal(SIGTERM, flushOnSignal);
}

} // namespace bench_detail

/**
 * Run a bench/example main body, turning typed input-boundary errors
 * (IoError and its TraceIoError / SubsetIoError subclasses) and any
 * other exception into a clean nonzero exit instead of a
 * std::terminate with an opaque abort. Armed --trace-out /
 * --metrics-out exports are flushed on the way out — including on
 * SIGINT/SIGTERM, so an interrupted run still leaves its
 * observability artifacts behind.
 *
 * Usage:
 *   namespace { int run(int argc, char **argv) { ... } }
 *   int main(int argc, char **argv)
 *   { return gws::runGuardedMain(run, argc, argv); }
 */
template <typename Fn>
inline int
runGuardedMain(Fn body, int argc, char **argv)
{
    bench_detail::installSignalFlush();
    try {
        return body(argc, argv);
    } catch (const IoError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "unexpected error: %s\n", e.what());
    }
    obs::flushObservability();
    return 1;
}

/** Print the bench banner. */
inline void
banner(const std::string &id, const std::string &what, SuiteScale scale)
{
    std::printf("=== %s — %s (scale: %s) ===\n", id.c_str(), what.c_str(),
                toString(scale));
}

/**
 * The one shared results writer: every bench_* binary funnels its
 * headline numbers through this so all BENCH_<name>.json files carry
 * the same envelope —
 *
 *   { "schema": "gws.bench.v1", "bench": ..., "git": ...,
 *     "threads": N, "wall_ms": X, "peak_rss_bytes": R,
 *     "results": { <bench fields> } }
 *
 * — and trajectories are comparable across benches and revisions.
 * Fields keep insertion order. write() defaults to
 * results/BENCH_<name>.json and creates results/ if needed.
 */
class BenchJsonWriter
{
  public:
    /** Start an envelope for bench `name` (e.g. "micro_runtime"). */
    explicit BenchJsonWriter(std::string name) : benchName(std::move(name))
    {
    }

    /** Add an integer result field. */
    void
    setInt(const std::string &key, std::int64_t v)
    {
        fields.emplace_back(key, std::to_string(v));
    }

    /** Add an unsigned result field. */
    void
    setUint(const std::string &key, std::uint64_t v)
    {
        fields.emplace_back(key, std::to_string(v));
    }

    /** Add a floating-point result field (3 decimals). */
    void
    setDouble(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.3f", v);
        fields.emplace_back(key, buf);
    }

    /** Add a boolean result field. */
    void
    setBool(const std::string &key, bool v)
    {
        fields.emplace_back(key, v ? "true" : "false");
    }

    /** Add a string result field (escaped). */
    void
    setString(const std::string &key, const std::string &v)
    {
        fields.emplace_back(key, "\"" + obs::jsonEscape(v) + "\"");
    }

    /** Add a pre-rendered JSON value (arrays / nested objects). */
    void
    setRaw(const std::string &key, const std::string &json)
    {
        fields.emplace_back(key, json);
    }

    /**
     * Write the envelope. Empty path = results/BENCH_<name>.json
     * relative to the working directory. Returns false (after a
     * warning) when the file cannot be created or the write or close
     * fails.
     */
    bool
    write(const std::string &path = "") const
    {
        std::string out = path;
        if (out.empty()) {
            // Best-effort create of the default output directory.
            ::mkdir("results", 0755);
            out = "results/BENCH_" + benchName + ".json";
        }
        FILE *fp = std::fopen(out.c_str(), "w");
        if (fp == nullptr) {
            GWS_WARN("cannot write bench JSON to ", out);
            return false;
        }
        const double wall_ms =
            static_cast<double>(runtime_detail::nowNs() -
                                benchProcessT0()) *
            1e-6;
        std::fprintf(fp,
                     "{\n  \"schema\": \"gws.bench.v1\",\n"
                     "  \"bench\": \"%s\",\n  \"git\": \"%s\",\n"
                     "  \"threads\": %zu,\n  \"wall_ms\": %.3f,\n"
                     "  \"peak_rss_bytes\": %zu,\n"
                     "  \"results\": {",
                     obs::jsonEscape(benchName).c_str(),
                     obs::jsonEscape(GWS_GIT_DESCRIBE).c_str(),
                     resolvedThreadCount(), wall_ms,
                     obs::peakRssBytes());
        bool first = true;
        for (const auto &[key, value] : fields) {
            std::fprintf(fp, "%s\n    \"%s\": %s", first ? "" : ",",
                         obs::jsonEscape(key).c_str(), value.c_str());
            first = false;
        }
        std::fprintf(fp, "\n  }\n}\n");
        const bool written = std::ferror(fp) == 0;
        if (std::fclose(fp) != 0 || !written) {
            GWS_WARN("short write of bench JSON to ", out);
            return false;
        }
        std::printf("wrote %s\n", out.c_str());
        return true;
    }

  private:
    std::string benchName;

    /** (key, pre-rendered JSON value) in insertion order. */
    std::vector<std::pair<std::string, std::string>> fields;
};

} // namespace gws

#endif // GWS_BENCH_BENCH_COMMON_HH
