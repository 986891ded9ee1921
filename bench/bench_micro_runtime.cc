/**
 * @file
 * Microbenchmark of the parallel execution runtime: wall-clock time
 * of GpuSimulator::simulateTrace over the whole suite at 1/2/4/N
 * worker threads, the speedup trajectory, and a bit-identity check of
 * the totals across thread counts (the determinism contract, measured
 * rather than assumed). Results are also written as JSON
 * (BENCH_micro_runtime.json by default) so the perf trajectory can be
 * tracked run over run.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_common.hh"
#include "gpusim/gpu_simulator.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace {

using namespace gws;

/** Wall ns of one full-suite simulateTrace sweep. */
double
sweepOnceNs(const std::vector<Trace> &suite, const GpuSimulator &sim,
            double *total_ns_out)
{
    const auto t0 = std::chrono::steady_clock::now();
    double total = 0.0;
    for (const Trace &t : suite)
        total += sim.simulateTrace(t).totalNs;
    const auto t1 = std::chrono::steady_clock::now();
    *total_ns_out = total;
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

} // namespace

namespace {

int
run(int argc, char **argv)
{
    using namespace gws;

    ArgParser args("bench_micro_runtime",
                   "simulateTrace thread-scaling microbenchmark");
    addScaleOption(args);
    addThreadsOption(args);
    args.addInt("repeats", 3, "timed repetitions per thread count");
    args.addString("out", "default",
                   "JSON output path (default = "
                   "results/BENCH_micro_runtime.json, empty = skip)");
    if (!args.parse(argc, argv))
        return 0;

    const SuiteScale scale = parseSuiteScale(args.getString("scale"));
    const std::vector<Trace> suite = generateSuite(scale);
    const GpuSimulator sim(makeGpuPreset("baseline"));
    const std::size_t repeats =
        std::max<std::int64_t>(1, args.getInt("repeats"));
    banner("MR", "parallel runtime: simulateTrace scaling", scale);

    std::uint64_t draws = 0;
    for (const Trace &t : suite)
        draws += t.totalDraws();
    std::printf("suite: %zu traces, %llu draws; host concurrency: %zu\n",
                suite.size(), static_cast<unsigned long long>(draws),
                hardwareThreads());

    // Thread counts to sweep: 1, 2, 4, and the machine width.
    std::vector<std::size_t> sweep{1, 2, 4, hardwareThreads()};
    std::sort(sweep.begin(), sweep.end());
    sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());

    const RuntimeConfig base = runtimeConfig();
    std::vector<double> best_ms(sweep.size());
    double reference_total = 0.0;
    bool deterministic = true;

    for (std::size_t s = 0; s < sweep.size(); ++s) {
        RuntimeConfig cfg = base;
        cfg.threads = sweep[s];
        setRuntimeConfig(cfg);

        double total = 0.0;
        sweepOnceNs(suite, sim, &total); // warm-up (pool spin-up)
        double best = 0.0;
        for (std::size_t r = 0; r < repeats; ++r) {
            const double ns = sweepOnceNs(suite, sim, &total);
            best = r == 0 ? ns : std::min(best, ns);
        }
        best_ms[s] = best * 1e-6;

        if (s == 0)
            reference_total = total;
        else if (total != reference_total)
            deterministic = false;
    }
    setRuntimeConfig(base);

    Table table({"threads", "wall ms", "speedup"});
    for (std::size_t s = 0; s < sweep.size(); ++s) {
        table.newRow();
        table.cell(sweep[s]);
        table.cell(best_ms[s], 1);
        table.cell(best_ms[0] / best_ms[s], 2);
    }
    std::fputs(table.renderAscii().c_str(), stdout);
    std::printf("\ndeterminism across thread counts: %s\n",
                deterministic ? "bit-identical" : "MISMATCH");
    if (!deterministic)
        GWS_WARN("simulateTrace totals drifted across thread counts");

    const std::string out = args.getString("out");
    if (!out.empty()) {
        BenchJsonWriter json("micro_runtime");
        json.setString("scale", toString(scale));
        json.setUint("hardware_threads", hardwareThreads());
        json.setBool("deterministic", deterministic);
        std::string points = "[";
        for (std::size_t s = 0; s < sweep.size(); ++s) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"threads\": %zu, \"wall_ms\": %.3f, "
                          "\"speedup\": %.3f}",
                          s == 0 ? "" : ", ", sweep[s], best_ms[s],
                          best_ms[0] / best_ms[s]);
            points += buf;
        }
        points += "]";
        json.setRaw("points", points);
        json.write(out == "default" ? "" : out);
    }

    reportRuntime(args);
    return 0;
}
} // namespace

int
main(int argc, char **argv)
{
    return gws::runGuardedMain(run, argc, argv);
}
