/**
 * @file
 * gws_report: turn observability artifacts into one self-contained
 * HTML execution dashboard.
 *
 * It reads any mix of a Perfetto trace (--trace), a gws.metrics.v1
 * metrics snapshot (--metrics), and a directory of gws.bench.v1
 * envelopes (--bench-dir), and writes the dashboard once:
 *
 *   gws_report --trace=fig7.trace.json --metrics=fig7.metrics.json \
 *              --bench-dir=results --out=report.html
 */

#include <cstdio>
#include <exception>

#include "report/report.hh"
#include "util/args.hh"
#include "util/logging.hh"

namespace {

using namespace gws;
using namespace gws::report;

int
run(const ArgParser &args)
{
    ReportInputs inputs;
    inputs.tracePath = args.getString("trace");
    inputs.metricsPath = args.getString("metrics");
    inputs.benchDir = args.getString("bench-dir");
    const std::string out = args.getString("out");

    writeReportHtml(buildReportModel(inputs), out);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("gws_report",
                   "self-contained HTML execution dashboard from "
                   "gws observability artifacts");
    args.addString("trace", "",
                   "Perfetto trace JSON (--trace-out of any bench)");
    args.addString("metrics", "",
                   "gws.metrics.v1 metrics snapshot (--metrics-out of "
                   "any bench)");
    args.addString("bench-dir", "",
                   "directory of BENCH_*.json envelopes");
    args.addString("out", "report.html", "output HTML path");
    if (!args.parse(argc, argv))
        return 0;

    try {
        return run(args);
    } catch (const gws::IoError &e) {
        GWS_FATAL("gws_report: ", e.what());
    } catch (const std::exception &e) {
        GWS_FATAL("gws_report: unexpected: ", e.what());
    }
}
