#include "report/report.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "report/html.hh"
#include "util/strings.hh"

namespace gws {
namespace report {

ReportModel
buildReportModel(const ReportInputs &inputs)
{
    if (inputs.tracePath.empty() && inputs.metricsPath.empty() &&
        inputs.benchDir.empty())
        throw ReportError(
            "report: no inputs (need --trace, --metrics, or "
            "--bench-dir)");

    ReportModel model;
    if (!inputs.tracePath.empty()) {
        const TraceData trace =
            readPerfettoTraceFile(inputs.tracePath);
        model.forest = buildSpanForest(trace);
        model.utilization = computeUtilization(
            model.forest, reportTimelineBins, reportMaxStages);
        model.attribution = computeAttribution(model.forest);
        model.hasTrace = true;
        model.sources.push_back("trace: " + inputs.tracePath);
    }
    if (!inputs.metricsPath.empty()) {
        model.metrics = readMetricsFile(inputs.metricsPath);
        model.hasMetrics = true;
        model.sources.push_back("metrics: " + inputs.metricsPath);
    }
    if (!inputs.benchDir.empty()) {
        model.benches = loadBenchDir(inputs.benchDir);
        model.heatmaps = extractHeatmaps(model.benches);
        model.clusterQuality = extractClusterQuality(model.benches);
        model.sources.push_back(
            "benches: " + inputs.benchDir + " (" +
            std::to_string(model.benches.size()) + " envelopes)");
    }
    return model;
}

namespace {

/** One KPI chip. */
void
kpi(std::ostringstream &os, const std::string &value,
    const std::string &label)
{
    os << "<div class=\"kpi\"><b>" << htmlEscape(value)
       << "</b><small>" << htmlEscape(label) << "</small></div>\n";
}

/** A metrics table over rows with the given dotted-name prefix.
 *  Returns false when nothing matched (caller prints a stub). */
bool
metricsTable(std::ostringstream &os, const MetricsData &metrics,
             const std::string &prefix)
{
    const std::vector<const MetricRow *> rows =
        metrics.withPrefix(prefix);
    if (rows.empty())
        return false;
    os << "<table>\n<tr><th>metric</th><th>type</th>"
          "<th>value</th></tr>\n";
    for (const MetricRow *row : rows)
        os << "<tr><td class=\"name\">" << htmlEscape(row->name)
           << "</td><td>" << htmlEscape(row->type) << "</td><td>"
           << formatDouble(row->value, 3) << "</td></tr>\n";
    os << "</table>\n";
    return true;
}

void
openPanel(std::ostringstream &os, const char *id, const char *title)
{
    os << "<section id=\"" << id << "\">\n<h2>" << title
       << "</h2>\n";
}

} // namespace

std::string
renderReportHtml(const ReportModel &model)
{
    std::ostringstream os;
    os << htmlHeader("gws execution dashboard");
    os << "<header><h1>gws execution dashboard</h1>"
          "<div class=\"sub\">3D workload subsetting — span "
          "analytics and sweeps</div></header>\n"
       << "<main>\n";

    openPanel(os, "panel-meta", "Provenance");
    if (model.hasMetrics) {
        // The counter registers on the first drop, so a snapshot
        // without it dropped nothing.
        const MetricRow *dropped =
            model.metrics.find("gws.trace.dropped_spans");
        kpi(os, humanCount(dropped ? dropped->value : 0.0),
            "trace spans dropped (gws.trace.dropped_spans)");
    }
    os << "<ul>\n";
    for (const std::string &src : model.sources)
        os << "<li>" << htmlEscape(src) << "</li>\n";
    os << "</ul>\n</section>\n";

    openPanel(os, "panel-utilization", "Per-stage utilization");
    if (model.hasTrace) {
        os << "<h3>thread occupancy</h3>\n"
           << svgOccupancyTracks(model.utilization)
           << "<h3>self time by stage</h3>\n"
           << svgStageArea(model.utilization);
    } else {
        os << "<p class=\"empty\">no trace supplied</p>\n";
    }
    os << "</section>\n";

    openPanel(os, "panel-bottlenecks", "Bottleneck attribution");
    if (model.hasTrace && !model.attribution.rows.empty()) {
        const Attribution &attr = model.attribution;
        kpi(os, humanNs(attr.wallNs), "trace wall time");
        kpi(os, humanNs(attr.criticalPathNs), "critical path");
        kpi(os, humanNs(attr.parallelSavedNs),
            "saved by parallelism");
        kpi(os, std::to_string(attr.fanOuts), "fan-outs stitched");
        os << "<table>\n<tr><th>span</th><th>count</th>"
              "<th>total</th><th>self</th><th>on critical path</th>"
              "<th>critical %</th></tr>\n";
        const double cpNs = attr.criticalPathNs
                                ? static_cast<double>(
                                      attr.criticalPathNs)
                                : 1.0;
        std::size_t shown = 0;
        for (const AttributionRow &row : attr.rows) {
            if (++shown > 20)
                break;
            os << "<tr><td class=\"name\">" << htmlEscape(row.name)
               << "</td><td>" << row.count << "</td><td>"
               << humanNs(row.totalNs) << "</td><td>"
               << humanNs(row.selfNs) << "</td><td>"
               << humanNs(row.criticalNs) << "</td><td>"
               << formatPercent(
                      static_cast<double>(row.criticalNs) / cpNs, 1)
               << "</td></tr>\n";
        }
        os << "</table>\n";
        if (attr.orphanChunks > 0)
            os << "<p class=\"empty\">" << attr.orphanChunks
               << " chunk spans had no matching flow start</p>\n";
    } else {
        os << "<p class=\"empty\">no trace supplied</p>\n";
    }
    os << "</section>\n";

    openPanel(os, "panel-heatmap", "Sweep heatmaps");
    if (model.heatmaps.empty())
        os << "<p class=\"empty\">no heatmaps in bench "
              "envelopes</p>\n";
    for (const Heatmap &hm : model.heatmaps)
        os << heatmapTable(hm);
    os << "</section>\n";

    openPanel(os, "panel-cluster-quality", "Cluster quality");
    if (model.clusterQuality.empty()) {
        os << "<p class=\"empty\">no cluster-family results</p>\n";
    } else {
        os << svgClusterScatter(model.clusterQuality)
           << "<table>\n<tr><th>family</th><th>mean error %</th>"
              "<th>efficiency %</th><th>outlier %</th>"
              "<th>clusters</th></tr>\n";
        auto cell = [&os](double v, int precision) {
            os << "<td>"
               << (std::isnan(v) ? std::string("—")
                                 : formatDouble(v, precision))
               << "</td>";
        };
        for (const ClusterQualityRow &row : model.clusterQuality) {
            os << "<tr><td class=\"name\">" << htmlEscape(row.family)
               << "</td>";
            cell(row.meanErrorPct, 2);
            cell(row.meanEfficiencyPct, 1);
            cell(row.outlierPct, 2);
            cell(row.clusters, 0);
            os << "</tr>\n";
        }
        os << "</table>\n";
    }
    os << "</section>\n";

    openPanel(os, "panel-shards", "Shard balance (gws.part.*)");
    if (!model.hasMetrics ||
        !metricsTable(os, model.metrics, "gws.part."))
        os << "<p class=\"empty\">no partitioner metrics</p>\n";
    os << "</section>\n";

    openPanel(os, "panel-benches", "Bench envelopes");
    if (model.benches.empty()) {
        os << "<p class=\"empty\">no bench envelopes</p>\n";
    } else {
        os << "<table>\n<tr><th>bench</th><th>git</th>"
              "<th>threads</th><th>wall</th><th>peak rss</th>"
              "</tr>\n";
        for (const BenchEnvelope &env : model.benches)
            os << "<tr><td class=\"name\">" << htmlEscape(env.bench)
               << "</td><td class=\"name\">" << htmlEscape(env.git)
               << "</td><td>" << env.threads << "</td><td>"
               << formatDouble(env.wallMs, 1) << " ms</td><td>"
               << humanBytes(
                      static_cast<double>(env.peakRssBytes))
               << "</td></tr>\n";
        os << "</table>\n";
    }
    os << "</section>\n";

    os << htmlFooter();
    return os.str();
}

void
writeReportHtml(const ReportModel &model, const std::string &path)
{
    const std::string html = renderReportHtml(model);
    const std::string tmp = path + ".tmp";
    FILE *fp = std::fopen(tmp.c_str(), "w");
    if (fp == nullptr)
        throw ReportError("report: cannot write " + tmp);
    const bool written =
        std::fwrite(html.data(), 1, html.size(), fp) == html.size();
    if (std::fclose(fp) != 0 || !written) {
        std::remove(tmp.c_str());
        throw ReportError("report: short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw ReportError("report: cannot rename " + tmp + " to " +
                          path);
    }
}

} // namespace report
} // namespace gws
