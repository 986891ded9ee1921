/**
 * @file
 * The report model and page composer.
 *
 * buildReportModel() ingests whichever artifacts the caller has —
 * trace, metrics snapshot, bench-envelope directory; all optional,
 * at least one required — and runs the analysis passes once.
 * renderReportHtml() lays the digested model out as the dashboard
 * panels, each wrapped in a <section id="panel-...">:
 *
 *   panel-meta             provenance (sources), dropped trace spans
 *   panel-utilization      per-thread occupancy + stage self-time
 *   panel-bottlenecks      attribution table + critical-path KPIs
 *   panel-heatmap          sweep heatmaps from bench envelopes
 *   panel-cluster-quality  error/efficiency/outliers per family
 *   panel-shards           gws.part.* metrics
 *   panel-streams          gws.stream.* metrics
 *   panel-benches          envelope summary table
 *
 * The ids are the contract the structural tests (and the CI smoke
 * job's validator) key on; renaming one is a breaking change.
 */

#ifndef GWS_REPORT_REPORT_HH
#define GWS_REPORT_REPORT_HH

#include <string>
#include <vector>

#include "report/analysis.hh"

namespace gws {
namespace report {

/** Artifact paths feeding one offline report (empty = absent). */
struct ReportInputs
{
    std::string tracePath;
    std::string metricsPath;
    std::string benchDir;
};

/** Everything renderReportHtml() needs, analysis already run. */
struct ReportModel
{
    /** Where the data came from, for the provenance panel. */
    std::vector<std::string> sources;

    bool hasTrace = false;
    SpanForest forest;
    UtilizationTimeline utilization;
    Attribution attribution;

    bool hasMetrics = false;
    MetricsData metrics;

    std::vector<BenchEnvelope> benches;
    std::vector<Heatmap> heatmaps;
    std::vector<ClusterQualityRow> clusterQuality;
};

/** Timeline resolution used by buildReportModel(). */
constexpr std::size_t reportTimelineBins = 160;

/** Stage tracks kept before folding into "(other)". */
constexpr std::size_t reportMaxStages = 8;

/**
 * Ingest the given artifacts and run analysis. Throws ReportError
 * when no input was given or an artifact is malformed.
 */
ReportModel buildReportModel(const ReportInputs &inputs);

/** Render the model as one self-contained HTML document. */
std::string renderReportHtml(const ReportModel &model);

/**
 * renderReportHtml() to a file, written atomically (temp file +
 * rename) so a reader never sees a torn page. Throws ReportError on
 * write failure.
 */
void writeReportHtml(const ReportModel &model,
                     const std::string &path);

} // namespace report
} // namespace gws

#endif // GWS_REPORT_REPORT_HH
