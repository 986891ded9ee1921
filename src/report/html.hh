/**
 * @file
 * Self-contained HTML widgets for the execution dashboard.
 *
 * Everything the page needs — styles, charts, data — is emitted
 * inline: charts are hand-rolled SVG, styling is one embedded
 * stylesheet, and there are no scripts that fetch anything, so the
 * generated report opens from file:// on an air-gapped machine and
 * never phones home (the self-containment test greps the output for
 * URL schemes). The widgets here are layout-free building blocks;
 * report.cc composes them into panels.
 */

#ifndef GWS_REPORT_HTML_HH
#define GWS_REPORT_HTML_HH

#include <cstdint>
#include <string>

#include "report/analysis.hh"

namespace gws {
namespace report {

/** Escape &, <, >, and double quotes for HTML text/attributes. */
std::string htmlEscape(const std::string &s);

/** Human duration from nanoseconds, e.g. "1.24 ms", "3.5 s". */
std::string humanNs(std::uint64_t ns);

/**
 * Per-thread occupancy tracks as one inline SVG: a horizontal bar
 * per thread, shaded by busy fraction per time bin.
 */
std::string svgOccupancyTracks(const UtilizationTimeline &tl);

/**
 * Stacked per-stage self-time area chart (one band per stage, in
 * stageNames order) over the same bins.
 */
std::string svgStageArea(const UtilizationTimeline &tl);

/** A heatmap as a shaded HTML table (color ramps over the value
 *  range of the whole map). */
std::string heatmapTable(const Heatmap &hm);

/**
 * Cluster-quality scatter: one point per family, mean error (x) vs
 * mean efficiency (y); families missing either facet are skipped.
 */
std::string svgClusterScatter(
    const std::vector<ClusterQualityRow> &rows);

/** Document shell up to the opening of <body>. */
std::string htmlHeader(const std::string &title);

/** Closing boilerplate matching htmlHeader(). */
std::string htmlFooter();

} // namespace report
} // namespace gws

#endif // GWS_REPORT_HTML_HH
