#include "report/html.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/strings.hh"

namespace gws {
namespace report {

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '&':
            out += "&amp;";
            break;
          case '<':
            out += "&lt;";
            break;
          case '>':
            out += "&gt;";
            break;
          case '"':
            out += "&quot;";
            break;
          default:
            out.push_back(c);
        }
    }
    return out;
}

std::string
humanNs(std::uint64_t ns)
{
    const double v = static_cast<double>(ns);
    if (v >= 1e9)
        return formatDouble(v * 1e-9, 2) + " s";
    if (v >= 1e6)
        return formatDouble(v * 1e-6, 2) + " ms";
    if (v >= 1e3)
        return formatDouble(v * 1e-3, 2) + " \xC2\xB5s"; // µs
    return std::to_string(ns) + " ns";
}

namespace {

/** The dashboard's categorical palette (stage bands, scatter dots). */
const char *const palette[] = {
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
    "#76b7b2", "#edc948", "#9c755f", "#bab0ac", "#d37295",
};
constexpr std::size_t paletteSize =
    sizeof(palette) / sizeof(palette[0]);

std::string
fmt(double v, int precision = 2)
{
    return formatDouble(v, precision);
}

/** Linear ramp from pale to saturated blue for heatmap cells. */
std::string
rampColor(double t)
{
    t = std::min(1.0, std::max(0.0, t));
    const int r = static_cast<int>(247 - t * (247 - 33));
    const int g = static_cast<int>(251 - t * (251 - 102));
    const int b = static_cast<int>(255 - t * (255 - 172));
    char buf[16];
    std::snprintf(buf, sizeof(buf), "#%02x%02x%02x", r, g, b);
    return buf;
}

} // namespace

std::string
svgOccupancyTracks(const UtilizationTimeline &tl)
{
    if (tl.perThread.empty() || tl.perThread[0].empty())
        return "<p class=\"empty\">no trace data</p>\n";

    const std::size_t bins = tl.perThread[0].size();
    const std::size_t threads = tl.perThread.size();
    const double width = 900.0;
    const double trackH = 18.0;
    const double gap = 4.0;
    const double left = 60.0;
    const double height =
        static_cast<double>(threads) * (trackH + gap) + 24.0;
    const double binW =
        (width - left) / static_cast<double>(bins);

    std::ostringstream os;
    os << "<svg viewBox=\"0 0 " << width << " " << height
       << "\" role=\"img\" class=\"chart\">\n";
    for (std::size_t t = 0; t < threads; ++t) {
        const double y =
            static_cast<double>(t) * (trackH + gap) + 4.0;
        os << "<text x=\"4\" y=\"" << fmt(y + trackH - 5.0)
           << "\" class=\"lbl\">t" << t << "</text>\n";
        for (std::size_t b = 0; b < bins; ++b) {
            const double occ = tl.perThread[t][b];
            if (occ <= 0.0)
                continue;
            os << "<rect x=\"" << fmt(left + binW * b) << "\" y=\""
               << fmt(y) << "\" width=\"" << fmt(binW + 0.5)
               << "\" height=\"" << trackH
               << "\" fill=\"#4e79a7\" fill-opacity=\""
               << fmt(0.15 + 0.85 * occ) << "\"/>\n";
        }
    }
    os << "<text x=\"" << left << "\" y=\"" << fmt(height - 6.0)
       << "\" class=\"lbl\">0</text>\n"
       << "<text x=\"" << fmt(width - 4.0) << "\" y=\""
       << fmt(height - 6.0) << "\" text-anchor=\"end\" "
       << "class=\"lbl\">" << htmlEscape(humanNs(tl.t1Ns - tl.t0Ns))
       << "</text>\n</svg>\n";
    return os.str();
}

std::string
svgStageArea(const UtilizationTimeline &tl)
{
    if (tl.perStage.empty() || tl.perStage[0].empty())
        return "<p class=\"empty\">no trace data</p>\n";

    const std::size_t bins = tl.perStage[0].size();
    const std::size_t stages = tl.perStage.size();
    const double width = 900.0;
    const double height = 180.0;
    const double left = 8.0;
    const double binW = (width - left) / static_cast<double>(bins);

    // Normalise stack heights to the busiest bin.
    double peak = 0.0;
    for (std::size_t b = 0; b < bins; ++b) {
        double sum = 0.0;
        for (std::size_t s = 0; s < stages; ++s)
            sum += tl.perStage[s][b];
        peak = std::max(peak, sum);
    }
    if (peak <= 0.0)
        return "<p class=\"empty\">no self time recorded</p>\n";

    std::ostringstream os;
    os << "<svg viewBox=\"0 0 " << width << " " << (height + 20.0)
       << "\" role=\"img\" class=\"chart\">\n";
    std::vector<double> base(bins, 0.0);
    for (std::size_t s = 0; s < stages; ++s) {
        std::ostringstream pts;
        // Bottom edge left-to-right, then top edge back.
        for (std::size_t b = 0; b < bins; ++b)
            pts << fmt(left + binW * (b + 0.5)) << ","
                << fmt(height - height * base[b] / peak) << " ";
        for (std::size_t b = bins; b-- > 0;) {
            base[b] += tl.perStage[s][b];
            pts << fmt(left + binW * (b + 0.5)) << ","
                << fmt(height - height * base[b] / peak) << " ";
        }
        os << "<polygon points=\"" << pts.str() << "\" fill=\""
           << palette[s % paletteSize]
           << "\" fill-opacity=\"0.85\"/>\n";
    }
    os << "</svg>\n<div class=\"legend\">";
    for (std::size_t s = 0; s < stages; ++s)
        os << "<span><i style=\"background:"
           << palette[s % paletteSize] << "\"></i>"
           << htmlEscape(tl.stageNames[s]) << "</span> ";
    os << "</div>\n";
    return os.str();
}

std::string
heatmapTable(const Heatmap &hm)
{
    double lo = 0.0, hi = 0.0;
    bool any = false;
    for (const auto &row : hm.values)
        for (double v : row) {
            if (!any) {
                lo = hi = v;
                any = true;
            }
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    const double span = hi > lo ? hi - lo : 1.0;

    std::ostringstream os;
    os << "<table class=\"heatmap\">\n<caption>"
       << htmlEscape(hm.title) << " <small>(" << htmlEscape(hm.source)
       << ")</small></caption>\n<tr><th></th>";
    for (const std::string &c : hm.colLabels)
        os << "<th>" << htmlEscape(c) << "</th>";
    os << "</tr>\n";
    for (std::size_t r = 0; r < hm.values.size(); ++r) {
        os << "<tr><th>" << htmlEscape(hm.rowLabels[r]) << "</th>";
        for (double v : hm.values[r])
            os << "<td style=\"background:"
               << rampColor((v - lo) / span) << "\">" << fmt(v, 3)
               << "</td>";
        os << "</tr>\n";
    }
    os << "</table>\n";
    return os.str();
}

std::string
svgClusterScatter(const std::vector<ClusterQualityRow> &rows)
{
    std::vector<const ClusterQualityRow *> pts;
    for (const ClusterQualityRow &row : rows)
        if (!std::isnan(row.meanErrorPct) &&
            !std::isnan(row.meanEfficiencyPct))
            pts.push_back(&row);
    if (pts.empty())
        return "<p class=\"empty\">no cluster-quality data</p>\n";

    double maxErr = 0.0;
    for (const ClusterQualityRow *p : pts)
        maxErr = std::max(maxErr, p->meanErrorPct);
    maxErr = std::max(maxErr * 1.2, 1.0);

    const double width = 420.0, height = 260.0;
    const double left = 46.0, bottom = height - 30.0;
    std::ostringstream os;
    os << "<svg viewBox=\"0 0 " << width << " " << height
       << "\" role=\"img\" class=\"chart\">\n"
       << "<line x1=\"" << left << "\" y1=\"8\" x2=\"" << left
       << "\" y2=\"" << bottom << "\" class=\"axis\"/>\n"
       << "<line x1=\"" << left << "\" y1=\"" << bottom
       << "\" x2=\"" << fmt(width - 8.0) << "\" y2=\"" << bottom
       << "\" class=\"axis\"/>\n"
       << "<text x=\"" << fmt(width / 2.0) << "\" y=\""
       << fmt(height - 4.0)
       << "\" text-anchor=\"middle\" class=\"lbl\">mean error %"
       << "</text>\n"
       << "<text x=\"12\" y=\"" << fmt(bottom / 2.0)
       << "\" class=\"lbl\" transform=\"rotate(-90 12 "
       << fmt(bottom / 2.0) << ")\" text-anchor=\"middle\">"
       << "efficiency %</text>\n";
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const ClusterQualityRow *p = pts[i];
        const double x =
            left + (width - 8.0 - left) * p->meanErrorPct / maxErr;
        const double y =
            bottom - (bottom - 8.0) *
                         std::min(100.0, p->meanEfficiencyPct) /
                         100.0;
        os << "<circle cx=\"" << fmt(x) << "\" cy=\"" << fmt(y)
           << "\" r=\"5\" fill=\"" << palette[i % paletteSize]
           << "\"/>\n<text x=\"" << fmt(x + 8.0) << "\" y=\""
           << fmt(y + 4.0) << "\" class=\"lbl\">"
           << htmlEscape(p->family) << "</text>\n";
    }
    os << "</svg>\n";
    return os.str();
}

std::string
htmlHeader(const std::string &title)
{
    std::ostringstream os;
    os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
       << "<meta charset=\"utf-8\">\n"
       << "<title>" << htmlEscape(title) << "</title>\n"
       << "<style>\n"
          "body{font:14px/1.45 system-ui,sans-serif;margin:0;"
          "background:#f6f7f9;color:#1b1f24}\n"
          "header{background:#1b2a41;color:#fff;padding:14px 24px}\n"
          "header h1{margin:0;font-size:20px}\n"
          "header .sub{color:#9fb3c8;font-size:12px}\n"
          "main{max-width:980px;margin:0 auto;padding:16px}\n"
          "section{background:#fff;border:1px solid #dde3ea;"
          "border-radius:8px;margin:14px 0;padding:14px 18px}\n"
          "section h2{margin:0 0 8px;font-size:16px}\n"
          "table{border-collapse:collapse;font-size:13px}\n"
          "th,td{border:1px solid #dde3ea;padding:3px 9px;"
          "text-align:right}\n"
          "th{background:#eef2f6;text-align:left}\n"
          "td.name{text-align:left;font-family:monospace}\n"
          "caption{font-weight:600;padding:4px;caption-side:top}\n"
          ".chart{width:100%;height:auto;display:block}\n"
          ".lbl{font-size:10px;fill:#57606a}\n"
          ".axis{stroke:#9aa4b2;stroke-width:1}\n"
          ".legend span{margin-right:14px;font-size:12px}\n"
          ".legend i{display:inline-block;width:10px;height:10px;"
          "margin-right:4px;border-radius:2px}\n"
          ".empty{color:#8a939e;font-style:italic}\n"
          ".kpi{display:inline-block;margin-right:28px}\n"
          ".kpi b{display:block;font-size:18px}\n"
          ".kpi small{color:#57606a}\n"
          "</style>\n</head>\n<body>\n";
    return os.str();
}

std::string
htmlFooter()
{
    return "</main>\n</body>\n</html>\n";
}

} // namespace report
} // namespace gws
