#include "report/ingest.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <dirent.h>
#include <unordered_map>

namespace gws {
namespace report {

namespace {

/** A JSON number coerced to u64 (rejects negatives and non-finite). */
std::uint64_t
asUint(const JsonValue &v, const char *what)
{
    const double d = v.number();
    if (!std::isfinite(d) || d < 0)
        throw ReportError(std::string("report: ") + what +
                          " must be a non-negative number");
    return static_cast<std::uint64_t>(d);
}

/** Microseconds (trace-file unit) to integral nanoseconds. */
std::uint64_t
usToNs(double us)
{
    if (!std::isfinite(us) || us < 0)
        return 0;
    return static_cast<std::uint64_t>(std::llround(us * 1000.0));
}

} // namespace

std::size_t
TraceData::countPhase(char phase) const
{
    std::size_t n = 0;
    for (const TraceSpan &ev : events)
        if (ev.phase == phase)
            ++n;
    return n;
}

TraceData
readPerfettoTraceText(const std::string &text)
{
    const JsonValue root = parseJson(text);
    const JsonValue &events = root.at("traceEvents");
    if (!events.isArray())
        throw ReportError("report: traceEvents must be an array");

    TraceData out;
    out.events.reserve(events.array().size());
    for (const JsonValue &ev : events.array()) {
        if (!ev.isObject())
            throw ReportError("report: trace event must be an object");
        const std::string &ph = ev.at("ph").string();
        if (ph.size() != 1)
            throw ReportError("report: trace event ph must be a "
                              "single character, got \"" + ph + "\"");

        TraceSpan span;
        span.phase = ph[0];
        span.name = ev.at("name").string();
        span.tid = static_cast<std::uint32_t>(
            asUint(ev.at("tid"), "trace event tid"));
        span.startNs = usToNs(ev.at("ts").number());
        switch (span.phase) {
          case 'X':
            span.durationNs = usToNs(ev.at("dur").number());
            break;
          case 's':
          case 'f':
            span.flowId = asUint(ev.at("id"), "trace flow id");
            break;
          case 'i':
            if (const JsonValue *args = ev.find("args"))
                if (const JsonValue *detail = args->find("detail"))
                    span.detail = detail->string();
            break;
          default:
            // Foreign phases (metadata, counters, ...) pass through
            // untyped so traces merged with other tools still load.
            break;
        }
        out.events.push_back(std::move(span));
    }

    // The tracer writes a chunk span as an "X" record plus a
    // companion "f" flow-finish record with identical name/tid/ts;
    // fold the flow id back onto the span so the analysis passes see
    // chunks directly (an "f" with no twin is left as-is).
    std::unordered_map<std::string, std::vector<std::size_t>> spansAt;
    auto spanKey = [](const TraceSpan &ev) {
        return ev.name + '\0' + std::to_string(ev.tid) + '\0' +
               std::to_string(ev.startNs);
    };
    for (std::size_t i = 0; i < out.events.size(); ++i)
        if (out.events[i].phase == 'X')
            spansAt[spanKey(out.events[i])].push_back(i);
    for (const TraceSpan &ev : out.events) {
        if (ev.phase != 'f')
            continue;
        auto it = spansAt.find(spanKey(ev));
        if (it == spansAt.end())
            continue;
        for (std::size_t idx : it->second) {
            if (out.events[idx].flowId == 0) {
                out.events[idx].flowId = ev.flowId;
                break;
            }
        }
    }
    return out;
}

TraceData
readPerfettoTraceFile(const std::string &path)
{
    try {
        return readPerfettoTraceText(readFileBounded(path));
    } catch (const ReportError &e) {
        throw ReportError(path + ": " + e.what(), e.byteOffset());
    }
}

const MetricRow *
MetricsData::find(const std::string &name) const
{
    for (const MetricRow &row : rows)
        if (row.name == name)
            return &row;
    return nullptr;
}

std::vector<const MetricRow *>
MetricsData::withPrefix(const std::string &prefix) const
{
    std::vector<const MetricRow *> out;
    for (const MetricRow &row : rows)
        if (row.name.compare(0, prefix.size(), prefix) == 0)
            out.push_back(&row);
    return out;
}

MetricsData
readMetricsText(const std::string &text)
{
    const JsonValue root = parseJson(text);
    const std::string &schema = root.at("schema").string();
    if (schema != "gws.metrics.v1")
        throw ReportError("report: unsupported metrics schema \"" +
                          schema + "\"");

    MetricsData out;
    for (const JsonValue &m : root.at("metrics").array()) {
        MetricRow row;
        row.name = m.at("name").string();
        row.type = m.at("type").string();
        if (row.type != "counter" && row.type != "gauge")
            throw ReportError("report: unknown metric type \"" +
                              row.type + "\" for " + row.name);
        row.value = m.at("value").number();
        out.rows.push_back(std::move(row));
    }
    return out;
}

MetricsData
readMetricsFile(const std::string &path)
{
    try {
        return readMetricsText(readFileBounded(path));
    } catch (const ReportError &e) {
        throw ReportError(path + ": " + e.what(), e.byteOffset());
    }
}

BenchEnvelope
readBenchEnvelopeText(const std::string &text, const std::string &path)
{
    const JsonValue root = parseJson(text);
    const std::string &schema = root.at("schema").string();
    if (schema != "gws.bench.v1")
        throw ReportError("report: unsupported bench schema \"" +
                          schema + "\"");

    BenchEnvelope env;
    env.path = path;
    env.bench = root.at("bench").string();
    env.git = root.at("git").string();
    env.threads = asUint(root.at("threads"), "bench threads");
    env.wallMs = root.at("wall_ms").number();
    env.peakRssBytes =
        asUint(root.at("peak_rss_bytes"), "bench peak_rss_bytes");
    env.results = root.at("results");
    if (!env.results.isObject())
        throw ReportError("report: bench results must be an object");
    return env;
}

BenchEnvelope
readBenchEnvelopeFile(const std::string &path)
{
    try {
        return readBenchEnvelopeText(readFileBounded(path), path);
    } catch (const ReportError &e) {
        throw ReportError(path + ": " + e.what(), e.byteOffset());
    }
}

std::vector<BenchEnvelope>
loadBenchDir(const std::string &dir)
{
    DIR *dp = ::opendir(dir.c_str());
    if (dp == nullptr)
        throw ReportError("report: cannot open bench directory " +
                          dir);
    std::vector<std::string> names;
    while (struct dirent *de = ::readdir(dp)) {
        const std::string name = de->d_name;
        if (name.size() > 11 &&
            name.compare(0, 6, "BENCH_") == 0 &&
            name.compare(name.size() - 5, 5, ".json") == 0)
            names.push_back(name);
    }
    ::closedir(dp);
    std::sort(names.begin(), names.end());

    std::vector<BenchEnvelope> out;
    for (const std::string &name : names) {
        const std::string path = dir + "/" + name;
        try {
            out.push_back(readBenchEnvelopeFile(path));
        } catch (const ReportError &e) {
            // One bad artifact should not sink the whole report.
            std::fprintf(stderr, "gws_report: skipping %s: %s\n",
                         path.c_str(), e.what());
        }
    }
    return out;
}

} // namespace report
} // namespace gws
