/**
 * @file
 * Readers for the three artifact families the report consumes:
 *
 *  - Perfetto/Chrome trace-event JSON, as written by
 *    obs::writeChromeTrace() ("X" complete spans, "s" flow starts,
 *    "f" flow finishes, "i" instants; microsecond timestamps);
 *  - gws.metrics.v1 metrics snapshots (MetricsRegistry::toJson());
 *  - gws.bench.v1 envelopes (BenchJsonWriter), loaded singly or as a
 *    whole results/ directory of BENCH_*.json files.
 *
 * Everything goes through the strict parser in report/json.hh, so a
 * truncated or corrupted artifact fails with a typed ReportError and
 * a byte offset instead of a half-built model. Readers are tolerant
 * of *extra* fields (future exporters may add keys) but strict about
 * the shape of the fields they do consume.
 */

#ifndef GWS_REPORT_INGEST_HH
#define GWS_REPORT_INGEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "report/json.hh"

namespace gws {
namespace report {

/** One trace event, flattened from the Chrome-trace record. */
struct TraceSpan
{
    /** Span / event name. */
    std::string name;

    /** Instant detail (args.detail), empty otherwise. */
    std::string detail;

    /** Chrome phase: 'X' complete, 's' flow start, 'f' flow finish,
     *  'i' instant. */
    char phase = 'X';

    /** Track (thread) id. */
    std::uint32_t tid = 0;

    /** Start time in ns (the file stores µs; converted on read). */
    std::uint64_t startNs = 0;

    /** Duration in ns ('X' events only). */
    std::uint64_t durationNs = 0;

    /** Flow id: set on 's'/'f' events, and folded onto an 'X' span
     *  from its companion 'f' record (same name/tid/ts). 0 = none. */
    std::uint64_t flowId = 0;
};

/** A parsed trace file. */
struct TraceData
{
    /** All events, in file order. */
    std::vector<TraceSpan> events;

    /** Count of events with a given phase. */
    std::size_t countPhase(char phase) const;
};

/** Parse Chrome trace-event JSON text. Throws ReportError. */
TraceData readPerfettoTraceText(const std::string &text);

/** readPerfettoTraceText() over a file's contents. */
TraceData readPerfettoTraceFile(const std::string &path);

/** One metric in a gws.metrics.v1 snapshot. */
struct MetricRow
{
    /** Registered (dotted) name. */
    std::string name;

    /** "counter" or "gauge". */
    std::string type;

    /** Counter / gauge payload. */
    double value = 0.0;
};

/** A parsed metrics snapshot. */
struct MetricsData
{
    std::vector<MetricRow> rows;

    /** Look up a metric by its registered name, e.g.
     *  "gws.part.shard_imbalance". */
    const MetricRow *find(const std::string &name) const;

    /** All rows whose name starts with `prefix`. */
    std::vector<const MetricRow *>
    withPrefix(const std::string &prefix) const;
};

/** Parse a gws.metrics.v1 JSON document. Throws ReportError. */
MetricsData readMetricsText(const std::string &text);

/** readMetricsText() over a file's contents. */
MetricsData readMetricsFile(const std::string &path);

/** One gws.bench.v1 envelope. */
struct BenchEnvelope
{
    /** Bench name ("fig7_freq_scaling", ...). */
    std::string bench;

    /** git describe of the producing build. */
    std::string git;

    /** Worker threads the run used. */
    std::uint64_t threads = 0;

    /** Process wall time. */
    double wallMs = 0.0;

    /** Peak RSS of the run. */
    std::uint64_t peakRssBytes = 0;

    /** The bench-specific results object (kind Object). */
    JsonValue results;

    /** Source path (for provenance lines in the report). */
    std::string path;
};

/** Parse one envelope. Throws ReportError (schema checked). */
BenchEnvelope readBenchEnvelopeText(const std::string &text,
                                    const std::string &path);

/** readBenchEnvelopeText() over a file. */
BenchEnvelope readBenchEnvelopeFile(const std::string &path);

/**
 * Load every BENCH_*.json in `dir`, sorted by filename. Unreadable
 * or malformed files are skipped with a warning on stderr (one bad
 * artifact should not sink the whole report); a missing directory is
 * a ReportError.
 */
std::vector<BenchEnvelope> loadBenchDir(const std::string &dir);

} // namespace report
} // namespace gws

#endif // GWS_REPORT_INGEST_HH
