/**
 * @file
 * Tests of the report pipeline: the strict JSON reader (grammar
 * rejection, truncation, byte-flip fuzzing), trace ingest with
 * flow-id fold-back, golden span-forest / utilization / attribution
 * numbers for a hand-built fan-out trace, gws.metrics.v1 snapshots
 * round-tripped through the registry exporter, bench-envelope loading,
 * and the rendered dashboard's structural contract (every panel id
 * present, zero external references).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "obs/metrics.hh"
#include "report/analysis.hh"
#include "report/ingest.hh"
#include "report/json.hh"
#include "report/report.hh"

namespace gws {
namespace report {
namespace {

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out << text;
}

/**
 * The golden trace: main [0, 100ms) on tid 0 contains submit
 * [10, 50ms), which fans out flow 7 at t=20ms to two chunk spans on
 * tids 1 and 2 (30ms and 20ms). Written exactly the way
 * obs::writeChromeTrace() spells it, companion "f" records included.
 * Timestamps in the file are microseconds.
 */
const char *kGoldenTrace = R"({"displayTimeUnit": "ms", "traceEvents": [
  {"name": "main", "pid": 1, "tid": 0, "ts": 0, "ph": "X", "cat": "gws", "dur": 100000},
  {"name": "submit", "pid": 1, "tid": 0, "ts": 10000, "ph": "X", "cat": "gws", "dur": 40000},
  {"name": "submit", "pid": 1, "tid": 0, "ts": 20000, "ph": "s", "cat": "flow", "id": 7},
  {"name": "runtime.chunk", "pid": 1, "tid": 1, "ts": 21000, "ph": "X", "cat": "gws", "dur": 30000},
  {"name": "runtime.chunk", "pid": 1, "tid": 1, "ts": 21000, "ph": "f", "bp": "e", "cat": "flow", "id": 7},
  {"name": "runtime.chunk", "pid": 1, "tid": 2, "ts": 22000, "ph": "X", "cat": "gws", "dur": 20000},
  {"name": "runtime.chunk", "pid": 1, "tid": 2, "ts": 22000, "ph": "f", "bp": "e", "cat": "flow", "id": 7}
]})";

constexpr std::uint64_t kMs = 1000000; // ns per ms

// ------------------------------------------------- strict JSON core --

TEST(ReportJson, ParsesScalarsAndStructure)
{
    EXPECT_DOUBLE_EQ(parseJson("-12.5e2").number(), -1250.0);
    EXPECT_TRUE(parseJson("null").isNull());
    EXPECT_EQ(parseJson("true").boolean(), true);
    EXPECT_EQ(parseJson("\"a\\u0041\\n\"").string(), "aA\n");

    const JsonValue v = parseJson(
        "{\"a\": [1, 2], \"b\": {\"c\": \"x\"}}");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.at("a").array().size(), 2u);
    EXPECT_EQ(v.at("b").at("c").string(), "x");
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_THROW(v.at("missing"), ReportError);
    EXPECT_THROW(v.at("a").string(), ReportError);
}

TEST(ReportJson, RejectsGrammarViolations)
{
    const char *bad[] = {
        "",            // empty input
        "{",           // unterminated object
        "[1, 2",       // unterminated array
        "[1,]",        // trailing comma
        "{\"a\": 1,}", // trailing comma (object)
        "{\"a\" 1}",   // missing colon
        "{1: 2}",      // non-string key
        "01",          // leading zero
        "-01",         // leading zero, negative
        "1.",          // bare decimal point
        ".5",          // missing integer part
        "+1",          // explicit plus
        "1e",          // empty exponent
        "nul",         // truncated literal
        "TRUE",        // wrong case
        "'x'",         // single quotes
        "\"\\x\"",     // bad escape
        "\"\\u12\"",   // short unicode escape
        "\"a\nb\"",    // raw control char in string
        "1 2",         // trailing tokens
        "{} {}",       // two roots
    };
    for (const char *text : bad)
        EXPECT_THROW(parseJson(text), ReportError)
            << "accepted: " << text;
}

TEST(ReportJson, ErrorsCarryByteOffsets)
{
    try {
        parseJson("{\"a\": 01}");
        FAIL() << "leading zero accepted";
    } catch (const ReportError &e) {
        EXPECT_GE(e.byteOffset(), 0);
        EXPECT_LT(e.byteOffset(), 10);
    }
}

TEST(ReportJson, RejectsDepthBomb)
{
    std::string bomb(200, '[');
    EXPECT_THROW(parseJson(bomb), ReportError);
    // A nesting level under the cap parses fine.
    std::string ok;
    for (int i = 0; i < 40; ++i)
        ok += '[';
    for (int i = 0; i < 40; ++i)
        ok += ']';
    EXPECT_NO_THROW(parseJson(ok));
}

TEST(ReportJson, EveryTruncationOfAValidDocIsRejected)
{
    std::string doc = kGoldenTrace;
    while (!doc.empty() &&
           (doc.back() == '\n' || doc.back() == ' '))
        doc.pop_back();
    ASSERT_NO_THROW(parseJson(doc));
    // The root is an object, so no strict prefix can be complete.
    for (std::size_t len = 1; len < doc.size(); ++len)
        EXPECT_THROW(parseJson(doc.substr(0, len)), ReportError)
            << "accepted prefix of length " << len;
}

TEST(ReportJson, ByteFlipFuzzNeverEscapesTypedErrors)
{
    const std::string doc = kGoldenTrace;
    const char flips[] = {'\x01', '"', '}', '[', ':', '9', '\\'};
    // Every single-byte corruption either still parses (a digit swap
    // can stay grammatical) or fails with the typed ReportError —
    // never UB, never a foreign exception.
    for (std::size_t i = 0; i < doc.size(); ++i) {
        for (char flip : flips) {
            if (doc[i] == flip)
                continue;
            std::string mutant = doc;
            mutant[i] = flip;
            try {
                readPerfettoTraceText(mutant);
            } catch (const ReportError &) {
                // expected for most mutants
            }
        }
    }
}

TEST(ReportJson, ReadFileBoundedReportsMissingFiles)
{
    EXPECT_THROW(readFileBounded(tmpPath("does_not_exist.json")),
                 ReportError);
}

// ------------------------------------------------------ trace ingest --

TEST(ReportIngest, ReadsGoldenTraceAndFoldsFlowIds)
{
    const TraceData trace = readPerfettoTraceText(kGoldenTrace);
    ASSERT_EQ(trace.events.size(), 7u);
    EXPECT_EQ(trace.countPhase('X'), 4u);
    EXPECT_EQ(trace.countPhase('s'), 1u);
    EXPECT_EQ(trace.countPhase('f'), 2u);

    // µs on the wire, ns in the model.
    EXPECT_EQ(trace.events[0].startNs, 0u);
    EXPECT_EQ(trace.events[0].durationNs, 100 * kMs);
    EXPECT_EQ(trace.events[1].startNs, 10 * kMs);

    // The companion "f" records folded onto their "X" twins.
    EXPECT_EQ(trace.events[3].flowId, 7u);
    EXPECT_EQ(trace.events[5].flowId, 7u);
    EXPECT_EQ(trace.events[0].flowId, 0u);
    EXPECT_EQ(trace.events[1].flowId, 0u);
}

TEST(ReportIngest, RejectsMalformedTraces)
{
    EXPECT_THROW(readPerfettoTraceText("{\"traceEvents\": 3}"),
                 ReportError);
    EXPECT_THROW(readPerfettoTraceText(
                     "{\"traceEvents\": [{\"ph\": \"XY\", \"name\": "
                     "\"a\", \"tid\": 0, \"ts\": 0}]}"),
                 ReportError);
    // An 'X' span without a duration is a schema violation.
    EXPECT_THROW(readPerfettoTraceText(
                     "{\"traceEvents\": [{\"ph\": \"X\", \"name\": "
                     "\"a\", \"tid\": 0, \"ts\": 0}]}"),
                 ReportError);
    // Negative ids are rejected rather than wrapped.
    EXPECT_THROW(readPerfettoTraceText(
                     "{\"traceEvents\": [{\"ph\": \"s\", \"name\": "
                     "\"a\", \"tid\": 0, \"ts\": 0, \"id\": -1}]}"),
                 ReportError);
}

// ---------------------------------------------------- span analytics --

TEST(ReportAnalysis, GoldenSpanForest)
{
    const SpanForest forest =
        buildSpanForest(readPerfettoTraceText(kGoldenTrace));

    ASSERT_EQ(forest.nodes.size(), 4u);
    EXPECT_EQ(forest.threads, 3u);
    EXPECT_EQ(forest.minStartNs, 0u);
    EXPECT_EQ(forest.maxEndNs, 100 * kMs);

    // Roots in start order: main, then the two chunks.
    ASSERT_EQ(forest.roots.size(), 3u);
    EXPECT_EQ(forest.nodes[forest.roots[0]].name, "main");
    EXPECT_EQ(forest.nodes[forest.roots[1]].name, "runtime.chunk");
    EXPECT_EQ(forest.nodes[forest.roots[2]].name, "runtime.chunk");

    const SpanNode &main = forest.nodes[forest.roots[0]];
    ASSERT_EQ(main.children.size(), 1u);
    const SpanNode &submit = forest.nodes[main.children[0]];
    EXPECT_EQ(submit.name, "submit");
    EXPECT_EQ(submit.depth, 1u);
    EXPECT_EQ(submit.parent, forest.roots[0]);

    // Self time excludes direct children.
    EXPECT_EQ(main.selfNs, 60 * kMs);
    EXPECT_EQ(submit.selfNs, 40 * kMs);

    ASSERT_EQ(forest.flowStarts.size(), 1u);
    EXPECT_EQ(forest.flowStarts[0].flowId, 7u);
    EXPECT_EQ(forest.flowStarts[0].tsNs, 20 * kMs);
    EXPECT_EQ(forest.flowStarts[0].tid, 0u);
}

TEST(ReportAnalysis, GoldenUtilization)
{
    const SpanForest forest =
        buildSpanForest(readPerfettoTraceText(kGoldenTrace));
    const UtilizationTimeline tl = computeUtilization(forest, 10, 8);

    EXPECT_EQ(tl.binNs, 10 * kMs);
    ASSERT_EQ(tl.perThread.size(), 3u);
    ASSERT_EQ(tl.perThread[0].size(), 10u);

    // tid 0 is covered by `main` for the whole extent.
    for (double v : tl.perThread[0])
        EXPECT_DOUBLE_EQ(v, 1.0);
    // tid 1's chunk [21, 51) ms: 0.9 of bin 2, all of bins 3-4,
    // 0.1 of bin 5.
    EXPECT_DOUBLE_EQ(tl.perThread[1][1], 0.0);
    EXPECT_DOUBLE_EQ(tl.perThread[1][2], 0.9);
    EXPECT_DOUBLE_EQ(tl.perThread[1][3], 1.0);
    EXPECT_DOUBLE_EQ(tl.perThread[1][4], 1.0);
    EXPECT_DOUBLE_EQ(tl.perThread[1][5], 0.1);
    // tid 2's chunk [22, 42) ms.
    EXPECT_DOUBLE_EQ(tl.perThread[2][2], 0.8);
    EXPECT_DOUBLE_EQ(tl.perThread[2][4], 0.2);

    // Stages ranked by total self time: main 60, chunks 50, submit 40.
    ASSERT_EQ(tl.stageNames.size(), 3u);
    EXPECT_EQ(tl.stageNames[0], "main");
    EXPECT_EQ(tl.stageNames[1], "runtime.chunk");
    EXPECT_EQ(tl.stageNames[2], "submit");

    // Total stage self-time mass equals the forest's self time.
    double mass = 0.0;
    for (const std::vector<double> &track : tl.perStage)
        for (double v : track)
            mass += v;
    EXPECT_NEAR(mass, static_cast<double>(150 * kMs),
                static_cast<double>(kMs) * 1e-3);
}

TEST(ReportAnalysis, GoldenAttributionStitchesFlows)
{
    const SpanForest forest =
        buildSpanForest(readPerfettoTraceText(kGoldenTrace));
    const Attribution attr = computeAttribution(forest);

    EXPECT_EQ(attr.wallNs, 100 * kMs);
    EXPECT_EQ(attr.fanOuts, 1u);
    EXPECT_EQ(attr.orphanChunks, 0u);

    // cp(main) = self(main) + self(submit) + max(chunk cps)
    //          = 60 + 40 + 30 ms.
    EXPECT_EQ(attr.criticalPathNs, 130 * kMs);
    // The 20 ms chunk ran in the 30 ms chunk's shadow.
    EXPECT_EQ(attr.parallelSavedNs, 20 * kMs);

    ASSERT_EQ(attr.rows.size(), 3u);
    EXPECT_EQ(attr.rows[0].name, "main");
    EXPECT_EQ(attr.rows[0].criticalNs, 60 * kMs);
    EXPECT_EQ(attr.rows[1].name, "submit");
    EXPECT_EQ(attr.rows[1].criticalNs, 40 * kMs);
    // Only the longer chunk sits on the path; both roll up per name.
    EXPECT_EQ(attr.rows[2].name, "runtime.chunk");
    EXPECT_EQ(attr.rows[2].count, 2u);
    EXPECT_EQ(attr.rows[2].selfNs, 50 * kMs);
    EXPECT_EQ(attr.rows[2].criticalNs, 30 * kMs);
}

TEST(ReportAnalysis, ChunksWithoutFlowStartAreOrphans)
{
    // Same trace minus the "s" record: the chunks keep their flow
    // ids but nothing can be stitched.
    std::string noStart = kGoldenTrace;
    const std::size_t at = noStart.find("\"ph\": \"s\"");
    ASSERT_NE(at, std::string::npos);
    const std::size_t lineStart = noStart.rfind('{', at);
    const std::size_t lineEnd = noStart.find('\n', at);
    // The record's trailing comma goes with it, so the document
    // stays grammatical.
    noStart.erase(lineStart, lineEnd - lineStart + 1);

    const SpanForest forest =
        buildSpanForest(readPerfettoTraceText(noStart));
    const Attribution attr = computeAttribution(forest);
    EXPECT_EQ(attr.fanOuts, 0u);
    EXPECT_EQ(attr.orphanChunks, 2u);
    // Ownerless chunks fall back to plain roots, which compose
    // sequentially: 100 (main) + 30 + 20 ms. Without the flow start
    // nothing proves the chunks overlapped.
    EXPECT_EQ(attr.criticalPathNs, 150 * kMs);
    EXPECT_EQ(attr.parallelSavedNs, 0u);
}

// -------------------------------------------------- metrics formats --

TEST(ReportMetrics, JsonRoundTripThroughRegistryExporter)
{
    obs::metricsRegistry().resetPrefix("test.report.");
    obs::metricsRegistry().counter("test.report.hits").add(42);
    obs::metricsRegistry().gauge("test.report.load").set(1.5);

    const MetricsData data =
        readMetricsText(obs::metricsRegistry().toJson());
    obs::metricsRegistry().resetPrefix("test.report.");

    const MetricRow *hits = data.find("test.report.hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_EQ(hits->type, "counter");
    EXPECT_DOUBLE_EQ(hits->value, 42.0);

    const MetricRow *load = data.find("test.report.load");
    ASSERT_NE(load, nullptr);
    EXPECT_EQ(load->type, "gauge");
    EXPECT_DOUBLE_EQ(load->value, 1.5);

    EXPECT_EQ(data.withPrefix("test.report.").size(), 2u);
}

TEST(ReportMetrics, RejectsWrongSchemaAndEmptyInput)
{
    EXPECT_THROW(readMetricsText(
                     "{\"schema\": \"other.v9\", \"metrics\": []}"),
                 ReportError);
    EXPECT_THROW(readMetricsText("   \n "), ReportError);
    EXPECT_THROW(readMetricsText("{\"schema\": \"gws.metrics.v1\""),
                 ReportError);
    // gws.metrics.v1 JSON is the only wire format, and each row must
    // be a counter or a gauge.
    EXPECT_THROW(readMetricsText("gws_test_hits_total 42\n"),
                 ReportError);
    EXPECT_THROW(readMetricsText(
                     "{\"schema\": \"gws.metrics.v1\", \"metrics\": "
                     "[{\"name\": \"gws.test.build\", \"type\": "
                     "\"info\", \"value\": \"abc\"}]}"),
                 ReportError);
    EXPECT_THROW(readMetricsText(
                     "{\"schema\": \"gws.metrics.v1\", \"metrics\": "
                     "[{\"name\": \"gws.test.latency\", \"type\": "
                     "\"histogram\", \"count\": 1, \"sum\": 5, "
                     "\"buckets\": []}]}"),
                 ReportError);
}

// -------------------------------------------------- bench envelopes --

const char *kEnvelope = R"({"schema": "gws.bench.v1",
  "bench": "fig_test", "git": "deadbeef", "threads": 4,
  "wall_ms": 12.5, "peak_rss_bytes": 1048576,
  "results": {
    "family_kmeans_mean_error_pct": 4.2,
    "family_kmeans_mean_efficiency_pct": 93.0,
    "family_kmeans_clusters": 12,
    "family_dbscan_mean_error_pct": 6.5,
    "family_dbscan_outlier_pct": 2.25,
    "heatmap": {"title": "improvement vs scale",
      "rows": ["game_a", "game_b"],
      "cols": ["0.5x", "0.8x", "1.0x"],
      "values": [[1.5, 1.2, 1.0], [1.4, 1.1, 1.0]]}}})";

TEST(ReportBench, LoadsDirSkippingMalformedFiles)
{
    const std::string dir = tmpPath("bench_dir");
    ::mkdir(dir.c_str(), 0755);
    writeFile(dir + "/BENCH_fig_test.json", kEnvelope);
    writeFile(dir + "/BENCH_broken.json", "{\"schema\": \"gws.be");
    writeFile(dir + "/not_a_bench.json", "{}");

    const std::vector<BenchEnvelope> benches = loadBenchDir(dir);
    ASSERT_EQ(benches.size(), 1u);
    EXPECT_EQ(benches[0].bench, "fig_test");
    EXPECT_EQ(benches[0].git, "deadbeef");
    EXPECT_EQ(benches[0].threads, 4u);
    EXPECT_DOUBLE_EQ(benches[0].wallMs, 12.5);
    EXPECT_EQ(benches[0].peakRssBytes, 1048576u);

    EXPECT_THROW(loadBenchDir(tmpPath("no_such_dir")), ReportError);
}

TEST(ReportBench, ExtractsHeatmapAndClusterQuality)
{
    const std::vector<BenchEnvelope> benches{
        readBenchEnvelopeText(kEnvelope, "<test>")};

    const std::vector<Heatmap> maps = extractHeatmaps(benches);
    ASSERT_EQ(maps.size(), 1u);
    EXPECT_EQ(maps[0].title, "improvement vs scale");
    EXPECT_EQ(maps[0].source, "fig_test");
    ASSERT_EQ(maps[0].rowLabels.size(), 2u);
    ASSERT_EQ(maps[0].colLabels.size(), 3u);
    EXPECT_DOUBLE_EQ(maps[0].values[0][0], 1.5);
    EXPECT_DOUBLE_EQ(maps[0].values[1][2], 1.0);

    const std::vector<ClusterQualityRow> rows =
        extractClusterQuality(benches);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].family, "kmeans");
    EXPECT_DOUBLE_EQ(rows[0].meanErrorPct, 4.2);
    EXPECT_DOUBLE_EQ(rows[0].meanEfficiencyPct, 93.0);
    EXPECT_DOUBLE_EQ(rows[0].clusters, 12.0);
    EXPECT_TRUE(std::isnan(rows[0].outlierPct));
    EXPECT_EQ(rows[1].family, "dbscan");
    EXPECT_DOUBLE_EQ(rows[1].outlierPct, 2.25);
    EXPECT_TRUE(std::isnan(rows[1].meanEfficiencyPct));
}

TEST(ReportBench, RaggedHeatmapIsRejected)
{
    const std::string ragged =
        std::string("{\"schema\": \"gws.bench.v1\", \"bench\": \"x\","
                    " \"git\": \"g\", \"threads\": 1, \"wall_ms\": 1,"
                    " \"peak_rss_bytes\": 0, \"results\": {\"heatmap\":"
                    " {\"title\": \"t\", \"rows\": [\"a\"],"
                    " \"cols\": [\"x\", \"y\"],"
                    " \"values\": [[1]]}}}");
    const std::vector<BenchEnvelope> benches{
        readBenchEnvelopeText(ragged, "<test>")};
    EXPECT_THROW(extractHeatmaps(benches), ReportError);
}

// --------------------------------------------------- rendered page --

/** Every panel the dashboard contract promises. */
const char *kPanelIds[] = {
    "panel-meta",      "panel-utilization",
    "panel-bottlenecks", "panel-heatmap",
    "panel-cluster-quality", "panel-shards",
    "panel-benches",
};

void
expectSelfContained(const std::string &html)
{
    EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
    EXPECT_NE(html.find("</html>"), std::string::npos);
    for (const char *id : kPanelIds)
        EXPECT_NE(html.find(std::string("<section id=\"") + id),
                  std::string::npos)
            << "missing " << id;
    // Self-containment: nothing the browser could try to fetch.
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
    EXPECT_EQ(html.find("<script"), std::string::npos);
}

TEST(ReportPage, OfflineModelRendersAllPanelsSelfContained)
{
    obs::metricsRegistry().resetPrefix("test.report.");
    const std::string dir = tmpPath("page_dir");
    ::mkdir(dir.c_str(), 0755);
    writeFile(dir + "/BENCH_fig_test.json", kEnvelope);
    const std::string tracePath = tmpPath("golden_trace.json");
    writeFile(tracePath, kGoldenTrace);
    const std::string metricsPath = tmpPath("golden_metrics.json");
    obs::metricsRegistry().counter("gws.part.cut_edges").add(3);
    obs::metricsRegistry().counter("gws.trace.dropped_spans").add(12);
    writeFile(metricsPath, obs::metricsRegistry().toJson());
    obs::metricsRegistry().resetPrefix("gws.part.");
    obs::metricsRegistry().resetPrefix("gws.trace.");

    ReportInputs inputs;
    inputs.tracePath = tracePath;
    inputs.metricsPath = metricsPath;
    inputs.benchDir = dir;
    const ReportModel model = buildReportModel(inputs);
    EXPECT_TRUE(model.hasTrace);
    EXPECT_TRUE(model.hasMetrics);
    ASSERT_EQ(model.benches.size(), 1u);

    const std::string html = renderReportHtml(model);
    expectSelfContained(html);
    // The analysis numbers made it onto the page.
    EXPECT_NE(html.find("runtime.chunk"), std::string::npos);
    EXPECT_NE(html.find("improvement vs scale"), std::string::npos);
    EXPECT_NE(html.find("kmeans"), std::string::npos);
    const std::size_t meta = html.find("<section id=\"panel-meta\"");
    EXPECT_LT(html.find("<b>12</b><small>trace spans dropped "
                        "(gws.trace.dropped_spans)",
                        meta),
              html.find("</section>", meta));
}

TEST(ReportPage, WriteIsAtomicAndLeavesNoTempFile)
{
    ReportModel model;
    model.sources.push_back("<none>");
    const std::string out = tmpPath("atomic_report.html");
    writeReportHtml(model, out);

    std::ifstream in(out, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::string html((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    expectSelfContained(html);

    struct stat st;
    EXPECT_NE(::stat((out + ".tmp").c_str(), &st), 0)
        << "temp file left behind";
    std::remove(out.c_str());
}

TEST(ReportPage, ModelWithNoInputsIsRejected)
{
    EXPECT_THROW(buildReportModel(ReportInputs{}), ReportError);
}

} // namespace
} // namespace report
} // namespace gws
