/**
 * @file
 * Unit tests for the observability layer: span nesting and self-time
 * accounting, the exact per-name rollup (bounded ring and rollup-only
 * recordings), flow links across parallelFor fan-outs, the metrics
 * registry (types, reset scoping), both JSON exporters (structural
 * validation with a minimal parser, failed writes reported), and the
 * disabled-tracer no-op guarantee.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "runtime/runtime.hh"

namespace gws {
namespace {

// --------------------------------------------- minimal JSON validator --

/**
 * Structural JSON check, enough to catch unbalanced braces, trailing
 * commas, and broken string escaping in the exporters' hand-rolled
 * output. Not a full RFC 8259 parser (no number-grammar pedantry).
 */
class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : s(text) {}

    bool
    valid()
    {
        i = 0;
        if (!value())
            return false;
        ws();
        return i == s.size();
    }

  private:
    void
    ws()
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\t' ||
                                s[i] == '\n' || s[i] == '\r'))
            ++i;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (s.compare(i, n, word) != 0)
            return false;
        i += n;
        return true;
    }

    bool
    string()
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        ++i;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size())
                    return false;
            }
            ++i;
        }
        if (i >= s.size())
            return false;
        ++i; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = i;
        if (i < s.size() && (s[i] == '-' || s[i] == '+'))
            ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '-' || s[i] == '+'))
            ++i;
        return i > start;
    }

    bool
    value()
    {
        ws();
        if (i >= s.size())
            return false;
        switch (s[i]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++i; // '{'
        ws();
        if (i < s.size() && s[i] == '}') {
            ++i;
            return true;
        }
        while (true) {
            ws();
            if (!string())
                return false;
            ws();
            if (i >= s.size() || s[i] != ':')
                return false;
            ++i;
            if (!value())
                return false;
            ws();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            break;
        }
        if (i >= s.size() || s[i] != '}')
            return false;
        ++i;
        return true;
    }

    bool
    array()
    {
        ++i; // '['
        ws();
        if (i < s.size() && s[i] == ']') {
            ++i;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            ws();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            break;
        }
        if (i >= s.size() || s[i] != ']')
            return false;
        ++i;
        return true;
    }

    const std::string &s;
    std::size_t i = 0;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/**
 * Tracer tests leave the tracer off and the runtime configuration as
 * they found it, so the rest of the binary (and ctest siblings run
 * from the same build tree) see pristine global state.
 */
class ObsTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved = runtimeConfig(); }

    void TearDown() override
    {
        obs::traceEnd();
        setRuntimeConfig(saved);
        shutdownGlobalThreadPool();
    }

    void
    useThreads(std::size_t threads)
    {
        RuntimeConfig cfg = saved;
        cfg.threads = threads;
        setRuntimeConfig(cfg);
    }

    RuntimeConfig saved;
};

// ------------------------------------------------------------- tracer --

TEST_F(ObsTest, DisabledTracerRecordsNothing)
{
    obs::traceEnd();
    const std::size_t before = obs::traceEventCount();
    {
        obs::SpanScope span("never.recorded");
    }
    obs::traceInstant("never", "recorded");
    obs::traceFlowStart("never", 1);
    EXPECT_EQ(obs::traceEventCount(), before);
}

TEST_F(ObsTest, TraceBeginClearsPriorEvents)
{
    obs::traceBegin();
    {
        obs::SpanScope span("first.run");
    }
    obs::traceEnd();
    EXPECT_GE(obs::traceEventCount(), 1u);

    obs::traceBegin();
    obs::traceEnd();
    EXPECT_EQ(obs::traceEventCount(), 0u);
}

TEST_F(ObsTest, SpanNestingRecordsDepthAndSelfTime)
{
    obs::traceBegin();
    {
        obs::SpanScope outer("nest.outer");
        {
            obs::SpanScope inner("nest.inner");
            volatile std::uint64_t sink = 0;
            for (int spin = 0; spin < 50000; ++spin)
                sink = sink + 1;
        }
    }
    obs::traceEnd();

    const std::vector<obs::TraceEvent> events = obs::traceSnapshot();
    const obs::TraceEvent *outer = nullptr, *inner = nullptr;
    std::size_t outerIdx = 0, innerIdx = 0;
    for (std::size_t idx = 0; idx < events.size(); ++idx) {
        if (events[idx].name == "nest.outer") {
            outer = &events[idx];
            outerIdx = idx;
        }
        if (events[idx].name == "nest.inner") {
            inner = &events[idx];
            innerIdx = idx;
        }
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);

    // Spans are appended when they close: inner-before-outer order.
    EXPECT_LT(innerIdx, outerIdx);
    EXPECT_EQ(outer->depth, 0u);
    EXPECT_EQ(inner->depth, 1u);
    EXPECT_EQ(outer->tid, inner->tid);

    // Child interval nests inside the parent interval.
    EXPECT_GE(inner->startNs, outer->startNs);
    EXPECT_LE(inner->startNs + inner->durationNs,
              outer->startNs + outer->durationNs);

    // Self time is duration minus (exactly) the child's duration.
    EXPECT_EQ(outer->selfNs + inner->durationNs, outer->durationNs);
    EXPECT_EQ(inner->selfNs, inner->durationNs);
}

TEST_F(ObsTest, FlowEventsLinkParallelForChunks)
{
    useThreads(2);
    obs::traceBegin();
    std::atomic<int> calls{0};
    parallelFor(0, 100, 10, [&](std::size_t) { ++calls; });
    obs::traceEnd();
    EXPECT_EQ(calls.load(), 100);

    const std::vector<obs::TraceEvent> events = obs::traceSnapshot();
    const obs::TraceEvent *flow = nullptr;
    std::size_t chunks = 0;
    std::uint64_t chunkFlowId = 0;
    for (const auto &e : events) {
        if (e.phase == obs::TracePhase::FlowStart &&
            e.name == "parallelFor")
            flow = &e;
        if (e.phase == obs::TracePhase::Complete &&
            e.name == "runtime.chunk") {
            ++chunks;
            chunkFlowId = e.flowId;
        }
    }
    ASSERT_NE(flow, nullptr);
    EXPECT_NE(flow->flowId, 0u);
    EXPECT_EQ(chunks, 10u);
    EXPECT_EQ(chunkFlowId, flow->flowId);
}

TEST_F(ObsTest, RollupAggregatesByName)
{
    obs::traceBegin();
    for (int round = 0; round < 3; ++round) {
        obs::SpanScope span("rollup.hot");
    }
    {
        obs::SpanScope span("rollup.cold");
    }
    obs::traceEnd();

    const std::vector<obs::SpanRollup> rows = obs::traceRollup();
    const obs::SpanRollup *hot = nullptr, *cold = nullptr;
    for (const auto &r : rows) {
        if (r.name == "rollup.hot")
            hot = &r;
        if (r.name == "rollup.cold")
            cold = &r;
    }
    ASSERT_NE(hot, nullptr);
    ASSERT_NE(cold, nullptr);
    EXPECT_EQ(hot->count, 3u);
    EXPECT_EQ(cold->count, 1u);
    EXPECT_GE(hot->totalNs, hot->selfNs);

    const std::string report = obs::traceRollupReport();
    EXPECT_NE(report.find("rollup.hot"), std::string::npos);
    EXPECT_NE(report.find("rollup.cold"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceExportIsValidJson)
{
    useThreads(2);
    obs::traceBegin();
    {
        obs::SpanScope span("export.outer");
        obs::SpanScope detail("export \"quoted\" name");
        parallelFor(0, 40, 10, [](std::size_t) {});
    }
    obs::traceInstant("export.instant", "detail \"text\"\n");
    obs::traceEnd();

    const std::string path = "test_obs_trace.json";
    ASSERT_TRUE(obs::writeChromeTrace(path));
    const std::string text = slurp(path);
    std::remove(path.c_str());

    EXPECT_TRUE(JsonValidator(text).valid()) << text;
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
    // All four phases present: complete, flow start/finish, instant.
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"s\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"f\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"i\""), std::string::npos);

    // /dev/full opens, but every write to it fails with ENOSPC.
    EXPECT_FALSE(obs::writeChromeTrace("/dev/full"));
}

// ------------------------------------------------------------ metrics --

TEST_F(ObsTest, CounterAndGaugeBasics)
{
    obs::Counter &c = obs::metricsRegistry().counter("test.obs.counter");
    const std::uint64_t before = c.value();
    c.increment();
    c.add(4);
    EXPECT_EQ(c.value(), before + 5);

    // Same name, same handle: the registry is get-or-create.
    EXPECT_EQ(&obs::metricsRegistry().counter("test.obs.counter"), &c);

    obs::Gauge &g = obs::metricsRegistry().gauge("test.obs.gauge");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST_F(ObsTest, ResetPrefixScopesTheReset)
{
    obs::Counter &mine =
        obs::metricsRegistry().counter("test.reset.mine");
    obs::Counter &other =
        obs::metricsRegistry().counter("test.keep.other");
    mine.add(3);
    other.add(7);
    obs::metricsRegistry().resetPrefix("test.reset.");
    EXPECT_EQ(mine.value(), 0u);
    EXPECT_EQ(other.value(), 7u);
    other.reset();
}

TEST_F(ObsTest, SnapshotPrefixFiltersByName)
{
    obs::metricsRegistry().counter("test.snap.a").increment();
    obs::metricsRegistry().counter("test.snap.b").increment();
    const auto rows =
        obs::metricsRegistry().snapshotPrefix("test.snap.");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "test.snap.a");
    EXPECT_EQ(rows[1].name, "test.snap.b");
    obs::metricsRegistry().resetPrefix("test.snap.");
}

TEST_F(ObsTest, MetricsJsonParsesAndReportsFailedWrites)
{
    obs::metricsRegistry().counter("test.json.counter").increment();
    obs::metricsRegistry().gauge("test.json.gauge").set(0.25);
    const std::string json = obs::metricsRegistry().toJson();
    EXPECT_TRUE(JsonValidator(json).valid()) << json;
    EXPECT_NE(json.find("gws.metrics.v1"), std::string::npos);
    EXPECT_NE(json.find("\"test.json.counter\""), std::string::npos);
    EXPECT_NE(json.find("\"test.json.gauge\""), std::string::npos);

    const std::string path = "test_obs_metrics.json";
    ASSERT_TRUE(obs::metricsRegistry().writeJson(path));
    const std::string fileText = slurp(path);
    std::remove(path.c_str());
    EXPECT_TRUE(JsonValidator(fileText).valid());
    EXPECT_FALSE(obs::metricsRegistry().writeJson("/dev/full"));
}

TEST_F(ObsTest, JsonEscapeHandlesControlCharacters)
{
    const std::string escaped =
        obs::jsonEscape("a\"b\\c\nd\te\x01f");
    const std::string wrapped = "\"" + escaped + "\"";
    EXPECT_TRUE(JsonValidator(wrapped).valid()) << wrapped;
    EXPECT_EQ(escaped.find('\n'), std::string::npos);
}


// ------------------------------------------------- trace ring buffer --

/** Close ten distinct spans, cap.span.0 .. cap.span.9, in order. */
void
closeTenCapSpans()
{
    for (int i = 0; i < 10; ++i) {
        obs::SpanScope span("cap.span." + std::to_string(i));
    }
}

/** Rollup counts of the cap.span.* spans, by name. */
std::map<std::string, std::uint64_t>
capSpanRollup()
{
    std::map<std::string, std::uint64_t> counts;
    for (const obs::SpanRollup &r : obs::traceRollup())
        if (r.name.rfind("cap.span.", 0) == 0)
            counts[r.name] = r.count;
    return counts;
}

/** Each of the ten cap.span.* names once. */
std::map<std::string, std::uint64_t>
tenCapSpansOnce()
{
    std::map<std::string, std::uint64_t> counts;
    for (int i = 0; i < 10; ++i)
        counts["cap.span." + std::to_string(i)] = 1;
    return counts;
}

TEST_F(ObsTest, TraceCapRingKeepsNewestAndCountsDrops)
{
    const std::size_t savedCap = obs::traceCapPerThread();
    obs::metricsRegistry().resetPrefix("gws.trace.");
    obs::setTraceCapPerThread(4);

    obs::traceBegin();
    closeTenCapSpans();
    obs::traceEnd();

    std::vector<std::string> kept;
    for (const auto &ev : obs::traceSnapshot())
        if (ev.name.rfind("cap.span.", 0) == 0)
            kept.push_back(ev.name);

    ASSERT_EQ(kept.size(), 4u);
    // The ring keeps the newest spans, unwound oldest-first.
    EXPECT_EQ(kept[0], "cap.span.6");
    EXPECT_EQ(kept[1], "cap.span.7");
    EXPECT_EQ(kept[2], "cap.span.8");
    EXPECT_EQ(kept[3], "cap.span.9");
    EXPECT_EQ(obs::metricsRegistry()
                  .counter("gws.trace.dropped_spans")
                  .value(),
              6u);

    // The rollup is folded as spans close: the six dropped are in it.
    EXPECT_EQ(capSpanRollup(), tenCapSpansOnce());

    obs::setTraceCapPerThread(savedCap);
    obs::metricsRegistry().resetPrefix("gws.trace.");
}

TEST_F(ObsTest, RollupOnlyStartFoldsTheSameCountsAndKeepsNoEvent)
{
    const std::size_t savedCap = obs::traceCapPerThread();
    obs::metricsRegistry().resetPrefix("gws.trace.");
    obs::setTraceCapPerThread(4);
    useThreads(2);

    obs::traceBegin(obs::TraceRetention::RollupOnly);
    closeTenCapSpans();
    for (int i = 0; i < 3; ++i) {
        obs::SpanScope outer("rollup_only.outer");
        obs::SpanScope inner("rollup_only.inner");
    }
    parallelFor(0, 100, 10, [](std::size_t) {});
    obs::traceInstant("rollup_only.instant", "kept nowhere");
    obs::traceEnd();

    EXPECT_EQ(obs::traceEventCount(), 0u);
    EXPECT_EQ(obs::metricsRegistry()
                  .counter("gws.trace.dropped_spans")
                  .value(),
              0u);
    EXPECT_EQ(capSpanRollup(), tenCapSpansOnce());

    const obs::SpanRollup *outer = nullptr, *inner = nullptr,
                          *chunk = nullptr;
    const std::vector<obs::SpanRollup> rows = obs::traceRollup();
    for (const auto &r : rows) {
        if (r.name == "rollup_only.outer")
            outer = &r;
        if (r.name == "rollup_only.inner")
            inner = &r;
        if (r.name == "runtime.chunk")
            chunk = &r;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(chunk, nullptr);
    EXPECT_EQ(outer->count, 3u);
    EXPECT_EQ(inner->count, 3u);
    // Chunks run on the pool worker too, which folds into its own
    // table; the rollup merges both threads.
    EXPECT_EQ(chunk->count, 10u);
    // Self time excludes exactly the time spent in child spans.
    EXPECT_EQ(outer->selfNs + inner->totalNs, outer->totalNs);
    EXPECT_EQ(inner->selfNs, inner->totalNs);

    // The next recording starts from an empty rollup.
    obs::traceBegin();
    obs::traceEnd();
    EXPECT_TRUE(obs::traceRollup().empty());

    obs::setTraceCapPerThread(savedCap);
    obs::metricsRegistry().resetPrefix("gws.trace.");
}

} // namespace
} // namespace gws
