#include "obs/trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "obs/mem.hh"
#include "obs/metrics.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace gws {
namespace obs {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace {

/** An open span on a thread's stack. */
struct OpenSpan
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t childNs = 0;
    std::uint64_t flowId = 0;
};

/** Closed spans of one name on one thread. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t selfNs = 0;
};

/**
 * One thread's recording state. Owned by the global registry (so
 * events survive pool shutdown) and written only by its thread; the
 * quiescence contract makes reads from the exporting thread safe.
 */
struct ThreadBuffer
{
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;
    std::vector<OpenSpan> stack;

    /** Every span this thread closed, folded by name (never dropped). */
    std::unordered_map<std::string, SpanTotals> folds;

    /** Oldest retained event once `events` has wrapped as a ring. */
    std::size_t head = 0;
};

/** Per-thread retained-event cap (0 = unbounded), from GWS_TRACE_CAP. */
std::atomic<std::size_t> &
traceCap()
{
    static std::atomic<std::size_t> cap{
        envSize("GWS_TRACE_CAP", std::size_t{1} << 20)};
    return cap;
}

/**
 * Append an event to a thread's buffer, overwriting the oldest
 * retained event (and counting the loss) once the buffer has grown to
 * the cap — the bounded-memory contract for long runs.
 */
void
pushEvent(ThreadBuffer &buf, TraceEvent ev)
{
    const std::size_t cap =
        traceCap().load(std::memory_order_relaxed);
    if (cap == 0 || buf.events.size() < cap) {
        buf.events.push_back(std::move(ev));
        return;
    }
    static Counter &dropped =
        metricsRegistry().counter("gws.trace.dropped_spans");
    dropped.increment();
    buf.events[buf.head] = std::move(ev);
    buf.head = (buf.head + 1) % buf.events.size();
}

struct BufferRegistry
{
    std::mutex mutex;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

BufferRegistry &
bufferRegistry()
{
    // Leaked on purpose: the armed atexit export runs after static
    // destruction would have torn a function-local static down, so
    // the registry must outlive every destructor in the process.
    static BufferRegistry *registry = new BufferRegistry;
    return *registry;
}

/** Trace epoch: event timestamps are relative to the last traceBegin. */
std::atomic<std::uint64_t> g_trace_t0{0};

/** False while a rollup-only recording runs: spans fold, no event stays. */
std::atomic<bool> g_retain_events{true};

bool
retainingEvents()
{
    return g_retain_events.load(std::memory_order_relaxed);
}

std::atomic<std::uint64_t> g_next_flow_id{1};

/** This thread's buffer, registered on first use. */
ThreadBuffer &
threadBuffer()
{
    thread_local ThreadBuffer *buffer = [] {
        BufferRegistry &reg = bufferRegistry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        auto owned = std::make_unique<ThreadBuffer>();
        owned->tid = static_cast<std::uint32_t>(reg.buffers.size());
        ThreadBuffer *raw = owned.get();
        reg.buffers.push_back(std::move(owned));
        return raw;
    }();
    return *buffer;
}

std::uint64_t
sinceT0(std::uint64_t ns)
{
    const std::uint64_t t0 = g_trace_t0.load(std::memory_order_relaxed);
    return ns >= t0 ? ns - t0 : 0;
}

// ------------------------------------------------- armed exports ----

std::mutex g_export_mutex;
std::string g_trace_path;
std::string g_metrics_path;
bool g_atexit_registered = false;

void
armAtexitLocked()
{
    if (g_atexit_registered)
        return;
    g_atexit_registered = true;
    std::atexit(flushObservability);
}

} // namespace

namespace trace_detail {

std::atomic<bool> enabled{false};

bool
spanBegin(std::string name, std::uint64_t flowId)
{
    ThreadBuffer &buf = threadBuffer();
    buf.stack.push_back(
        OpenSpan{std::move(name), nowNs(), 0, flowId});
    return true;
}

void
spanEnd()
{
    ThreadBuffer &buf = threadBuffer();
    if (buf.stack.empty())
        return; // tracing was restarted mid-span; drop silently
    OpenSpan span = std::move(buf.stack.back());
    buf.stack.pop_back();

    const std::uint64_t end = nowNs();
    const std::uint64_t dur =
        end >= span.startNs ? end - span.startNs : 0;
    const std::uint64_t self = dur >= span.childNs ? dur - span.childNs : 0;
    if (!buf.stack.empty())
        buf.stack.back().childNs += dur;

    SpanTotals &fold = buf.folds[span.name];
    ++fold.count;
    fold.totalNs += dur;
    fold.selfNs += self;
    if (!retainingEvents())
        return;

    TraceEvent ev;
    ev.name = std::move(span.name);
    ev.phase = TracePhase::Complete;
    ev.startNs = sinceT0(span.startNs);
    ev.durationNs = dur;
    ev.selfNs = self;
    ev.depth = static_cast<std::uint32_t>(buf.stack.size());
    ev.tid = buf.tid;
    ev.flowId = span.flowId;
    pushEvent(buf, std::move(ev));
}

} // namespace trace_detail

void
traceBegin(TraceRetention retention)
{
    trace_detail::enabled.store(false, std::memory_order_relaxed);
    // Touch the cap while tracing is off: its first read parses
    // GWS_TRACE_CAP, and a malformed value warns — which records a
    // trace instant through the observer hook. If that first read
    // happened inside pushEvent() the warning would re-enter the
    // cap's own static initializer.
    traceCap().load(std::memory_order_relaxed);
    BufferRegistry &reg = bufferRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto &buf : reg.buffers) {
        buf->events.clear();
        buf->stack.clear();
        buf->folds.clear();
        buf->head = 0;
    }
    g_retain_events.store(retention == TraceRetention::Events,
                          std::memory_order_relaxed);
    g_trace_t0.store(nowNs(), std::memory_order_relaxed);
    trace_detail::enabled.store(true, std::memory_order_relaxed);
}

void
traceEnd()
{
    trace_detail::enabled.store(false, std::memory_order_relaxed);
}

std::uint64_t
traceNewFlowId()
{
    return g_next_flow_id.fetch_add(1, std::memory_order_relaxed);
}

void
traceFlowStart(const char *name, std::uint64_t flowId)
{
    if (!traceEnabled() || !retainingEvents())
        return;
    ThreadBuffer &buf = threadBuffer();
    TraceEvent ev;
    ev.name = name;
    ev.phase = TracePhase::FlowStart;
    ev.startNs = sinceT0(nowNs());
    ev.depth = static_cast<std::uint32_t>(buf.stack.size());
    ev.tid = buf.tid;
    ev.flowId = flowId;
    pushEvent(buf, std::move(ev));
}

void
traceInstant(const char *name, const std::string &detail)
{
    if (!traceEnabled() || !retainingEvents())
        return;
    ThreadBuffer &buf = threadBuffer();
    TraceEvent ev;
    ev.name = name;
    ev.detail = detail;
    ev.phase = TracePhase::Instant;
    ev.startNs = sinceT0(nowNs());
    ev.depth = static_cast<std::uint32_t>(buf.stack.size());
    ev.tid = buf.tid;
    pushEvent(buf, std::move(ev));
}

std::size_t
traceEventCount()
{
    BufferRegistry &reg = bufferRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    std::size_t n = 0;
    for (const auto &buf : reg.buffers)
        n += buf->events.size();
    return n;
}

std::vector<TraceEvent>
traceSnapshot()
{
    BufferRegistry &reg = bufferRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    std::vector<TraceEvent> out;
    for (const auto &buf : reg.buffers) {
        // A wrapped ring buffer's oldest event sits at `head`; emit
        // oldest-first so timelines stay monotone per thread.
        const auto begin = buf->events.begin();
        out.insert(out.end(), begin + static_cast<std::ptrdiff_t>(
                                          buf->head),
                   buf->events.end());
        out.insert(out.end(), begin,
                   begin + static_cast<std::ptrdiff_t>(buf->head));
    }
    return out;
}

void
setTraceCapPerThread(std::size_t cap)
{
    traceCap().store(cap, std::memory_order_relaxed);
}

std::size_t
traceCapPerThread()
{
    return traceCap().load(std::memory_order_relaxed);
}

std::vector<SpanRollup>
traceRollup()
{
    std::map<std::string, SpanRollup> by_name;
    {
        BufferRegistry &reg = bufferRegistry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        for (const auto &buf : reg.buffers)
            for (const auto &[name, fold] : buf->folds) {
                SpanRollup &r = by_name[name];
                r.name = name;
                r.count += fold.count;
                r.totalNs += fold.totalNs;
                r.selfNs += fold.selfNs;
            }
    }
    std::vector<SpanRollup> out;
    out.reserve(by_name.size());
    for (auto &[name, rollup] : by_name)
        out.push_back(std::move(rollup));
    std::sort(out.begin(), out.end(),
              [](const SpanRollup &a, const SpanRollup &b) {
                  return a.selfNs > b.selfNs;
              });
    return out;
}

std::string
traceRollupReport()
{
    const std::vector<SpanRollup> rollup = traceRollup();
    if (rollup.empty())
        return "";
    std::ostringstream oss;
    char line[160];
    std::snprintf(line, sizeof(line), "trace: %-32s %10s %10s %8s\n",
                  "span", "self ms", "total ms", "count");
    oss << line;
    for (const SpanRollup &r : rollup) {
        std::snprintf(line, sizeof(line),
                      "trace: %-32s %10.2f %10.2f %8llu\n",
                      r.name.c_str(),
                      static_cast<double>(r.selfNs) * 1e-6,
                      static_cast<double>(r.totalNs) * 1e-6,
                      static_cast<unsigned long long>(r.count));
        oss << line;
    }
    return oss.str();
}

bool
writeChromeTrace(const std::string &path)
{
    FILE *fp = std::fopen(path.c_str(), "w");
    if (fp == nullptr) {
        GWS_WARN("cannot write trace JSON to ", path);
        return false;
    }

    const std::vector<TraceEvent> events = traceSnapshot();
    std::ostringstream oss;
    oss << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    auto emit = [&](const std::string &body) {
        oss << (first ? "\n" : ",\n") << "  {" << body << "}";
        first = false;
    };
    auto common = [&](const TraceEvent &ev) {
        std::ostringstream c;
        c << "\"name\": \"" << jsonEscape(ev.name)
          << "\", \"pid\": 1, \"tid\": " << ev.tid << ", \"ts\": "
          << static_cast<double>(ev.startNs) * 1e-3;
        return c.str();
    };

    for (const TraceEvent &ev : events) {
        switch (ev.phase) {
          case TracePhase::Complete:
            emit(common(ev) + ", \"ph\": \"X\", \"cat\": \"gws\"" +
                 ", \"dur\": " +
                 std::to_string(
                     static_cast<double>(ev.durationNs) * 1e-3));
            // A chunk span that belongs to a fan-out also terminates
            // the fan-out's flow arrow on this thread's track.
            if (ev.flowId != 0)
                emit(common(ev) +
                     ", \"ph\": \"f\", \"bp\": \"e\", \"cat\": "
                     "\"flow\", \"id\": " +
                     std::to_string(ev.flowId));
            break;
          case TracePhase::FlowStart:
            emit(common(ev) + ", \"ph\": \"s\", \"cat\": \"flow\""
                 ", \"id\": " + std::to_string(ev.flowId));
            break;
          case TracePhase::Instant:
            emit(common(ev) + ", \"ph\": \"i\", \"s\": \"t\", \"cat\": "
                 "\"gws\", \"args\": {\"detail\": \"" +
                 jsonEscape(ev.detail) + "\"}");
            break;
        }
    }
    oss << "\n]}\n";

    const std::string json = oss.str();
    const bool written =
        std::fwrite(json.data(), 1, json.size(), fp) == json.size();
    if (std::fclose(fp) != 0 || !written) {
        GWS_WARN("short write of trace JSON to ", path);
        return false;
    }
    return true;
}

void
setTraceOutputPath(const std::string &tracePath)
{
    std::lock_guard<std::mutex> lock(g_export_mutex);
    g_trace_path = tracePath;
    if (!tracePath.empty())
        armAtexitLocked();
}

void
setMetricsOutputPath(const std::string &metricsPath)
{
    std::lock_guard<std::mutex> lock(g_export_mutex);
    g_metrics_path = metricsPath;
    if (!metricsPath.empty())
        armAtexitLocked();
}

void
flushObservability()
{
    // Final peak-RSS sample so every export carries the high-water
    // mark of the whole run.
    updatePeakRssGauge();
    std::string trace_path, metrics_path;
    {
        std::lock_guard<std::mutex> lock(g_export_mutex);
        trace_path.swap(g_trace_path);
        metrics_path.swap(g_metrics_path);
    }
    if (!trace_path.empty() && writeChromeTrace(trace_path))
        GWS_INFORM("wrote trace to ", trace_path);
    if (!metrics_path.empty() &&
        metricsRegistry().writeJson(metrics_path))
        GWS_INFORM("wrote metrics to ", metrics_path);
}

namespace {

/** Warn observability: count every warning in the metrics registry
 *  and drop an instant event into the trace so stray warn() calls are
 *  visible in exported timelines. Installed at load time. */
void
warnObserver(const char *msg)
{
    static Counter &warnings = metricsRegistry().counter("gws.warnings");
    warnings.increment();
    traceInstant("warn", msg);
}

const bool g_warn_hook_installed = [] {
    detail::setWarnObserver(&warnObserver);
    return true;
}();

} // namespace

} // namespace obs
} // namespace gws
