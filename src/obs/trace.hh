/**
 * @file
 * Hierarchical span tracer with Perfetto/Chrome trace-event export.
 *
 * Each thread records completed spans into its own buffer (plain
 * thread-local appends — no locks, no atomics on the hot path beyond
 * the single enabled-flag load), nested via a thread-local span stack
 * that also accumulates child time so every span knows its self time.
 * Every closed span is also folded (count, total, self) into its
 * thread's per-name table, so traceRollup() is exact however many
 * events the bounded buffers drop, and a rollup-only recording keeps
 * the per-layer account without retaining any event.
 * Cross-thread fan-outs (parallelFor) are stitched together with flow
 * events: the submitting thread emits a flow start, every chunk span
 * carries the flow id, and the exporter emits the matching flow
 * finish on the worker's track, so Perfetto draws the arrows from the
 * submitting call to the chunks it spawned.
 *
 * Lifecycle contract: the tracer is disabled by default; a disabled
 * SpanScope is one relaxed atomic load. traceBegin() / traceEnd()
 * toggle recording. Snapshot, rollup, export, and traceBegin's buffer
 * clear require quiescence — call them only when no parallel work is in
 * flight (the loop-completion handshake in parallelChunks orders all
 * worker-side writes before the submitting thread returns, which is
 * what makes the quiescent read race-free).
 *
 * Export format: Chrome trace-event JSON ("X" complete events with
 * microsecond timestamps, "s"/"f" flow events, "i" instants),
 * loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
 */

#ifndef GWS_OBS_TRACE_HH
#define GWS_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace gws {
namespace obs {

namespace trace_detail {

/** The global recording flag (read via traceEnabled()). */
extern std::atomic<bool> enabled;

/** Open a span; returns false when tracing is disabled. */
bool spanBegin(std::string name, std::uint64_t flowId);

/** Close the innermost span opened by this thread. */
void spanEnd();

} // namespace trace_detail

/** True while the tracer records spans. */
inline bool
traceEnabled()
{
    return trace_detail::enabled.load(std::memory_order_relaxed);
}

/** What a recording keeps besides the per-name span rollup. */
enum class TraceRetention : std::uint8_t {
    Events,     ///< every event too (traceSnapshot, writeChromeTrace)
    RollupOnly, ///< nothing else: memory stays flat however long the run
};

/**
 * Clear all buffers and rollups and start recording. Requires
 * quiescence.
 */
void traceBegin(TraceRetention retention = TraceRetention::Events);

/** Stop recording (already-recorded spans stay exportable). */
void traceEnd();

/**
 * Bound each thread's event buffer to `cap` retained events (0 =
 * unbounded). Once a buffer is full it becomes a ring: the newest
 * event overwrites the oldest, and every overwrite increments the
 * `gws.trace.dropped_spans` counter — so a long run keeps
 * the tail of its timeline at a fixed memory cost instead of growing
 * without bound. The default comes from the GWS_TRACE_CAP environment
 * variable (1M events per thread when unset). Requires quiescence.
 */
void setTraceCapPerThread(std::size_t cap);

/** The current per-thread retained-event cap (0 = unbounded). */
std::size_t traceCapPerThread();

/** Phase of a recorded trace event. */
enum class TracePhase : std::uint8_t {
    Complete,   ///< a span with start + duration ("X")
    Instant,    ///< a point event, e.g. a warning ("i")
    FlowStart,  ///< fan-out source ("s")
};

/** One recorded event, as exposed by traceSnapshot(). */
struct TraceEvent
{
    /** Span / event name. */
    std::string name;

    /** Free-form detail (warning text, ...); may be empty. */
    std::string detail;

    /** Event kind. */
    TracePhase phase = TracePhase::Complete;

    /** Start time, ns since traceBegin(). */
    std::uint64_t startNs = 0;

    /** Wall duration (Complete spans only). */
    std::uint64_t durationNs = 0;

    /** Duration minus time spent in child spans. */
    std::uint64_t selfNs = 0;

    /** Nesting depth on its thread (0 = top level). */
    std::uint32_t depth = 0;

    /** Tracer-assigned dense thread id (0 = first recording thread). */
    std::uint32_t tid = 0;

    /** Flow id linking fan-outs to chunks (0 = none). */
    std::uint64_t flowId = 0;
};

/**
 * RAII span. Constructing with tracing disabled records nothing and
 * costs one relaxed load; name strings are only materialised when
 * enabled.
 */
class SpanScope
{
  public:
    /** Open a span named by a literal. */
    explicit SpanScope(const char *name)
        : active(traceEnabled() &&
                 trace_detail::spanBegin(name, 0))
    {
    }

    /** Open a span with a dynamic name (e.g. per-config labels). */
    explicit SpanScope(std::string name)
        : active(traceEnabled() &&
                 trace_detail::spanBegin(std::move(name), 0))
    {
    }

    /** Open a chunk span bound to a fan-out's flow id. */
    SpanScope(const char *name, std::uint64_t flowId)
        : active(traceEnabled() &&
                 trace_detail::spanBegin(name, flowId))
    {
    }

    ~SpanScope()
    {
        if (active)
            trace_detail::spanEnd();
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    bool active;
};

/**
 * Monotonic steady-clock time in ns: the one clock the library times
 * with (spans, the pool's idle and wait counters, bench wall time).
 */
std::uint64_t nowNs();

/** Allocate a fresh flow id (never 0). */
std::uint64_t traceNewFlowId();

/**
 * Record a flow-start event on the calling thread (the fan-out
 * source); chunk spans carrying the same id become its targets.
 * No-op when tracing is disabled.
 */
void traceFlowStart(const char *name, std::uint64_t flowId);

/**
 * Record an instant event (a point in time, rendered as a marker).
 * Used for warnings so stray warn() calls show up in traces. No-op
 * when tracing is disabled.
 */
void traceInstant(const char *name, const std::string &detail);

/** Total recorded events across all threads. Requires quiescence. */
std::size_t traceEventCount();

/**
 * Copy out every recorded event (all threads, thread-major order).
 * Requires quiescence.
 */
std::vector<TraceEvent> traceSnapshot();

/**
 * Write the recorded events as Chrome trace-event JSON. Returns
 * false (after a warning) when the file cannot be opened or the
 * write or close fails. Requires quiescence.
 */
bool writeChromeTrace(const std::string &path);

/** Per-span-name rollup row (total vs self time). */
struct SpanRollup
{
    /** Span name. */
    std::string name;

    /** Times the span was entered. */
    std::uint64_t count = 0;

    /** Total wall ns across entries. */
    std::uint64_t totalNs = 0;

    /** Total ns minus time attributed to child spans. */
    std::uint64_t selfNs = 0;
};

/**
 * Every span closed since traceBegin(), by name, merged across
 * threads and sorted by descending self time. Exact: it is folded as
 * spans close, so neither a rollup-only recording nor the ring's
 * dropped events lose anything. Requires quiescence.
 */
std::vector<SpanRollup> traceRollup();

/** Human-readable rollup table (empty string when nothing traced). */
std::string traceRollupReport();

/**
 * Arm automatic export: writeChromeTrace(tracePath) and the metrics
 * registry's writeJson(metricsPath) run at flushObservability() (or
 * atexit, whichever comes first; the write happens once). Empty
 * paths disarm the corresponding export.
 */
void setTraceOutputPath(const std::string &tracePath);
void setMetricsOutputPath(const std::string &metricsPath);

/** Write any armed exports now (idempotent). */
void flushObservability();

} // namespace obs
} // namespace gws

#endif // GWS_OBS_TRACE_HH
