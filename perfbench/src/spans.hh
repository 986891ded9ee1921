/**
 * @file
 * The benchmark's own span recorder. Spans are opened in the harness
 * around each call into a library module, never inside the library.
 * Each span records a name, start, end, its parent span and the
 * operation it belongs to (spans of one operation share an id).
 *
 * Recording is off unless enabled, and then costs two clock reads
 * plus an append to a per-thread buffer: no lock on the hot path.
 * Spans stay in memory; the harness folds them into per-layer self
 * times and writes them out once, as Chrome trace-event JSON, at
 * exit. A layer's self time is its span's duration minus the part of
 * that interval its child spans cover (children may run on other
 * threads, inside a parallel region).
 */

#ifndef GWS_PERFBENCH_SPANS_HH
#define GWS_PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** Steady-clock nanoseconds. */
std::uint64_t nowNs();

/** One recorded span. */
struct Span
{
    /** Layer name, e.g. "cluster.leader" (a string literal). */
    const char *name = "";

    /** Globally unique span id (never 0). */
    std::uint64_t id = 0;

    /** Id of the enclosing span, 0 for a root. */
    std::uint64_t parent = 0;

    /** Operation id shared by every span of one operation. */
    std::uint64_t op = 0;

    /** Small dense thread number (0 = the harness's main thread). */
    std::uint32_t tid = 0;

    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;

    /** Work items the call processed (draws, points, ...). */
    std::uint64_t items = 0;
};

/** Where new spans attach: the open span and operation of a thread. */
struct SpanContext
{
    std::uint64_t parent = 0;
    std::uint64_t op = 0;
};

/** Turn recording on or off (off by default). */
void setRecording(bool on);

/** The calling thread's current context. */
SpanContext currentContext();

/** Drop every recorded span (all threads). Call between passes. */
void clearSpans();

/**
 * Every span recorded so far, all threads. Call only while no
 * parallel region is running (between calls into the library).
 */
std::vector<Span> collectSpans();

/** RAII span around one call into a library module. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name);
    ~SpanScope();

    /** Record how many work items the call processed. */
    void setItems(std::uint64_t n) { items = n; }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    const char *name;
    std::uint64_t id = 0;
    std::uint64_t startNs = 0;
    std::uint64_t items = 0;
    SpanContext saved;
};

/**
 * RAII operation: a fresh operation id for every span opened on this
 * thread (and on workers adopting its context) until it closes, plus
 * a span of its own named after the operation.
 */
class OperationScope
{
  public:
    explicit OperationScope(const char *name);
    ~OperationScope();

    OperationScope(const OperationScope &) = delete;
    OperationScope &operator=(const OperationScope &) = delete;

  private:
    std::uint64_t savedOp = 0;
    std::optional<SpanScope> span;
};

/**
 * Adopt a context captured on the submitting thread for the duration
 * of one parallel chunk, so spans a worker opens link to the span
 * that fanned the work out.
 */
class AdoptContext
{
  public:
    explicit AdoptContext(const SpanContext &ctx);
    ~AdoptContext();

    AdoptContext(const AdoptContext &) = delete;
    AdoptContext &operator=(const AdoptContext &) = delete;

  private:
    SpanContext saved;
};

/** Per-layer totals folded from a span set. */
struct LayerTotals
{
    /** Sum of self times in ns (busy time; may exceed wall time). */
    std::uint64_t selfNs = 0;

    /** Sum of recorded work items. */
    std::uint64_t items = 0;
};

/** Fold spans into per-name totals (self time = duration − children). */
std::map<std::string, LayerTotals>
layerTotals(const std::vector<Span> &spans);

/**
 * Write spans as Chrome trace-event JSON ("X" events, microsecond
 * timestamps relative to the first span; args carry id, parent, op
 * and items), the format gws_report --trace reads. Returns false if
 * the file cannot be written.
 */
bool writeChromeTrace(const std::vector<Span> &spans,
                      const std::string &path);

} // namespace perfbench

#endif // GWS_PERFBENCH_SPANS_HH
