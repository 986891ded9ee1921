#include "runtime/parallel_for.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/thread_pool.hh"

namespace gws {

namespace {

obs::Counter &g_parallel_regions =
    obs::metricsRegistry().counter("runtime.parallelRegions");
obs::Counter &g_inline_regions =
    obs::metricsRegistry().counter("runtime.inlineRegions");
obs::Counter &g_chunks_executed =
    obs::metricsRegistry().counter("runtime.chunksExecuted");
obs::Counter &g_tasks_submitted =
    obs::metricsRegistry().counter("runtime.tasksSubmitted");
obs::Counter &g_submitter_wait_ns =
    obs::metricsRegistry().counter("runtime.submitterWaitNs");

/** Count a loop that ran inline with `chunks` chunks. */
void
noteInlineRegion(std::size_t chunks)
{
    g_inline_regions.increment();
    g_chunks_executed.add(chunks);
}

/**
 * State of one fan-out, heap-allocated because helper tasks can be
 * dequeued *after* the submitting call has returned (the submitter
 * only waits for all chunks to complete, not for every helper task to
 * start); late helpers find no chunk left and drop their reference.
 */
struct FanOut
{
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t chunks = 0;

    /** Explicit chunk bounds (parallelShards); empty = grain chunks. */
    std::vector<std::size_t> bounds;

    std::function<void(std::size_t, std::size_t)> body;

    /** Trace flow id linking the submitter to its chunks (0 = off). */
    std::uint64_t flowId = 0;

    /** Next chunk to claim. */
    std::atomic<std::size_t> next{0};

    std::mutex mutex;
    std::condition_variable allDone;

    /** Chunks finished (under mutex). */
    std::size_t completed = 0;

    /** Per-chunk exception, rethrown lowest-index-first. */
    std::vector<std::exception_ptr> errors;

    /** Claim and run chunks until none are left. */
    void
    drain()
    {
        for (;;) {
            const std::size_t c =
                next.fetch_add(1, std::memory_order_relaxed);
            if (c >= chunks)
                return;
            const std::size_t b =
                bounds.empty() ? begin + c * grain : bounds[c];
            const std::size_t e = bounds.empty()
                                      ? std::min(end, b + grain)
                                      : bounds[c + 1];
            try {
                obs::SpanScope chunkSpan("runtime.chunk", flowId);
                body(b, e);
            } catch (...) {
                errors[c] = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(mutex);
            if (++completed == chunks)
                allDone.notify_all();
        }
    }
};

/** Fan a prepared FanOut across the pool, wait, rethrow. */
void
runFanOut(const std::shared_ptr<FanOut> &fan)
{
    fan->errors.resize(fan->chunks);
    if (obs::traceEnabled()) {
        fan->flowId = obs::traceNewFlowId();
        obs::traceFlowStart("parallelFor", fan->flowId);
    }

    // One helper per extra thread that can hold a chunk; the caller
    // is the remaining worker.
    const std::size_t helpers =
        std::min(resolvedThreadCount(), fan->chunks) - 1;
    g_parallel_regions.increment();
    g_chunks_executed.add(fan->chunks);
    g_tasks_submitted.add(helpers);
    ThreadPool &pool = globalThreadPool();
    for (std::size_t h = 0; h < helpers; ++h)
        pool.submit([fan] { fan->drain(); });

    fan->drain();

    {
        std::unique_lock<std::mutex> lock(fan->mutex);
        if (fan->completed != fan->chunks) {
            const std::uint64_t t0 = obs::nowNs();
            fan->allDone.wait(lock, [&fan] {
                return fan->completed == fan->chunks;
            });
            g_submitter_wait_ns.add(obs::nowNs() - t0);
        }
    }

    // Take the chunk exceptions out of the shared state before
    // rethrowing: a late helper may still hold `fan` and drop the last
    // reference to it after this call returns, and it must not be the
    // thread that destroys the exception the caller is handling.
    const std::vector<std::exception_ptr> errors = std::move(fan->errors);
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
}

} // namespace

std::size_t
chunkCountFor(std::size_t n, std::size_t grain)
{
    if (n == 0)
        return 0;
    const std::size_t g = resolvedGrain(grain);
    return (n + g - 1) / g;
}

void
parallelChunks(std::size_t begin, std::size_t end, std::size_t grain,
               const std::function<void(std::size_t, std::size_t)> &body)
{
    if (end <= begin)
        return;
    const std::size_t n = end - begin;
    const std::size_t g = resolvedGrain(grain);
    const std::size_t chunks = (n + g - 1) / g;
    const std::size_t threads = resolvedThreadCount();

    if (threads <= 1 || chunks <= 1 || ThreadPool::onWorkerThread()) {
        // Inline path: same chunk structure, same execution order as
        // the chunk-index-ordered parallel reduction, so results are
        // identical to the fanned-out path by construction.
        noteInlineRegion(chunks);
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t b = begin + c * g;
            body(b, std::min(end, b + g));
        }
        return;
    }

    auto fan = std::make_shared<FanOut>();
    fan->begin = begin;
    fan->end = end;
    fan->grain = g;
    fan->chunks = chunks;
    fan->body = body;
    runFanOut(fan);
}

void
parallelShards(const std::vector<std::size_t> &bounds,
               const std::function<void(std::size_t, std::size_t)> &body)
{
    if (bounds.size() <= 1)
        return;
    const std::size_t chunks = bounds.size() - 1;
    const std::size_t threads = resolvedThreadCount();

    if (threads <= 1 || chunks <= 1 || ThreadPool::onWorkerThread()) {
        // Inline path: same shard structure in ascending order, so
        // results match the fanned-out path by construction.
        noteInlineRegion(chunks);
        for (std::size_t c = 0; c < chunks; ++c)
            body(bounds[c], bounds[c + 1]);
        return;
    }

    auto fan = std::make_shared<FanOut>();
    fan->chunks = chunks;
    fan->bounds = bounds;
    fan->body = body;
    runFanOut(fan);
}

} // namespace gws
