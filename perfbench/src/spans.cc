#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

/** One thread's spans; owned by the registry, appended only by it. */
struct ThreadBuffer
{
    std::uint32_t tid = 0;
    std::uint64_t nextId = 0;
    std::vector<Span> spans;
};

/**
 * Every thread's buffer. Never destroyed: pool workers may outlive
 * static destruction, and they must never see a dead registry.
 */
struct Registry
{
    std::mutex mutex;
    std::vector<ThreadBuffer *> buffers; // guarded by mutex
};

Registry &
registry()
{
    static Registry *r = new Registry;
    return *r;
}

std::atomic<bool> recordingOn{false};
std::atomic<std::uint64_t> nextOp{0};

thread_local ThreadBuffer *threadBuffer = nullptr;
thread_local SpanContext threadContext;

ThreadBuffer &
localBuffer()
{
    if (threadBuffer == nullptr) {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        auto *b = new ThreadBuffer;
        b->tid = static_cast<std::uint32_t>(r.buffers.size());
        r.buffers.push_back(b);
        threadBuffer = b;
    }
    return *threadBuffer;
}

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
setRecording(bool on)
{
    localBuffer(); // the first caller (the main thread) becomes tid 0
    recordingOn.store(on, std::memory_order_relaxed);
}

SpanContext
currentContext()
{
    return threadContext;
}

void
clearSpans()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (ThreadBuffer *b : r.buffers)
        b->spans.clear();
}

std::vector<Span>
collectSpans()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<Span> out;
    for (const ThreadBuffer *b : r.buffers)
        out.insert(out.end(), b->spans.begin(), b->spans.end());
    return out;
}

SpanScope::SpanScope(const char *span_name) : name(span_name)
{
    if (!recordingOn.load(std::memory_order_relaxed))
        return;
    ThreadBuffer &b = localBuffer();
    id = (static_cast<std::uint64_t>(b.tid + 1) << 40) | ++b.nextId;
    saved = threadContext;
    threadContext.parent = id;
    startNs = nowNs();
}

SpanScope::~SpanScope()
{
    if (id == 0)
        return;
    const std::uint64_t end = nowNs();
    threadContext = saved;
    Span s;
    s.name = name;
    s.id = id;
    s.parent = saved.parent;
    s.op = saved.op;
    s.tid = threadBuffer->tid;
    s.startNs = startNs;
    s.endNs = end;
    s.items = items;
    threadBuffer->spans.push_back(s);
}

OperationScope::OperationScope(const char *name)
    : savedOp(threadContext.op)
{
    threadContext.op = nextOp.fetch_add(1, std::memory_order_relaxed) + 1;
    span.emplace(name);
}

OperationScope::~OperationScope()
{
    span.reset();
    threadContext.op = savedOp;
}

AdoptContext::AdoptContext(const SpanContext &ctx) : saved(threadContext)
{
    threadContext = ctx;
}

AdoptContext::~AdoptContext()
{
    threadContext = saved;
}

std::map<std::string, LayerTotals>
layerTotals(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent != 0)
            children[spans[i].parent].push_back(i);

    std::map<std::string, LayerTotals> out;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const Span &s : spans) {
        // Covered part of [start, end): union of the children's
        // clipped intervals (parallel children overlap each other).
        std::uint64_t covered = 0;
        if (auto it = children.find(s.id); it != children.end()) {
            iv.clear();
            for (std::size_t c : it->second) {
                const std::uint64_t lo =
                    std::max(s.startNs, spans[c].startNs);
                const std::uint64_t hi = std::min(s.endNs, spans[c].endNs);
                if (hi > lo)
                    iv.emplace_back(lo, hi);
            }
            std::sort(iv.begin(), iv.end());
            std::uint64_t reach = 0;
            for (const auto &[lo, hi] : iv) {
                const std::uint64_t from = std::max(lo, reach);
                if (hi > from)
                    covered += hi - from;
                reach = std::max(reach, hi);
            }
        }
        LayerTotals &t = out[s.name];
        const std::uint64_t dur = s.endNs - s.startNs;
        t.selfNs += dur - std::min(dur, covered);
        t.items += s.items;
    }
    return out;
}

bool
writeChromeTrace(const std::vector<Span> &spans, const std::string &path)
{
    FILE *fp = std::fopen(path.c_str(), "w");
    if (fp == nullptr)
        return false;
    std::uint64_t t0 = ~std::uint64_t{0};
    for (const Span &s : spans)
        t0 = std::min(t0, s.startNs);
    std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [", fp);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(fp,
                     "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": "
                     "%llu, \"parent\": %llu, \"op\": %llu, "
                     "\"items\": %llu}}",
                     i ? "," : "", s.name, s.tid,
                     static_cast<double>(s.startNs - t0) * 1e-3,
                     static_cast<double>(s.endNs - s.startNs) * 1e-3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.op),
                     static_cast<unsigned long long>(s.items));
    }
    std::fputs("\n]}\n", fp);
    return std::fclose(fp) == 0;
}

} // namespace perfbench
