#include "runtime/thread_pool.hh"

#include <memory>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/runtime_config.hh"
#include "util/logging.hh"

namespace gws {

namespace {

/** Set while the current thread is inside workerMain(). */
thread_local bool on_worker = false;

obs::Counter &g_worker_idle_ns =
    obs::metricsRegistry().counter("runtime.workerIdleNs");

} // namespace

ThreadPool::ThreadPool(std::size_t workers)
    : targetWorkers(workers == 0 ? 1 : workers)
{
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

bool
ThreadPool::started() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return !workers.empty();
}

void
ThreadPool::startLocked()
{
    if (!workers.empty())
        return;
    stopping = false;
    workers.reserve(targetWorkers);
    for (std::size_t i = 0; i < targetWorkers; ++i)
        workers.emplace_back([this] { workerMain(); });
}

void
ThreadPool::submit(std::function<void()> task)
{
    GWS_ASSERT(!onWorkerThread(),
               "ThreadPool::submit from a pool worker; nested parallel "
               "loops must run inline");
    GWS_ASSERT(task, "ThreadPool::submit with an empty task");
    {
        std::lock_guard<std::mutex> lock(mutex);
        GWS_ASSERT(!stopping, "ThreadPool::submit during shutdown");
        startLocked();
        queue.push_back(std::move(task));
    }
    available.notify_one();
}

void
ThreadPool::shutdown()
{
    std::vector<std::thread> crew;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (workers.empty()) {
            queue.clear();
            return;
        }
        stopping = true;
        crew.swap(workers);
    }
    available.notify_all();
    for (std::thread &t : crew)
        t.join();
    std::lock_guard<std::mutex> lock(mutex);
    stopping = false;
}

void
ThreadPool::workerMain()
{
    on_worker = true;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        if (queue.empty() && !stopping) {
            const std::uint64_t t0 = obs::nowNs();
            available.wait(lock, [this] {
                return stopping || !queue.empty();
            });
            g_worker_idle_ns.add(obs::nowNs() - t0);
        }
        if (queue.empty()) {
            // stopping && drained: exit. (Queued work always runs
            // before the pool goes down.)
            break;
        }
        std::function<void()> task = std::move(queue.front());
        queue.pop_front();
        lock.unlock();
        task();
        lock.lock();
    }
    on_worker = false;
}

bool
ThreadPool::onWorkerThread()
{
    return on_worker;
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

} // namespace

ThreadPool &
globalThreadPool()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    const std::size_t want = resolvedThreadCount();
    if (g_pool && g_pool->workerCount() != want)
        g_pool.reset();
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(want);
    return *g_pool;
}

void
shutdownGlobalThreadPool()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    g_pool.reset();
}

} // namespace gws
