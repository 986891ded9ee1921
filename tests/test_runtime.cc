/**
 * @file
 * Unit tests for the parallel execution runtime: configuration
 * resolution, range/grain edge cases, ordered reduction, exception
 * propagation, nested (reentrant) loops, pool shutdown/restart, and
 * the registry counters the loops bump.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "runtime/runtime.hh"
#include "util/rng.hh"

namespace gws {
namespace {

/**
 * Every test runs against an explicit configuration and restores the
 * previous one, so the suite is immune to the GWS_THREADS environment
 * it happens to be launched under.
 */
class RuntimeTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved = runtimeConfig(); }

    void TearDown() override
    {
        setRuntimeConfig(saved);
        shutdownGlobalThreadPool();
    }

    void
    useThreads(std::size_t threads, std::size_t grain = 0)
    {
        RuntimeConfig cfg = saved;
        cfg.threads = threads;
        if (grain > 0)
            cfg.grainSize = grain;
        setRuntimeConfig(cfg);
    }

    RuntimeConfig saved;
};

/** Current value of the registry counter `name`. */
std::uint64_t
counter(const char *name)
{
    return obs::metricsRegistry().counter(name).value();
}

// ------------------------------------------------------------- config --

TEST_F(RuntimeTest, ResolvedThreadCountNeverZero)
{
    useThreads(0);
    EXPECT_GE(resolvedThreadCount(), 1u);
    EXPECT_EQ(resolvedThreadCount(), hardwareThreads());
    useThreads(5);
    EXPECT_EQ(resolvedThreadCount(), 5u);
}

TEST_F(RuntimeTest, ResolvedGrainFallsBackToConfig)
{
    useThreads(1, 77);
    EXPECT_EQ(resolvedGrain(0), 77u);
    EXPECT_EQ(resolvedGrain(9), 9u);
}

TEST_F(RuntimeTest, ChunkCountMath)
{
    EXPECT_EQ(chunkCountFor(0, 8), 0u);
    EXPECT_EQ(chunkCountFor(1, 8), 1u);
    EXPECT_EQ(chunkCountFor(8, 8), 1u);
    EXPECT_EQ(chunkCountFor(9, 8), 2u);
    EXPECT_EQ(chunkCountFor(17, 8), 3u);
}

// -------------------------------------------------------- parallelFor --

TEST_F(RuntimeTest, EmptyRangeRunsNothing)
{
    useThreads(4);
    std::atomic<int> calls{0};
    parallelFor(5, 5, 1, [&](std::size_t) { ++calls; });
    parallelFor(7, 3, 1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST_F(RuntimeTest, SingleElementRange)
{
    useThreads(4);
    std::vector<int> hit(1, 0);
    parallelFor(0, 1, 1, [&](std::size_t i) { hit[i] = 1; });
    EXPECT_EQ(hit[0], 1);
}

TEST_F(RuntimeTest, CoversEveryIndexExactlyOnce)
{
    for (std::size_t grain : {1ul, 3ul, 64ul, 1000ul, 5000ul}) {
        useThreads(4);
        const std::size_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        parallelFor(0, n, grain, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " g=" << grain;
    }
}

TEST_F(RuntimeTest, GrainLargerThanRangeRunsInline)
{
    useThreads(8);
    obs::metricsRegistry().resetPrefix("runtime.");
    std::atomic<int> calls{0};
    parallelFor(0, 10, 1000, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 10);
    EXPECT_EQ(counter("runtime.parallelRegions"), 0u);
    EXPECT_EQ(counter("runtime.inlineRegions"), 1u);
    EXPECT_EQ(counter("runtime.chunksExecuted"), 1u);
}

TEST_F(RuntimeTest, FansOutWhenChunksAndThreadsAllow)
{
    useThreads(4);
    obs::metricsRegistry().resetPrefix("runtime.");
    std::atomic<int> calls{0};
    parallelFor(0, 100, 10, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 100);
    EXPECT_EQ(counter("runtime.parallelRegions"), 1u);
    EXPECT_EQ(counter("runtime.chunksExecuted"), 10u);
    EXPECT_EQ(counter("runtime.tasksSubmitted"), 3u);
}

TEST_F(RuntimeTest, ThreadsOneRunsInlineWithSameChunking)
{
    useThreads(1);
    obs::metricsRegistry().resetPrefix("runtime.");
    std::atomic<int> calls{0};
    parallelFor(0, 100, 10, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 100);
    EXPECT_EQ(counter("runtime.parallelRegions"), 0u);
    EXPECT_EQ(counter("runtime.inlineRegions"), 1u);
    EXPECT_EQ(counter("runtime.chunksExecuted"), 10u);
}

// -------------------------------------------------- map & reduction --

TEST_F(RuntimeTest, ParallelMapIsIndexOrdered)
{
    useThreads(8);
    const std::vector<std::size_t> out = parallelMap<std::size_t>(
        10, 1010, 7, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 1000u);
    for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], (i + 10) * (i + 10));
}

TEST_F(RuntimeTest, ReductionIsBitIdenticalAcrossThreadCounts)
{
    // Floating-point sums at a fixed grain must not depend on the
    // thread count — the runtime's core determinism contract.
    Rng rng(123);
    std::vector<double> xs(10000);
    for (double &x : xs)
        x = rng.uniform() * 1e6 - 5e5;

    auto sum = [&]() {
        return parallelReduce<double>(
            0, xs.size(), 64, 0.0,
            [&](std::size_t b, std::size_t e) {
                double s = 0.0;
                for (std::size_t i = b; i < e; ++i)
                    s += xs[i];
                return s;
            },
            [](double a, double b) { return a + b; });
    };

    useThreads(1);
    const double s1 = sum();
    useThreads(2);
    const double s2 = sum();
    useThreads(8);
    const double s8 = sum();
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1, s8);
}

TEST_F(RuntimeTest, ReduceEmptyRangeReturnsInit)
{
    useThreads(4);
    const double r = parallelReduce<double>(
        3, 3, 8, 42.0,
        [](std::size_t, std::size_t) { return 1.0; },
        [](double a, double b) { return a + b; });
    EXPECT_EQ(r, 42.0);
}

// --------------------------------------------------------- exceptions --

TEST_F(RuntimeTest, ExceptionPropagatesToSubmitter)
{
    useThreads(4);
    EXPECT_THROW(
        parallelFor(0, 1000, 10,
                    [](std::size_t i) {
                        if (i == 777)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
}

TEST_F(RuntimeTest, LowestChunkExceptionWinsRegardlessOfSchedule)
{
    useThreads(8);
    for (int round = 0; round < 5; ++round) {
        try {
            parallelFor(0, 800, 10, [](std::size_t i) {
                if (i == 111)
                    throw std::runtime_error("first");
                if (i == 700)
                    throw std::runtime_error("second");
            });
            FAIL() << "no exception propagated";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "first");
        }
    }
}

TEST_F(RuntimeTest, PoolSurvivesAnException)
{
    useThreads(4);
    EXPECT_THROW(parallelFor(0, 100, 1,
                             [](std::size_t) {
                                 throw std::runtime_error("x");
                             }),
                 std::runtime_error);
    // The pool must still schedule follow-up work correctly.
    std::atomic<int> calls{0};
    parallelFor(0, 100, 1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 100);
}

// ------------------------------------------------------------ nesting --

TEST_F(RuntimeTest, NestedLoopsRunInlineAndStayCorrect)
{
    useThreads(4);
    const std::size_t rows = 32, cols = 100;
    std::vector<std::vector<int>> grid(rows, std::vector<int>(cols, 0));
    parallelFor(0, rows, 1, [&](std::size_t r) {
        // Inner loop: on a pool worker this degrades to inline
        // execution instead of deadlocking on the queue.
        parallelFor(0, cols, 8, [&](std::size_t c) { grid[r][c] = 1; });
    });
    for (const auto &row : grid)
        for (int v : row)
            ASSERT_EQ(v, 1);
}

TEST_F(RuntimeTest, NestedReduceMatchesSerial)
{
    useThreads(4);
    const std::vector<double> sums = parallelMap<double>(
        0, 16, 1, [](std::size_t r) {
            return parallelReduce<double>(
                0, 1000, 64, 0.0,
                [r](std::size_t b, std::size_t e) {
                    double s = 0.0;
                    for (std::size_t i = b; i < e; ++i)
                        s += static_cast<double>(i * (r + 1));
                    return s;
                },
                [](double a, double b) { return a + b; });
        });
    for (std::size_t r = 0; r < sums.size(); ++r)
        EXPECT_EQ(sums[r], 499500.0 * static_cast<double>(r + 1));
}

// --------------------------------------------------- pool lifecycle --

TEST_F(RuntimeTest, PoolStartsLazily)
{
    useThreads(4);
    shutdownGlobalThreadPool();
    EXPECT_FALSE(globalThreadPool().started());
    parallelFor(0, 100, 10, [](std::size_t) {});
    EXPECT_TRUE(globalThreadPool().started());
}

TEST_F(RuntimeTest, ShutdownAndRestart)
{
    useThreads(4);
    std::atomic<int> calls{0};
    parallelFor(0, 100, 10, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 100);

    shutdownGlobalThreadPool();

    // Next loop restarts a fresh crew transparently.
    parallelFor(0, 100, 10, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 200);
    EXPECT_TRUE(globalThreadPool().started());
}

TEST_F(RuntimeTest, ReconfiguringThreadCountResizesPool)
{
    useThreads(2);
    parallelFor(0, 100, 10, [](std::size_t) {});
    EXPECT_EQ(globalThreadPool().workerCount(), 2u);
    useThreads(6);
    EXPECT_EQ(globalThreadPool().workerCount(), 6u);
}

TEST_F(RuntimeTest, WorkActuallyRunsOffThread)
{
    useThreads(4);
    std::mutex m;
    std::set<std::thread::id> ids;
    parallelFor(0, 64, 1, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lock(m);
        ids.insert(std::this_thread::get_id());
    });
    // At least the submitter participated; on multi-core hosts the
    // helpers do too. Never *more* threads than configured.
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), 5u);
}

} // namespace
} // namespace gws
