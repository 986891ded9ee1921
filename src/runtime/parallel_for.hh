/**
 * @file
 * Chunked parallel loops over index ranges, built on the global
 * ThreadPool, with a determinism contract the rest of the library
 * leans on:
 *
 *  - Chunk boundaries depend only on (range, grain) — never on the
 *    thread count — so the set of sub-ranges executed is identical on
 *    every machine and configuration.
 *  - parallelMap writes result[i] by index, and parallelReduce
 *    combines chunk partials in ascending chunk order, so
 *    floating-point results are bit-identical at any thread count.
 *  - Exceptions thrown by the body are caught per chunk and the
 *    lowest-index one is rethrown in the calling thread (also
 *    independent of scheduling).
 *
 * Small ranges (a single chunk), threads = 1, and loops entered from
 * inside a pool worker (nested parallelism) all run inline in the
 * calling thread with the same chunk structure. A nested loop entered
 * from the caller thread's own chunk is not on a pool worker, so it
 * fans out again: its chunks go to workers that have finished their
 * outer chunks. That rule stays on purpose. Running those loops inline
 * as well saved about 1 s more per characterize pass in a prototype,
 * but slowed validate by 5-11 % in 7 of 7 paired runs on a 4-vCPU VM:
 * validate's outer loops have few, uneven chunks, and the caller's
 * inner fan-out is what keeps the finished workers busy.
 *
 * Grain guidance: pass 0 to take RuntimeConfig::grainSize (right for
 * element costs in the ~100 ns..1 us range, e.g. feature-space
 * distance scans); pass an explicit small grain for heavyweight
 * elements (1 for whole frames / subset units, tens for draw-call
 * simulation at ~1 us each). Chunks should cost >= ~10 us so pool
 * overhead stays in the noise.
 */

#ifndef GWS_RUNTIME_PARALLEL_FOR_HH
#define GWS_RUNTIME_PARALLEL_FOR_HH

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "runtime/runtime_config.hh"

namespace gws {

/** Chunks a range of n indices splits into at a grain (0 = default). */
std::size_t chunkCountFor(std::size_t n, std::size_t grain);

/**
 * Run body(chunkBegin, chunkEnd) over [begin, end) split into
 * grain-sized chunks (grain 0 = RuntimeConfig::grainSize), in
 * parallel on the global pool. The call returns after every chunk has
 * executed; the lowest-index chunk exception (if any) is rethrown.
 */
void parallelChunks(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>
                        &body);

/**
 * Run body(bounds[s], bounds[s+1]) for every shard s of an explicit,
 * ascending bounds vector (bounds.size() - 1 shards; typically a
 * cost-balanced ShardPlan from partition/shards.hh), in parallel on
 * the global pool. The same determinism contract as parallelChunks
 * applies — shard boundaries come from the caller, never from the
 * thread count — and the same inline path handles threads = 1, a
 * single shard, and nested parallelism.
 */
void parallelShards(const std::vector<std::size_t> &bounds,
                    const std::function<void(std::size_t, std::size_t)>
                        &body);

/** Run fn(i) for every i in [begin, end); see parallelChunks. */
template <typename Fn>
void
parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
            Fn &&fn)
{
    const auto &f = fn;
    parallelChunks(begin, end, grain,
                   [&f](std::size_t b, std::size_t e) {
                       for (std::size_t i = b; i < e; ++i)
                           f(i);
                   });
}

/**
 * Map [begin, end) through fn into a vector, out[i - begin] = fn(i).
 * Results land at their index, so ordering is inherently stable.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMap(std::size_t begin, std::size_t end, std::size_t grain,
            Fn &&fn)
{
    std::vector<T> out(end > begin ? end - begin : 0);
    const auto &f = fn;
    parallelChunks(begin, end, grain,
                   [&f, &out, begin](std::size_t b, std::size_t e) {
                       for (std::size_t i = b; i < e; ++i)
                           out[i - begin] = f(i);
                   });
    return out;
}

/**
 * Chunked reduction: chunkFn(chunkBegin, chunkEnd) produces one
 * partial per chunk; partials are combined left-to-right in chunk
 * order via combine(acc, partial) starting from init. The combine
 * order is fixed by index — not completion order — which is what
 * makes floating-point reductions deterministic at any thread count.
 */
template <typename T, typename ChunkFn, typename CombineFn>
T
parallelReduce(std::size_t begin, std::size_t end, std::size_t grain,
               T init, ChunkFn &&chunkFn, CombineFn &&combine)
{
    if (end <= begin)
        return init;
    const std::size_t g = resolvedGrain(grain);
    const std::size_t chunks = chunkCountFor(end - begin, g);
    std::vector<T> partials(chunks);
    const auto &cf = chunkFn;
    parallelChunks(begin, end, g,
                   [&cf, &partials, begin, g](std::size_t b,
                                              std::size_t e) {
                       partials[(b - begin) / g] = cf(b, e);
                   });
    T acc = std::move(init);
    for (std::size_t c = 0; c < chunks; ++c)
        acc = combine(std::move(acc), std::move(partials[c]));
    return acc;
}

} // namespace gws

#endif // GWS_RUNTIME_PARALLEL_FOR_HH
