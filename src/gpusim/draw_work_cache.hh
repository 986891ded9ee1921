/**
 * @file
 * Process-global memo cache of clock-independent draw work.
 *
 * The performance model is per-draw pure: DrawWork is a function of
 * the draw call, the resources and shaders it binds, and the
 * *capacity* parameters of the GpuConfig (cache geometry, sampling
 * cap, op weights) — never of any clock. The experiment harnesses
 * re-simulate the same draws many times (subset vs baseline vs ground
 * truth, every point of a frequency sweep, every restart of a
 * pathfinding study), so memoizing DrawWork by a content hash of
 * exactly those inputs turns each repeat into a table lookup while
 * returning bit-identical results by construction: a hit returns the
 * value a fresh simulation produced.
 *
 * The key hashes the *resolved* inputs (shader instruction mixes,
 * texture byte sizes, render-target depth) rather than trace-local
 * ids, so it is valid across traces, trace copies, and subset
 * extractions. Keys are 128-bit (two independently seeded mixes of
 * the same words); a collision needs ~2^64 distinct draws.
 *
 * The cache holds at most drawWorkCacheCapacity entries, 1/64 of them
 * in each of its 64 shards; an insert that finds its shard full
 * clears that shard first, so a working set larger than the cap keeps
 * caching its recent draws. GpuSimulator::computeDrawWorkUncached is
 * the memo-off path. Hit/miss totals feed the runtime counters
 * (`--runtime-stats`).
 */

#ifndef GWS_GPUSIM_DRAW_WORK_CACHE_HH
#define GWS_GPUSIM_DRAW_WORK_CACHE_HH

#include <cstdint>
#include <cstddef>

#include "gpusim/gpu_config.hh"
#include "trace/trace.hh"

namespace gws {

struct DrawWork;

/** 128-bit content key of one (draw, capacity-config) pair. */
struct DrawWorkKey
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool operator==(const DrawWorkKey &other) const = default;
};

/**
 * Hash of the capacity (clock-independent) GpuConfig parameters that
 * DrawWork depends on. Configs differing only in clocks or throughput
 * rates share draw work — that sharing is what makes frequency sweeps
 * hit the cache across design points.
 */
std::uint64_t capacityConfigHash(const GpuConfig &config);

/**
 * Content key of one draw under a capacity hash: the draw's own
 * fields plus the resolved shader mixes and resource descriptors.
 */
DrawWorkKey drawWorkKey(const Trace &trace, const DrawCall &draw,
                        std::uint64_t capacityHash);

/** Most entries the cache holds at once. */
constexpr std::size_t drawWorkCacheCapacity = 256 * 1024;

/** Look up a memoized DrawWork; true and fills *out on a hit. */
bool drawWorkCacheLookup(const DrawWorkKey &key, DrawWork *out);

/** Memoize a freshly computed DrawWork, flushing its shard if full. */
void drawWorkCacheInsert(const DrawWorkKey &key, const DrawWork &work);

/** Entries currently cached. */
std::size_t drawWorkCacheSize();

/** Drop every cached entry (tests and benchmarks). */
void drawWorkCacheClear();

} // namespace gws

#endif // GWS_GPUSIM_DRAW_WORK_CACHE_HH
