/**
 * @file
 * Test-only oracles of the texture-stream cache model: a brute-force
 * set-associative LRU cache, the straightforward one-access-at-a-time
 * stream loop built on it, and a pinned grid of streams whose results
 * are folded into one digest. test_cache, test_gpusim and
 * test_determinism share them.
 */

#ifndef GWS_TESTS_STREAM_REFERENCE_HH
#define GWS_TESTS_STREAM_REFERENCE_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <list>
#include <map>
#include <vector>

#include "gpusim/access_stream.hh"
#include "gpusim/cache.hh"
#include "util/rng.hh"

namespace gws {

/** Brute-force set-associative LRU reference. */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &c) : cfg(c), sets(c.sets()) {}

    bool
    access(std::uint64_t addr)
    {
        const std::uint64_t line = addr / cfg.lineBytes;
        const std::uint64_t set = line % sets;
        auto &lru = content[set]; // front = MRU
        for (auto it = lru.begin(); it != lru.end(); ++it) {
            if (*it == line) {
                lru.erase(it);
                lru.push_front(line);
                return true;
            }
        }
        lru.push_front(line);
        if (lru.size() > cfg.ways)
            lru.pop_back();
        return false;
    }

  private:
    CacheConfig cfg;
    std::uint64_t sets;
    std::map<std::uint64_t, std::list<std::uint64_t>> content;
};

/**
 * runTextureStream written as one loop that synthesizes an address,
 * runs it through the L1 and, on a miss, through the L2, with plain
 * `%` for every reduction and ReferenceCache for both levels.
 */
inline StreamResult
referenceTextureStream(const StreamParams &params,
                       const CacheConfig &l1_config,
                       const CacheConfig &l2_config,
                       std::uint64_t max_samples)
{
    StreamResult result;
    if (params.totalAccesses == 0 || params.footprintBytes == 0)
        return result;
    const std::uint64_t n = std::min(
        params.totalAccesses, std::max<std::uint64_t>(max_samples, 16));
    const double scale = static_cast<double>(params.totalAccesses) /
                         static_cast<double>(n);
    const std::uint64_t footprint = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(std::llround(
            static_cast<double>(params.footprintBytes) / scale)),
        l1_config.lineBytes);
    ReferenceCache l1(scale > 1.0 ? l1_config.scaledDown(scale)
                                  : l1_config);
    ReferenceCache l2(scale > 1.0 ? l2_config.scaledDown(scale)
                                  : l2_config);
    const std::uint64_t window = 2 * std::uint64_t{l1_config.lineBytes};
    const std::uint64_t creep = l1_config.lineBytes / 4;

    SplitMix64 rng(params.seed);
    std::uint64_t cursor = rng.next() % footprint;
    std::uint64_t l1_hits = 0, l2_accesses = 0, l2_hits = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t r = rng.next();
        const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
        std::uint64_t addr;
        if (u < params.locality) {
            addr = (cursor + r % window) % footprint;
            cursor = (cursor + creep) % footprint;
        } else {
            addr = r % footprint;
            cursor = addr;
        }
        if (l1.access(addr)) {
            ++l1_hits;
        } else {
            ++l2_accesses;
            if (l2.access(addr))
                ++l2_hits;
        }
    }
    result.simulatedAccesses = n;
    result.scale = scale;
    result.l1HitRate =
        static_cast<double>(l1_hits) / static_cast<double>(n);
    result.l2HitRate = l2_accesses
                           ? static_cast<double>(l2_hits) /
                                 static_cast<double>(l2_accesses)
                           : 1.0;
    result.l1Misses = static_cast<double>(n - l1_hits) * scale;
    result.l2Misses = static_cast<double>(l2_accesses - l2_hits) * scale;
    return result;
}

/** One stream of the pinned grid. */
struct StreamCase
{
    StreamParams params;
    CacheConfig l1;
    CacheConfig l2;
    std::uint64_t maxSamples = 0;
};

/**
 * The pinned grid: L1 ways {1,2,3,4,8} x L2 ways {1,4,5,16} x L2 sizes
 * {512 KiB, 1 MiB, 4 MiB}, each under max samples {16,100,512,4096}
 * (longer than one synthesis block, too) with total accesses below, at
 * and above the cap and far above it (both caches scaled down to one
 * set), footprints {64,100,127,128,200 B, 1 MiB, 256 MiB} and locality
 * {0, 0.5, 0.85, 1}. Every stream has its own seed.
 */
inline std::vector<StreamCase>
pinnedStreamGrid()
{
    std::vector<StreamCase> grid;
    std::uint64_t seed = 1;
    for (std::uint32_t l1_ways : {1u, 2u, 3u, 4u, 8u})
        for (std::uint32_t l2_ways : {1u, 4u, 5u, 16u})
            for (std::uint64_t l2_kib : {512u, 1024u, 4096u})
                for (std::uint64_t cap : {16u, 100u, 512u, 4096u})
                    for (std::uint64_t total :
                         {cap / 2 + 1, cap, 3 * cap + 7, cap << 24})
                        for (std::uint64_t footprint :
                             {64ull, 100ull, 127ull, 128ull, 200ull,
                              1ull << 20, 256ull << 20})
                            for (double locality : {0.0, 0.5, 0.85, 1.0}) {
                                StreamCase c;
                                c.params.totalAccesses = total;
                                c.params.footprintBytes = footprint;
                                c.params.locality = locality;
                                c.params.seed = mixSeed(seed++, total,
                                                        footprint);
                                c.l1 = CacheConfig{16 * 1024, 64, l1_ways};
                                c.l2 = CacheConfig{l2_kib * 1024, 64,
                                                   l2_ways};
                                c.maxSamples = cap;
                                grid.push_back(c);
                            }
    return grid;
}

/** FNV-1a over the bits of every field of every result, in order. */
inline std::uint64_t
streamDigest(const std::vector<StreamResult> &results)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto fold = [&](std::uint64_t word) {
        for (int b = 0; b < 8; ++b) {
            h ^= (word >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const StreamResult &r : results) {
        fold(r.simulatedAccesses);
        fold(std::bit_cast<std::uint64_t>(r.scale));
        fold(std::bit_cast<std::uint64_t>(r.l1HitRate));
        fold(std::bit_cast<std::uint64_t>(r.l2HitRate));
        fold(std::bit_cast<std::uint64_t>(r.l1Misses));
        fold(std::bit_cast<std::uint64_t>(r.l2Misses));
    }
    return h;
}

} // namespace gws

#endif // GWS_TESTS_STREAM_REFERENCE_HH
