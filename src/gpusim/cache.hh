/**
 * @file
 * Set-associative cache model with true-LRU replacement. Used for the
 * texture L1 and the GPU L2. The model is functional at line
 * granularity (tags only, no data) and collects hit/miss statistics;
 * timing is derived by the memory system from the statistics.
 *
 * Each set keeps its tags in recency order, most recent first. An
 * access scans the set once with no branch on the tags: every way up
 * to the first one that holds the tag takes the tag of the way ahead
 * of it (the first way takes the accessed tag), and the ways behind
 * keep theirs. So a hit moves its tag to the front, and a miss slides
 * the whole set down and drops the last way, the LRU line.
 *
 * A set has no empty ways, because no tag value can mark one (with
 * 1-byte lines and one set every 64-bit value is a tag). On its first
 * touch after a reset, a miss, every way of the set takes the missing
 * tag. The copies sit behind the first way, and the scan stops at the
 * first way that holds a tag, so a copy never decides an access; a
 * miss drops the last copy, which is what filling an empty way does.
 * The hit/miss sequence is that of LRU filling empty ways first.
 *
 * access() is in this header so that it inlines into the
 * texture-stream passes. The presets' 4-way L1 and 16-way L2 run an
 * instantiation of the same code with the ways fixed at compile time.
 *
 * A cache is reusable: reset(config) empties it and adopts a new
 * geometry in O(1) by bumping an epoch; a set whose stamp is not the
 * epoch is refilled on its first touch. The tag and stamp arrays only
 * ever grow, to the largest geometry the cache has held, so a caller
 * that resets one cache per short access stream pays neither an
 * allocation nor a clear per stream.
 */

#ifndef GWS_GPUSIM_CACHE_HH
#define GWS_GPUSIM_CACHE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "util/divisor.hh"

namespace gws {

/** Geometry of a cache. */
struct CacheConfig
{
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 16 * 1024;

    /** Line size in bytes (power of two). */
    std::uint32_t lineBytes = 64;

    /** Associativity. */
    std::uint32_t ways = 4;

    /** Number of sets implied by the geometry (>= 1). */
    std::uint64_t sets() const;

    /**
     * A miniature cache with the same ways/line but capacity divided
     * by factor (floored at one set). Used for set-sampled simulation
     * of long access streams.
     */
    CacheConfig scaledDown(double factor) const;

    /** Equality over all fields. */
    bool operator==(const CacheConfig &other) const = default;
};

/** Hit/miss counters of one cache instance. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;

    /** Misses (accesses - hits). */
    std::uint64_t misses() const { return accesses - hits; }

    /** Hit rate in [0, 1]; 1 when there were no accesses. */
    double hitRate() const;
};

/**
 * Functional set-associative LRU cache. Addresses are byte addresses;
 * the cache tracks residency at line granularity.
 */
class Cache
{
  public:
    /** Construct with the given geometry. */
    explicit Cache(const CacheConfig &config);

    /**
     * Access one byte address; returns true on hit. On miss the line
     * is filled, evicting the set's LRU line if needed.
     */
    [[gnu::always_inline]] bool
    access(std::uint64_t address)
    {
        switch (geometry.ways) {
        case 4:
            return accessWays<4>(address);
        case 16:
            return accessWays<16>(address);
        default:
            return accessWays<0>(address);
        }
    }

    /** True if the line holding address is resident (no side effect). */
    bool probe(std::uint64_t address) const;

    /** Statistics so far. */
    const CacheStats &stats() const { return statistics; }

    /**
     * Drop all lines, reset statistics and adopt the given geometry.
     * Grows the tag and stamp arrays when the geometry needs more;
     * never shrinks or clears them.
     */
    void reset(const CacheConfig &config);

    /** Geometry. */
    const CacheConfig &config() const { return geometry; }

  private:
    /** access() with Ways ways, or geometry.ways when Ways is 0. */
    template <std::uint32_t Ways>
    [[gnu::always_inline]] bool
    accessWays(std::uint64_t address)
    {
        const std::uint64_t ways = Ways ? Ways : geometry.ways;
        const std::uint64_t line = address >> lineShift;
        const std::uint64_t tag = numSets.quotient(line);
        const std::uint64_t set = line - tag * setCount;
        std::uint64_t *const tags = &tagArray[set * ways];
        ++statistics.accesses;
        if (setStamp[set] != epoch) {
            setStamp[set] = epoch;
            forEachWay<Ways>(ways, [&](std::uint64_t w) { tags[w] = tag; });
            return false;
        }
        // All ones from the first way that holds the tag on.
        std::uint64_t seen = 0;
        std::uint64_t carry = tag;
        forEachWay<Ways>(ways, [&](std::uint64_t w) {
            const std::uint64_t held = tags[w];
            tags[w] = (held & seen) | (carry & ~seen);
            seen |= 0 - std::uint64_t{held == tag};
            carry = held;
        });
        statistics.hits += seen & 1;
        return seen != 0;
    }

    /** body(w) for w in [0, ways), unrolled when Ways fixes ways. */
    template <std::uint32_t Ways, typename Body>
    [[gnu::always_inline]] static void
    forEachWay(std::uint64_t ways, Body &&body)
    {
        if constexpr (Ways == 0) {
            for (std::uint64_t w = 0; w < ways; ++w)
                body(w);
        } else {
            [&]<std::size_t... W>(std::index_sequence<W...>) {
                (body(std::uint64_t{W}), ...);
            }(std::make_index_sequence<Ways>{});
        }
    }

    CacheConfig geometry;
    int lineShift = 0; // log2(lineBytes)
    std::uint64_t setCount = 1;
    Divisor numSets{1};
    std::vector<std::uint64_t> tagArray; // >= sets x ways, row-major
    std::vector<std::uint64_t> setStamp; // set filled iff stamp == epoch
    std::uint64_t epoch = 0;
    CacheStats statistics;
};

} // namespace gws

#endif // GWS_GPUSIM_CACHE_HH
