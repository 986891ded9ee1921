/**
 * @file
 * Set-associative cache model with true-LRU replacement. Used for the
 * texture L1 and the GPU L2. The model is functional at line
 * granularity (tags only, no data) and collects hit/miss statistics;
 * timing is derived by the memory system from the statistics.
 *
 * A cache is reusable: reset(config) empties it and adopts a new
 * geometry in O(1) by bumping a generation counter (a line is valid
 * only while its stamp equals the cache's epoch). The line array only
 * ever grows, to the largest geometry the cache has held, so a caller
 * that resets one cache per short access stream pays neither an
 * allocation nor a clear per stream.
 */

#ifndef GWS_GPUSIM_CACHE_HH
#define GWS_GPUSIM_CACHE_HH

#include <cstdint>
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
    bool access(std::uint64_t address);

    /** True if the line holding address is resident (no side effect). */
    bool probe(std::uint64_t address) const;

    /** Statistics so far. */
    const CacheStats &stats() const { return statistics; }

    /**
     * Drop all lines, reset statistics and adopt the given geometry.
     * Grows the line array when the geometry needs more lines; never
     * shrinks or clears it.
     */
    void reset(const CacheConfig &config);

    /** Geometry. */
    const CacheConfig &config() const { return geometry; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        std::uint64_t stamp = 0; // valid iff stamp == epoch
    };

    std::uint64_t setIndex(std::uint64_t address) const;
    std::uint64_t tagOf(std::uint64_t address) const;

    CacheConfig geometry;
    int lineShift = 0; // log2(lineBytes)
    Divisor numSets{1};
    std::vector<Line> lines; // >= sets x ways, row-major
    std::uint64_t epoch = 0;
    std::uint64_t useCounter = 0;
    CacheStats statistics;
};

} // namespace gws

#endif // GWS_GPUSIM_CACHE_HH
