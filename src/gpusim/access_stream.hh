/**
 * @file
 * Deterministic texture access-stream synthesis.
 *
 * The simulator does not have real texel addresses, so it synthesizes a
 * representative stream per draw: accesses walk a footprint-sized
 * address space with a locality knob controlling how often the next
 * access lands near the previous one. The stream is a pure function of
 * the draw's own micro-architecture-independent properties (via a
 * stable seed), so simulating a draw in isolation yields exactly the
 * cost it has inside its frame — the property that makes subset
 * simulation sound.
 *
 * Every stream starts from empty caches: each thread keeps one L1/L2
 * pair and resets it (Cache::reset) before each stream, so no state
 * leaks from one draw's stream into the next.
 *
 * A stream runs in blocks of a fixed number of accesses, each in three
 * passes over one per-thread address block: synthesize the addresses,
 * run them through the L1 while keeping the misses at the block's
 * front, then replay those misses through the L2. No branch depends
 * on the local-vs-jump draw or on a hit or miss, which a branch
 * predictor cannot learn. The L2 sees the same L1-miss sequence as an
 * access-by-access walk, so the result is that walk's bit for bit.
 *
 * Long streams are set-sampled: at most maxSamples accesses are
 * simulated against caches scaled down by the same factor, which
 * preserves footprint-to-capacity ratios.
 */

#ifndef GWS_GPUSIM_ACCESS_STREAM_HH
#define GWS_GPUSIM_ACCESS_STREAM_HH

#include <cstdint>

#include "gpusim/cache.hh"

namespace gws {

/** Parameters of one draw's synthesized texture stream. */
struct StreamParams
{
    /** Total texture accesses the draw performs. */
    std::uint64_t totalAccesses = 0;

    /** Bytes of texture data the draw can touch. */
    std::uint64_t footprintBytes = 0;

    /** Spatial locality in [0, 1]. */
    double locality = 0.85;

    /** Stable per-draw seed. */
    std::uint64_t seed = 0;
};

/** Result of running a stream through the two-level texture hierarchy. */
struct StreamResult
{
    /** Accesses actually simulated (after sampling). */
    std::uint64_t simulatedAccesses = 0;

    /** Scale factor from simulated back to total accesses. */
    double scale = 1.0;

    /** L1 hit rate over the simulated stream. */
    double l1HitRate = 1.0;

    /** L2 hit rate over L1 misses. */
    double l2HitRate = 1.0;

    /** Estimated full-stream L1 misses (scaled). */
    double l1Misses = 0.0;

    /** Estimated full-stream L2 misses, i.e. DRAM line fills (scaled). */
    double l2Misses = 0.0;
};

/**
 * Synthesize the stream described by params and run it through a
 * two-level hierarchy with the given geometries. maxSamples bounds the
 * simulated length; when sampling kicks in, both caches are scaled
 * down by the sampling factor.
 */
StreamResult runTextureStream(const StreamParams &params,
                              const CacheConfig &l1_config,
                              const CacheConfig &l2_config,
                              std::uint64_t max_samples);

/**
 * Stable 64-bit hash of a draw's stream-relevant fields; used as the
 * stream seed. Exposed for tests.
 */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b, std::uint64_t c);

} // namespace gws

#endif // GWS_GPUSIM_ACCESS_STREAM_HH
