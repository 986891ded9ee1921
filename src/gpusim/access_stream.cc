#include "gpusim/access_stream.hh"

#include <algorithm>
#include <cmath>

#include "util/divisor.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace gws {

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    SplitMix64 sm(a * 0x9e3779b97f4a7c15ULL ^ b * 0xc2b2ae3d27d4eb4fULL ^
                  c * 0x165667b19e3779f9ULL);
    return sm.next();
}

StreamResult
runTextureStream(const StreamParams &params, const CacheConfig &l1_config,
                 const CacheConfig &l2_config, std::uint64_t max_samples)
{
    GWS_ASSERT(params.locality >= 0.0 && params.locality <= 1.0,
               "locality out of range: ", params.locality);
    StreamResult result;
    if (params.totalAccesses == 0 || params.footprintBytes == 0)
        return result;

    const std::uint64_t n =
        std::min(params.totalAccesses, std::max<std::uint64_t>(
                                           max_samples, 16));
    const double scale = static_cast<double>(params.totalAccesses) /
                         static_cast<double>(n);

    // Set-sample: shrink footprint and caches together so the
    // footprint-to-capacity ratio of the full stream is preserved.
    const Divisor footprint(std::max<std::uint64_t>(
        static_cast<std::uint64_t>(
            std::llround(static_cast<double>(params.footprintBytes) /
                         scale)),
        l1_config.lineBytes));
    // One cache pair per thread, reset before every stream: each
    // stream starts from empty caches, and a thread allocates only
    // when it meets a larger geometry than it has held.
    thread_local Cache l1(l1_config);
    thread_local Cache l2(l2_config);
    l1.reset(scale > 1.0 ? l1_config.scaledDown(scale) : l1_config);
    l2.reset(scale > 1.0 ? l2_config.scaledDown(scale) : l2_config);
    // The line size is a power of two, so the local window of two
    // lines is a mask.
    const std::uint64_t window_mask =
        2 * std::uint64_t{l1_config.lineBytes} - 1;
    const std::uint64_t creep = l1_config.lineBytes / 4;

    SplitMix64 rng(params.seed);
    std::uint64_t cursor = footprint.remainder(rng.next());
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_hits = 0;

    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t r = rng.next();
        // High bits decide local-vs-jump; low bits supply the offset.
        const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
        std::uint64_t addr;
        if (u < params.locality) {
            // Local access: stay within a small window around the
            // cursor (mostly same or adjacent line) and creep forward,
            // emulating rasterization order walking texel space.
            addr = footprint.remainder(cursor + (r & window_mask));
            cursor = footprint.remainder(cursor + creep);
        } else {
            // Non-local access: jump anywhere in the footprint
            // (mip transitions, dependent reads, atlas jumps).
            addr = footprint.remainder(r);
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
    result.l1HitRate = static_cast<double>(l1_hits) /
                       static_cast<double>(n);
    result.l2HitRate = l2_accesses
                           ? static_cast<double>(l2_hits) /
                                 static_cast<double>(l2_accesses)
                           : 1.0;
    result.l1Misses = static_cast<double>(n - l1_hits) * scale;
    result.l2Misses = static_cast<double>(l2_accesses - l2_hits) * scale;
    return result;
}

} // namespace gws
