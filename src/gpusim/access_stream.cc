#include "gpusim/access_stream.hh"

#include <algorithm>
#include <array>
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

namespace {

// Addresses synthesized, filtered through the L1 and replayed through
// the L2 per pass. A longer stream runs block after block with both
// caches carried across, so memory stays one block per thread.
constexpr std::size_t kBlockAccesses = 1024;

} // namespace

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
    const std::uint64_t fp = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(
            std::llround(static_cast<double>(params.footprintBytes) /
                         scale)),
        l1_config.lineBytes);
    const Divisor footprint(fp);
    // One cache pair and one address block per thread, caches reset
    // before every stream: each stream starts from empty caches, and a
    // thread allocates only when it meets a larger geometry than it
    // has held.
    thread_local Cache l1(l1_config);
    thread_local Cache l2(l2_config);
    thread_local std::array<std::uint64_t, kBlockAccesses> block;
    l1.reset(scale > 1.0 ? l1_config.scaledDown(scale) : l1_config);
    l2.reset(scale > 1.0 ? l2_config.scaledDown(scale) : l2_config);
    // The line size is a power of two, so the local window of two
    // lines is a mask.
    const std::uint64_t window_mask =
        2 * std::uint64_t{l1_config.lineBytes} - 1;
    const std::uint64_t creep = l1_config.lineBytes / 4;

    SplitMix64 rng(params.seed);
    std::uint64_t cursor = footprint.remainder(rng.next());
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_hits = 0;

    for (std::uint64_t done = 0; done < n;) {
        const std::size_t len = static_cast<std::size_t>(
            std::min<std::uint64_t>(kBlockAccesses, n - done));
        done += len;

        // Synthesize. High bits of each draw decide local-vs-jump; low
        // bits supply the offset. A local access stays within a small
        // window around the cursor (mostly same or adjacent line) and
        // creeps forward, emulating rasterization order walking texel
        // space; a jump lands anywhere in the footprint (mip
        // transitions, dependent reads, atlas jumps). Both candidates
        // are computed and one is selected, so no branch depends on
        // the draw. The cursor is below fp, the window offset below
        // 2 lineBytes <= 2 fp and the creep below fp, so the window
        // sum is below 3 fp and the creep sum below 2 fp (a sum that
        // wraps is below its addend): min(x, x - fp), which subtracts
        // fp exactly when x >= fp, reduces them exactly in two steps
        // and one.
        for (std::size_t i = 0; i < len; ++i) {
            const std::uint64_t r = rng.next();
            const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
            std::uint64_t near = cursor + (r & window_mask);
            near = std::min(near, near - fp);
            near = std::min(near, near - fp);
            std::uint64_t crept = cursor + creep;
            crept = std::min(crept, crept - fp);
            const std::uint64_t jump = footprint.remainder(r);
            const std::uint64_t local =
                0 - std::uint64_t{u < params.locality}; // all ones
            block[i] = jump ^ ((near ^ jump) & local);
            cursor = jump ^ ((crept ^ jump) & local);
        }

        // L1 filter: keep the misses, in order, at the block's front.
        std::size_t misses = 0;
        for (std::size_t i = 0; i < len; ++i) {
            const std::uint64_t addr = block[i];
            block[misses] = addr;
            misses += !l1.access(addr);
        }

        // L2 replay: it sees the L1-miss sequence in stream order.
        for (std::size_t i = 0; i < misses; ++i)
            l2_hits += l2.access(block[i]);
        l2_accesses += misses;
    }

    result.simulatedAccesses = n;
    result.scale = scale;
    result.l1HitRate = static_cast<double>(n - l2_accesses) /
                       static_cast<double>(n);
    result.l2HitRate = l2_accesses
                           ? static_cast<double>(l2_hits) /
                                 static_cast<double>(l2_accesses)
                           : 1.0;
    result.l1Misses = static_cast<double>(l2_accesses) * scale;
    result.l2Misses = static_cast<double>(l2_accesses - l2_hits) * scale;
    return result;
}

} // namespace gws
