/**
 * @file
 * Process peak-RSS probe: reads the kernel's resident-set high-water
 * mark (Linux: VmHWM from /proc/self/status) and publishes it as the
 * `gws.mem.peak_rss_bytes` gauge. Every bench reports it in the
 * gws.bench.v1 envelope.
 *
 * On platforms without the procfs counter the probe degrades to 0
 * (never a guess), so callers can gate on a zero value.
 */

#ifndef GWS_OBS_MEM_HH
#define GWS_OBS_MEM_HH

#include <cstddef>

namespace gws {
namespace obs {

/**
 * Peak resident set size of this process in bytes (VmHWM), or 0 when
 * the platform offers no counter. Monotone over the process lifetime:
 * freeing memory never lowers it.
 */
std::size_t peakRssBytes();

/**
 * Sample peakRssBytes() into the `gws.mem.peak_rss_bytes` gauge.
 * Called by flushObservability() so every export carries the final
 * high-water mark; cheap enough to call at any checkpoint.
 */
void updatePeakRssGauge();

} // namespace obs
} // namespace gws

#endif // GWS_OBS_MEM_HH
