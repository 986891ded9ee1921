/**
 * @file
 * Checked environment-knob reader. The size knobs (GWS_THREADS,
 * GWS_GRAIN, GWS_TRACE_CAP, GWS_MAX_PAYLOAD) go through it so a typo
 * ("GWS_THREADS=four") warns loudly via GWS_WARN and falls back to the
 * default, instead of being silently misread the way a bare std::atoi
 * would ("four" -> 0). GWS_FUZZ_ARTIFACT_DIR, the one path knob, is
 * read by the fuzz harness directly.
 */

#ifndef GWS_UTIL_ENV_HH
#define GWS_UTIL_ENV_HH

#include <cstddef>

namespace gws {

/**
 * Read a non-negative integer knob. Unset or empty returns
 * `fallback`; garbage, a leading '-', or a value that overflows
 * std::size_t warns and returns `fallback`.
 */
std::size_t envSize(const char *name, std::size_t fallback);

} // namespace gws

#endif // GWS_UTIL_ENV_HH
