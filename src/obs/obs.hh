/**
 * @file
 * Umbrella header for the observability layer: span tracer (trace.hh),
 * metrics registry (metrics.hh), and the peak-RSS probe (mem.hh).
 */

#ifndef GWS_OBS_OBS_HH
#define GWS_OBS_OBS_HH

#include "obs/mem.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

#endif // GWS_OBS_OBS_HH
