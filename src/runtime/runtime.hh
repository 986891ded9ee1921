/**
 * @file
 * Umbrella header for the parallel execution runtime: configuration,
 * the thread pool, and the parallel loop primitives.
 */

#ifndef GWS_RUNTIME_RUNTIME_HH
#define GWS_RUNTIME_RUNTIME_HH

#include "runtime/parallel_for.hh"
#include "runtime/runtime_config.hh"
#include "runtime/thread_pool.hh"

#endif // GWS_RUNTIME_RUNTIME_HH
