/**
 * @file
 * Unified metrics registry: typed Counter / Gauge metrics registered
 * by name, one process-global registry, one JSON export schema
 * (`gws.metrics.v1`). A stat lives next to the code that bumps it and
 * shows up in `--metrics-out` and the `--runtime-stats` report without
 * touching a central struct. Time spent in a layer is not a metric:
 * the span tracer (trace.hh) times layers.
 *
 * Hot-path contract: metric *lookup* (by name) takes the registry
 * mutex and is expected to happen once — at load time, as a
 * namespace-scope handle in the owning .cc, or at first use behind a
 * function-local static; metric *updates* are single relaxed atomic
 * operations and are safe from any thread. Handles returned by the
 * registry are stable for the life of the process.
 */

#ifndef GWS_OBS_METRICS_HH
#define GWS_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace gws {
namespace obs {

/** Kind of a registered metric (drives the export schema). */
enum class MetricType { Counter, Gauge };

/** Printable name of a metric type ("counter", ...). */
const char *toString(MetricType type);

/** Monotone event count. */
class Counter
{
  public:
    /** Add `delta` to the counter. */
    void
    add(std::uint64_t delta)
    {
        total.fetch_add(delta, std::memory_order_relaxed);
    }

    /** Add one. */
    void increment() { add(1); }

    /** Current value. */
    std::uint64_t
    value() const
    {
        return total.load(std::memory_order_relaxed);
    }

    /** Zero the counter (registry reset). */
    void reset() { total.store(0, std::memory_order_relaxed); }

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

  private:
    friend class MetricsRegistry;
    Counter() = default;

    std::atomic<std::uint64_t> total{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    /** Set the gauge. */
    void
    set(double v)
    {
        current.store(v, std::memory_order_relaxed);
    }

    /** Current value. */
    double
    value() const
    {
        return current.load(std::memory_order_relaxed);
    }

    /** Zero the gauge (registry reset). */
    void reset() { set(0.0); }

    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

  private:
    friend class MetricsRegistry;
    Gauge() = default;

    std::atomic<double> current{0.0};
};

/** One row of a registry snapshot (export / report plumbing). */
struct MetricSnapshot
{
    /** Registered name. */
    std::string name;

    /** Metric kind. */
    MetricType type = MetricType::Counter;

    /** Counter value (counters only). */
    std::uint64_t counterValue = 0;

    /** Gauge value (gauges only). */
    double gaugeValue = 0.0;
};

/**
 * The process-global name -> metric table. Names are registered on
 * first use (get-or-create); re-requesting a name with a different
 * type is an internal error (panic).
 */
class MetricsRegistry
{
  public:
    /** Get or create the counter `name`. */
    Counter &counter(const std::string &name);

    /** Get or create the gauge `name`. */
    Gauge &gauge(const std::string &name);

    /** Snapshot every metric, sorted by name. */
    std::vector<MetricSnapshot> snapshot() const;

    /** Snapshot only metrics whose name starts with `prefix`. */
    std::vector<MetricSnapshot>
    snapshotPrefix(const std::string &prefix) const;

    /** Zero every registered metric (entries stay registered). */
    void resetAll();

    /** Zero metrics whose name starts with `prefix` (others keep
     *  their values; entries stay registered). */
    void resetPrefix(const std::string &prefix);

    /**
     * Serialize the whole registry to the `gws.metrics.v1` JSON
     * schema (one object, `metrics` array sorted by name).
     */
    std::string toJson() const;

    /**
     * Write toJson() to `path`. Returns false (after a warning) when
     * the file cannot be opened or the write or close fails.
     */
    bool writeJson(const std::string &path) const;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  private:
    friend MetricsRegistry &metricsRegistry();

    MetricsRegistry();

    struct Entry;
    struct Impl;

    /** Find-or-create `name` with `type` (panics on a type clash). */
    Entry &entryFor(const std::string &name, MetricType type);

    /** Heap pimpl (never freed: the registry lives forever). */
    Impl *impl;
};

/** The process-global registry. */
MetricsRegistry &metricsRegistry();

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

} // namespace obs
} // namespace gws

#endif // GWS_OBS_METRICS_HH
