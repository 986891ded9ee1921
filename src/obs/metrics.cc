#include "obs/metrics.hh"

#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "util/logging.hh"

namespace gws {
namespace obs {

const char *
toString(MetricType type)
{
    switch (type) {
      case MetricType::Counter:
        return "counter";
      case MetricType::Gauge:
        return "gauge";
      case MetricType::Histogram:
        return "histogram";
    }
    GWS_PANIC("unknown metric type ", static_cast<int>(type));
}

std::size_t
Histogram::bucketIndex(std::uint64_t value)
{
    return static_cast<std::size_t>(std::bit_width(value));
}

std::uint64_t
Histogram::bucketLowerBound(std::size_t i)
{
    GWS_ASSERT(i < numBuckets, "bucket index out of range: ", i);
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

std::uint64_t
Histogram::bucketUpperBound(std::size_t i)
{
    GWS_ASSERT(i < numBuckets, "bucket index out of range: ", i);
    if (i == 0)
        return 0;
    if (i == numBuckets - 1)
        return UINT64_MAX;
    return (std::uint64_t{1} << i) - 1;
}

void
Histogram::record(std::uint64_t value)
{
    buckets[bucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    totalSum.fetch_add(value, std::memory_order_relaxed);
    observations.fetch_add(1, std::memory_order_relaxed);
}

double
Histogram::mean() const
{
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum()) / static_cast<double>(n);
}

void
Histogram::reset()
{
    for (auto &b : buckets)
        b.store(0, std::memory_order_relaxed);
    totalSum.store(0, std::memory_order_relaxed);
    observations.store(0, std::memory_order_relaxed);
}

/** One registered metric: its type tag plus the live instance. */
struct MetricsRegistry::Entry
{
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
};

/** Name -> entry map behind one mutex (lookups only; updates are
 *  atomic on the instances themselves). */
struct MetricsRegistry::Impl
{
    mutable std::mutex mutex;
    std::map<std::string, Entry> entries;
};

MetricsRegistry::MetricsRegistry() : impl(new Impl) {}

MetricsRegistry &
metricsRegistry()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Entry &
MetricsRegistry::entryFor(const std::string &name, MetricType type)
{
    GWS_ASSERT(!name.empty(), "metric with an empty name");
    std::lock_guard<std::mutex> lock(impl->mutex);
    auto [it, inserted] = impl->entries.try_emplace(name);
    Entry &entry = it->second;
    if (inserted) {
        entry.type = type;
        switch (type) {
          case MetricType::Counter:
            entry.counter.reset(new Counter);
            break;
          case MetricType::Gauge:
            entry.gauge.reset(new Gauge);
            break;
          case MetricType::Histogram:
            entry.histogram.reset(new Histogram);
            break;
        }
    }
    GWS_ASSERT(entry.type == type, "metric '", name,
               "' re-registered as ", toString(type), " but is a ",
               toString(entry.type));
    return entry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return *entryFor(name, MetricType::Counter).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return *entryFor(name, MetricType::Gauge).gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    return *entryFor(name, MetricType::Histogram).histogram;
}

std::vector<MetricSnapshot>
MetricsRegistry::snapshot() const
{
    return snapshotPrefix("");
}

std::vector<MetricSnapshot>
MetricsRegistry::snapshotPrefix(const std::string &prefix) const
{
    std::vector<MetricSnapshot> out;
    std::lock_guard<std::mutex> lock(impl->mutex);
    for (const auto &[name, entry] : impl->entries) {
        if (name.compare(0, prefix.size(), prefix) != 0)
            continue;
        MetricSnapshot row;
        row.name = name;
        row.type = entry.type;
        switch (entry.type) {
          case MetricType::Counter:
            row.counterValue = entry.counter->value();
            break;
          case MetricType::Gauge:
            row.gaugeValue = entry.gauge->value();
            break;
          case MetricType::Histogram:
            row.histCount = entry.histogram->count();
            row.histSum = entry.histogram->sum();
            for (std::size_t b = 0; b < Histogram::numBuckets; ++b) {
                const std::uint64_t n = entry.histogram->bucketCount(b);
                if (n == 0)
                    continue;
                row.buckets.push_back(
                    {Histogram::bucketLowerBound(b),
                     Histogram::bucketUpperBound(b), n});
            }
            break;
        }
        out.push_back(std::move(row));
    }
    return out;
}

void
MetricsRegistry::resetAll()
{
    resetPrefix("");
}

void
MetricsRegistry::resetPrefix(const std::string &prefix)
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    for (auto &[name, entry] : impl->entries) {
        if (name.compare(0, prefix.size(), prefix) != 0)
            continue;
        switch (entry.type) {
          case MetricType::Counter:
            entry.counter->reset();
            break;
          case MetricType::Gauge:
            entry.gauge->reset();
            break;
          case MetricType::Histogram:
            entry.histogram->reset();
            break;
        }
    }
}

double
snapshotQuantile(const MetricSnapshot &row, double q)
{
    const std::uint64_t n = row.histCount;
    if (n == 0)
        return 0.0;
    q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);

    // Nearest rank, 1-based: the smallest r with r >= q * n.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank < 1)
        rank = 1;
    if (rank > n)
        rank = n;

    std::uint64_t cumulative = 0;
    for (const MetricSnapshot::Bucket &b : row.buckets) {
        if (cumulative + b.count < rank) {
            cumulative += b.count;
            continue;
        }
        // The rank'th observation lies in this bucket; place it at
        // its midpoint position among the bucket's occupants. The
        // open-ended top bucket interpolates over one octave.
        const std::uint64_t hi =
            b.hi == UINT64_MAX && b.lo > 0 ? b.lo * 2 - 1 : b.hi;
        const double inBucket =
            (static_cast<double>(rank - cumulative) - 0.5) /
            static_cast<double>(b.count);
        return static_cast<double>(b.lo) +
               inBucket * static_cast<double>(hi - b.lo);
    }
    // Snapshot counts disagree with the bucket list (torn concurrent
    // read); report the top of the recorded range.
    return row.buckets.empty()
               ? 0.0
               : static_cast<double>(row.buckets.back().hi);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char raw : s) {
        const auto c = static_cast<unsigned char>(raw);
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += raw;
            }
        }
    }
    return out;
}

std::string
MetricsRegistry::toJson() const
{
    const std::vector<MetricSnapshot> rows = snapshot();
    std::ostringstream oss;
    oss << "{\n  \"schema\": \"gws.metrics.v1\",\n  \"metrics\": [";
    bool first = true;
    for (const MetricSnapshot &row : rows) {
        oss << (first ? "\n" : ",\n");
        first = false;
        oss << "    {\"name\": \"" << jsonEscape(row.name)
            << "\", \"type\": \"" << toString(row.type) << "\", ";
        switch (row.type) {
          case MetricType::Counter:
            oss << "\"value\": " << row.counterValue << "}";
            break;
          case MetricType::Gauge:
            oss << "\"value\": " << row.gaugeValue << "}";
            break;
          case MetricType::Histogram: {
            oss << "\"count\": " << row.histCount
                << ", \"sum\": " << row.histSum;
            char quant[96];
            std::snprintf(quant, sizeof(quant),
                          ", \"p50\": %.3f, \"p95\": %.3f, "
                          "\"p99\": %.3f",
                          snapshotQuantile(row, 0.50),
                          snapshotQuantile(row, 0.95),
                          snapshotQuantile(row, 0.99));
            oss << quant << ", \"buckets\": [";
            for (std::size_t b = 0; b < row.buckets.size(); ++b) {
                if (b > 0)
                    oss << ", ";
                oss << "{\"lo\": " << row.buckets[b].lo
                    << ", \"hi\": " << row.buckets[b].hi
                    << ", \"count\": " << row.buckets[b].count << "}";
            }
            oss << "]}";
            break;
          }
        }
    }
    oss << "\n  ]\n}\n";
    return oss.str();
}

bool
MetricsRegistry::writeJson(const std::string &path) const
{
    FILE *fp = std::fopen(path.c_str(), "w");
    if (fp == nullptr) {
        GWS_WARN("cannot write metrics JSON to ", path);
        return false;
    }
    const std::string json = toJson();
    const bool written =
        std::fwrite(json.data(), 1, json.size(), fp) == json.size();
    if (std::fclose(fp) != 0 || !written) {
        GWS_WARN("short write of metrics JSON to ", path);
        return false;
    }
    return true;
}

} // namespace obs
} // namespace gws
