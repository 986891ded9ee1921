#include "obs/metrics.hh"

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
    }
    GWS_PANIC("unknown metric type ", static_cast<int>(type));
}

/** One registered metric: its type tag plus the live instance. */
struct MetricsRegistry::Entry
{
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
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
        }
    }
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
