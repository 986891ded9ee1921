#include "gpusim/cache.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.hh"

namespace gws {

std::uint64_t
CacheConfig::sets() const
{
    GWS_ASSERT(lineBytes > 0 && ways > 0, "degenerate cache geometry");
    const std::uint64_t raw = sizeBytes / (static_cast<std::uint64_t>(
                                               lineBytes) *
                                           ways);
    return std::max<std::uint64_t>(raw, 1);
}

CacheConfig
CacheConfig::scaledDown(double factor) const
{
    GWS_ASSERT(factor >= 1.0, "scale-down factor below 1: ", factor);
    CacheConfig mini = *this;
    const double scaled =
        static_cast<double>(sizeBytes) / factor;
    const std::uint64_t min_size =
        static_cast<std::uint64_t>(lineBytes) * ways;
    mini.sizeBytes = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(std::llround(scaled)), min_size);
    return mini;
}

double
CacheStats::hitRate() const
{
    if (accesses == 0)
        return 1.0;
    return static_cast<double>(hits) / static_cast<double>(accesses);
}

Cache::Cache(const CacheConfig &config)
{
    reset(config);
}

void
Cache::reset(const CacheConfig &config)
{
    GWS_ASSERT((config.lineBytes & (config.lineBytes - 1)) == 0,
               "line size must be a power of two: ", config.lineBytes);
    const std::uint64_t sets = config.sets();
    geometry = config;
    lineShift = std::countr_zero(config.lineBytes);
    numSets = Divisor(sets);
    // New lines carry stamp 0 and every epoch is >= 1, so they start
    // invalid; lines left from earlier epochs are invalid too.
    if (lines.size() < sets * config.ways)
        lines.resize(sets * config.ways);
    ++epoch;
    useCounter = 0;
    statistics = CacheStats{};
}

std::uint64_t
Cache::setIndex(std::uint64_t address) const
{
    return numSets.remainder(address >> lineShift);
}

std::uint64_t
Cache::tagOf(std::uint64_t address) const
{
    return numSets.quotient(address >> lineShift);
}

bool
Cache::access(std::uint64_t address)
{
    ++statistics.accesses;
    ++useCounter;
    const std::uint64_t set = setIndex(address);
    const std::uint64_t tag = tagOf(address);
    Line *base = &lines[set * geometry.ways];

    Line *victim = base;
    for (std::uint32_t w = 0; w < geometry.ways; ++w) {
        Line &line = base[w];
        const bool valid = line.stamp == epoch;
        if (valid && line.tag == tag) {
            line.lastUse = useCounter;
            ++statistics.hits;
            return true;
        }
        if (!valid) {
            victim = &line; // prefer an invalid way
        } else if (victim->stamp == epoch &&
                   line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }
    victim->stamp = epoch;
    victim->tag = tag;
    victim->lastUse = useCounter;
    return false;
}

bool
Cache::probe(std::uint64_t address) const
{
    const std::uint64_t set = setIndex(address);
    const std::uint64_t tag = tagOf(address);
    const Line *base = &lines[set * geometry.ways];
    for (std::uint32_t w = 0; w < geometry.ways; ++w) {
        if (base[w].stamp == epoch && base[w].tag == tag)
            return true;
    }
    return false;
}

} // namespace gws
