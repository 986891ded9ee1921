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
    setCount = sets;
    numSets = Divisor(sets);
    // New stamps are 0 and every epoch is >= 1, so new sets start
    // empty; sets stamped in earlier epochs are empty too.
    if (tagArray.size() < sets * config.ways)
        tagArray.resize(sets * config.ways);
    if (setStamp.size() < sets)
        setStamp.resize(sets);
    ++epoch;
    statistics = CacheStats{};
}

bool
Cache::probe(std::uint64_t address) const
{
    const std::uint64_t line = address >> lineShift;
    const std::uint64_t tag = numSets.quotient(line);
    const std::uint64_t set = line - tag * setCount;
    const std::uint64_t *const tags = &tagArray[set * geometry.ways];
    return setStamp[set] == epoch &&
           std::find(tags, tags + geometry.ways, tag) != tags + geometry.ways;
}

} // namespace gws
