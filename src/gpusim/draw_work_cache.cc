#include "gpusim/draw_work_cache.hh"

#include <atomic>
#include <bit>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "gpusim/gpu_simulator.hh"

namespace gws {

namespace {

/** SplitMix64 finalizer: the avalanche step both key lanes use. */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/** Two independently seeded mix chains over the same word stream. */
class KeyBuilder
{
  public:
    void add(std::uint64_t w)
    {
        lane_a = mix64(lane_a ^ w);
        lane_b = mix64(lane_b + w * 0x9e3779b97f4a7c15ULL + 1);
    }

    void addDouble(double d) { add(std::bit_cast<std::uint64_t>(d)); }

    DrawWorkKey key() const { return DrawWorkKey{lane_a, lane_b}; }

    std::uint64_t single() const { return lane_a; }

  private:
    std::uint64_t lane_a = 0x243f6a8885a308d3ULL;
    std::uint64_t lane_b = 0x13198a2e03707344ULL;
};

struct KeyHash
{
    std::size_t operator()(const DrawWorkKey &k) const
    {
        return static_cast<std::size_t>(k.lo);
    }
};

constexpr std::size_t numShards = 64;

using WorkMap = std::unordered_map<DrawWorkKey, DrawWork, KeyHash>;

struct Shard
{
    std::mutex mutex;
    WorkMap map;
    // Nodes of flushed entries, reused by later inserts. Freed nodes
    // would go back to the malloc arena of the thread that allocated
    // them, out of reach of other threads' inserts, so resident memory
    // would grow with the number of inserting threads.
    std::vector<WorkMap::node_type> spare;
};

Shard &
shardFor(const DrawWorkKey &key)
{
    static Shard shards[numShards];
    return shards[key.lo % numShards];
}

// Touch every shard once so shardFor's static array outlives callers.
struct ShardInit
{
    ShardInit()
    {
        for (std::uint64_t s = 0; s < numShards; ++s)
            shardFor(DrawWorkKey{s, 0});
    }
} g_shard_init;

std::atomic<std::size_t> g_entries{0};

constexpr std::size_t shardCapacity = drawWorkCacheCapacity / numShards;

} // namespace

std::uint64_t
capacityConfigHash(const GpuConfig &config)
{
    KeyBuilder kb;
    kb.addDouble(config.specialOpWeight);
    kb.add(config.texL1.sizeBytes);
    kb.add(config.texL1.lineBytes);
    kb.add(config.texL1.ways);
    kb.add(config.l2.sizeBytes);
    kb.add(config.l2.lineBytes);
    kb.add(config.l2.ways);
    kb.addDouble(config.rtTrafficDramFraction);
    kb.add(config.maxSampledTexAccesses);
    return kb.single();
}

DrawWorkKey
drawWorkKey(const Trace &trace, const DrawCall &draw,
            std::uint64_t capacityHash)
{
    KeyBuilder kb;
    kb.add(capacityHash);
    kb.add(draw.vertexCount);
    kb.add(draw.instanceCount);
    kb.add(static_cast<std::uint64_t>(draw.topology));
    kb.add(draw.vertexStrideBytes);
    kb.add(draw.shadedPixels);
    kb.addDouble(draw.overdraw);
    kb.addDouble(draw.texLocality);
    kb.add(draw.materialId);
    // Shader ids seed the texture stream, so they are key material in
    // their own right, beyond the mixes they resolve to.
    kb.add(draw.state.vertexShader);
    kb.add(draw.state.pixelShader);
    kb.add((draw.state.blendEnabled ? 1ULL : 0ULL) |
           (draw.state.depthTestEnabled ? 2ULL : 0ULL) |
           (draw.state.depthWriteEnabled ? 4ULL : 0ULL));

    const auto addMix = [&kb](const InstructionMix &mix) {
        kb.add(mix.aluOps);
        kb.add(mix.maddOps);
        kb.add(mix.specialOps);
        kb.add(mix.texOps);
        kb.add(mix.interpOps);
        kb.add(mix.controlOps);
    };
    addMix(trace.shaders().get(draw.state.vertexShader).mix());
    addMix(trace.shaders().get(draw.state.pixelShader).mix());

    kb.add(trace.renderTarget(draw.state.renderTarget).bytesPerPixel);

    kb.add(draw.state.textures.size());
    for (TextureId id : draw.state.textures) {
        const TextureDesc &tex = trace.texture(id);
        kb.add(tex.sizeBytes());
        kb.add(tex.bytesPerTexel);
    }
    return kb.key();
}

bool
drawWorkCacheLookup(const DrawWorkKey &key, DrawWork *out)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it == shard.map.end())
        return false;
    *out = it->second;
    return true;
}

void
drawWorkCacheInsert(const DrawWorkKey &key, const DrawWork &work)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.contains(key))
        return;
    if (shard.map.size() >= shardCapacity) {
        g_entries.fetch_sub(shard.map.size(), std::memory_order_relaxed);
        while (!shard.map.empty())
            shard.spare.push_back(shard.map.extract(shard.map.begin()));
    }
    if (shard.spare.empty()) {
        shard.map.emplace(key, work);
    } else {
        WorkMap::node_type node = std::move(shard.spare.back());
        shard.spare.pop_back();
        node.key() = key;
        node.mapped() = work;
        shard.map.insert(std::move(node));
    }
    g_entries.fetch_add(1, std::memory_order_relaxed);
}

std::size_t
drawWorkCacheSize()
{
    return g_entries.load(std::memory_order_relaxed);
}

void
drawWorkCacheClear()
{
    for (std::uint64_t s = 0; s < numShards; ++s) {
        Shard &shard = shardFor(DrawWorkKey{s, 0});
        std::lock_guard<std::mutex> lock(shard.mutex);
        g_entries.fetch_sub(shard.map.size(),
                            std::memory_order_relaxed);
        shard.map.clear();
    }
}

} // namespace gws
