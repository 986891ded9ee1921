#include "gpusim/memory_system.hh"

#include <algorithm>
#include <mutex>

#include "gpusim/access_stream.hh"
#include "obs/metrics.hh"

namespace gws {

namespace {

/** splitmix64 finalizer — the same mixer the draw-work cache uses. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Hash of (texture-table epoch, bound id list), order-sensitive. */
std::uint64_t
texBindKey(const Trace &trace, const DrawCall &draw)
{
    std::uint64_t key = mix64(trace.textureEpoch());
    for (TextureId id : draw.state.textures)
        key = mix64(key ^ id);
    return key;
}

obs::Counter &g_tex_bind_hits =
    obs::metricsRegistry().counter("gpusim.texBind.hits");
obs::Counter &g_tex_bind_misses =
    obs::metricsRegistry().counter("gpusim.texBind.misses");

} // namespace

double
MemoryTraffic::totalL2Bytes() const
{
    // Texture fills plus the vertex stream and the DRAM-bound RT
    // traffic all cross the L2 data paths.
    return texL2FillBytes + vertexDramBytes + rtDramBytes;
}

double
MemoryTraffic::totalDramBytes() const
{
    return texDramBytes + vertexDramBytes + rtDramBytes;
}

MemorySystem::MemorySystem(const GpuConfig &config) : cfg(config)
{
    cfg.validate();
}

MemorySystem::TexBindScan
MemorySystem::boundTextureScan(const Trace &trace,
                               const DrawCall &draw) const
{
    const std::uint64_t key = texBindKey(trace, draw);
    {
        std::shared_lock<std::shared_mutex> lock(texBindMutex);
        const auto it = texBindMemo.find(key);
        if (it != texBindMemo.end()) {
            g_tex_bind_hits.increment();
            return it->second;
        }
    }

    TexBindScan scan;
    for (TextureId id : draw.state.textures) {
        const TextureDesc &tex = trace.texture(id);
        scan.boundBytes += tex.sizeBytes();
        scan.bytesPerTexelSum += tex.bytesPerTexel;
    }
    g_tex_bind_misses.increment();

    std::unique_lock<std::shared_mutex> lock(texBindMutex);
    texBindMemo.emplace(key, scan);
    return scan;
}

MemoryTraffic
MemorySystem::drawTraffic(const Trace &trace, const DrawCall &draw) const
{
    MemoryTraffic t;

    // --- vertex stream (compulsory, streaming) --------------------------
    t.vertexDramBytes = static_cast<double>(draw.vertexFetchBytes());

    // --- render target + depth ------------------------------------------
    const auto &rt = trace.renderTarget(draw.state.renderTarget);
    double rt_bytes =
        static_cast<double>(draw.shadedPixels) * rt.bytesPerPixel;
    if (draw.state.blendEnabled)
        rt_bytes *= 2.0; // read-modify-write
    double depth_bytes = 0.0;
    constexpr double depth_bpp = 4.0;
    if (draw.state.depthTestEnabled)
        depth_bytes += static_cast<double>(draw.shadedPixels) * depth_bpp;
    if (draw.state.depthWriteEnabled)
        depth_bytes +=
            static_cast<double>(draw.coveredPixels()) * depth_bpp;
    t.rtDramBytes = (rt_bytes + depth_bytes) * cfg.rtTrafficDramFraction;

    // --- textures ---------------------------------------------------------
    const auto &ps = trace.shaders().get(draw.state.pixelShader);
    t.texSamples = draw.shadedPixels * ps.mix().texOps;
    if (t.texSamples == 0 || draw.state.textures.empty())
        return t;

    const TexBindScan scan = boundTextureScan(trace, draw);
    const std::uint64_t bound_bytes = scan.boundBytes;
    const double avg_bpt = static_cast<double>(scan.bytesPerTexelSum) /
                           static_cast<double>(draw.state.textures.size());

    StreamParams params;
    params.totalAccesses = t.texSamples;
    // Thanks to mip selection the touched texel count tracks the sample
    // count, bounded by what is actually bound.
    params.footprintBytes = std::min<std::uint64_t>(
        bound_bytes,
        std::max<std::uint64_t>(
            static_cast<std::uint64_t>(
                static_cast<double>(t.texSamples) * avg_bpt),
            cfg.texL1.lineBytes));
    params.locality = draw.texLocality;
    params.seed = mixSeed(draw.materialId,
                          (static_cast<std::uint64_t>(
                               draw.state.pixelShader)
                           << 32) |
                              draw.state.vertexShader,
                          draw.shadedPixels ^ bound_bytes);

    const StreamResult sr = runTextureStream(
        params, cfg.texL1, cfg.l2, cfg.maxSampledTexAccesses);
    t.texL1HitRate = sr.l1HitRate;
    t.texL2HitRate = sr.l2HitRate;
    t.texL2FillBytes = sr.l1Misses * cfg.texL1.lineBytes;
    t.texDramBytes = sr.l2Misses * cfg.l2.lineBytes;
    return t;
}

} // namespace gws
