/**
 * @file
 * Unit and property tests of the set-associative LRU cache, including
 * a cross-check against a brute-force reference model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "gpusim/cache.hh"
#include "stream_reference.hh"
#include "util/rng.hh"

namespace gws {
namespace {

// ----------------------------------------------------------- geometry --

TEST(CacheConfig, SetsFromGeometry)
{
    CacheConfig c{16 * 1024, 64, 4};
    EXPECT_EQ(c.sets(), 64u);
    CacheConfig direct{1024, 64, 1};
    EXPECT_EQ(direct.sets(), 16u);
}

TEST(CacheConfig, SetsNeverZero)
{
    CacheConfig tiny{64, 64, 4}; // smaller than one full set
    EXPECT_EQ(tiny.sets(), 1u);
}

TEST(CacheConfig, ScaledDownPreservesWaysAndLine)
{
    CacheConfig c{1024 * 1024, 64, 16};
    const CacheConfig mini = c.scaledDown(64.0);
    EXPECT_EQ(mini.ways, 16u);
    EXPECT_EQ(mini.lineBytes, 64u);
    EXPECT_EQ(mini.sizeBytes, 16u * 1024);
}

TEST(CacheConfig, ScaledDownFloorsAtOneSet)
{
    CacheConfig c{4096, 64, 4};
    const CacheConfig mini = c.scaledDown(1e9);
    EXPECT_GE(mini.sizeBytes, 64u * 4u);
    EXPECT_EQ(mini.sets(), 1u);
}

// ------------------------------------------------------------- behavior --

TEST(Cache, ColdMissThenHit)
{
    Cache c(CacheConfig{1024, 64, 2});
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(63));   // same line
    EXPECT_FALSE(c.access(64));  // next line
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().hits, 2u);
    EXPECT_EQ(c.stats().misses(), 2u);
}

TEST(Cache, LruEvictionWithinSet)
{
    // Direct construction of a 1-set, 2-way cache.
    Cache c(CacheConfig{128, 64, 2});
    ASSERT_EQ(c.config().sets(), 1u);
    c.access(0);    // A miss
    c.access(64);   // B miss
    c.access(0);    // A hit (B is now LRU)
    c.access(128);  // C miss, evicts B
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(64));
    EXPECT_TRUE(c.probe(128));
}

TEST(Cache, ProbeHasNoSideEffects)
{
    Cache c(CacheConfig{128, 64, 2});
    c.access(0);
    const auto before = c.stats().accesses;
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(4096));
    EXPECT_EQ(c.stats().accesses, before);
}

TEST(Cache, ResetClearsLinesAndStats)
{
    Cache c(CacheConfig{1024, 64, 4});
    c.access(0);
    c.access(0);
    c.reset(c.config());
    EXPECT_EQ(c.stats().accesses, 0u);
    EXPECT_FALSE(c.probe(0));
    EXPECT_FALSE(c.access(0)); // cold again
}

TEST(Cache, WorkingSetWithinCapacityAlwaysHitsAfterWarmup)
{
    // 4 KiB, 64 B lines, 4-way: 64 lines capacity.
    Cache c(CacheConfig{4096, 64, 4});
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t line = 0; line < 64; ++line) {
            const bool hit = c.access(line * 64);
            if (round > 0) {
                ASSERT_TRUE(hit) << "line " << line << " round " << round;
            }
        }
    }
}

TEST(Cache, StreamingOverCapacityAlwaysMisses)
{
    Cache c(CacheConfig{4096, 64, 4});
    // Touch 4x capacity twice; second pass still misses everything
    // under LRU (classic streaming worst case).
    for (int round = 0; round < 2; ++round) {
        for (std::uint64_t line = 0; line < 256; ++line)
            ASSERT_FALSE(c.access(line * 64));
    }
}

TEST(CacheStats, HitRateEdgeCases)
{
    CacheStats s;
    EXPECT_DOUBLE_EQ(s.hitRate(), 1.0); // vacuous
    s.accesses = 10;
    s.hits = 4;
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.4);
}

// ------------------------------------------------- reference cross-check --

struct CrossCheckCase
{
    CacheConfig config;
    double locality;
};

class CacheCrossCheck : public ::testing::TestWithParam<CrossCheckCase>
{
};

TEST_P(CacheCrossCheck, MatchesReferenceOnRandomStream)
{
    const auto &[config, locality] = GetParam();
    // One cache reused across geometries whose ways and sets grow and
    // shrink: each leaves stale lines (from the same stream, so their
    // tags collide) that must never hit after a reset.
    Cache dut(config);
    std::vector<std::uint64_t> resident;
    for (const CacheConfig &geometry :
         {CacheConfig{4 << 20, 64, 16}, CacheConfig{3 * 3 * 64, 64, 3},
          CacheConfig{16 * 1024, 64, 4}, CacheConfig{1024, 64, 16},
          config}) {
        dut.reset(geometry);
        for (std::uint64_t addr : resident)
            ASSERT_FALSE(dut.probe(addr))
                << "line of " << addr << " survived the reset to "
                << geometry.sizeBytes << " B, " << geometry.ways
                << " ways";
        ReferenceCache ref(geometry);
        Rng rng(0xc0ffee);
        std::uint64_t cursor = 0;
        std::vector<std::uint64_t> recent;
        for (int i = 0; i < 20000; ++i) {
            std::uint64_t addr;
            if (rng.bernoulli(locality)) {
                addr = cursor + rng.uniformInt(0, 127);
            } else {
                addr = rng.uniformInt(0, 1 << 20);
                cursor = addr;
            }
            ASSERT_EQ(dut.access(addr), ref.access(addr))
                << "diverged at access " << i << " addr " << addr
                << " under " << geometry.sizeBytes << " B";
            if (i >= 20000 - 64)
                recent.push_back(addr);
        }
        EXPECT_EQ(dut.stats().accesses, 20000u);
        resident.clear();
        for (std::uint64_t addr : recent)
            if (dut.probe(addr))
                resident.push_back(addr);
        EXPECT_FALSE(resident.empty());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheCrossCheck,
    ::testing::Values(
        CrossCheckCase{{1024, 64, 1}, 0.5},     // direct mapped
        CrossCheckCase{{8 * 1024, 64, 2}, 0.6}, // 2-way
        CrossCheckCase{{12 * 1024, 64, 3}, 0.8},// 3-way
        CrossCheckCase{{3 * 4 * 64, 64, 4}, 0.7}, // 3 sets
        CrossCheckCase{{4096, 64, 4}, 0.8},     // typical L1
        CrossCheckCase{{4096, 64, 4}, 0.0},     // pure random
        CrossCheckCase{{16 * 1024, 128, 8}, 0.7},
        CrossCheckCase{{64 * 1024, 64, 16}, 0.9},
        CrossCheckCase{{256, 64, 4}, 0.5}));    // single set

TEST(Cache, AllOnesTagWithOneByteLinesAndOneSet)
{
    // With 1-byte lines and one set every 64-bit value is a tag, ~0
    // included, so no tag value can mark an empty way.
    const CacheConfig config{4, 1, 4};
    ASSERT_EQ(config.sets(), 1u);
    Cache dut(config);
    EXPECT_FALSE(dut.probe(~0ULL));
    for (int round = 0; round < 2; ++round) {
        ReferenceCache ref(config);
        Rng rng(round);
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t addr = ~std::uint64_t{0} -
                static_cast<std::uint64_t>(rng.uniformInt(0, 6));
            ASSERT_EQ(dut.access(addr), ref.access(addr))
                << "diverged at access " << i << " addr " << addr;
        }
        dut.reset(config);
        EXPECT_FALSE(dut.probe(~0ULL));
        EXPECT_FALSE(dut.access(~0ULL));
        EXPECT_TRUE(dut.probe(~0ULL));
        dut.reset(config);
    }
}

} // namespace
} // namespace gws
