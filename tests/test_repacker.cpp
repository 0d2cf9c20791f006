/**
 * @file
 * Partial warp collector tests (Section 4.4, Figure 10). They share the
 * allocation-counting executable (alloc_count.hpp) so they can also
 * pin that a warm collector never touches the heap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "alloc_count.hpp"
#include "core/repacker.hpp"

namespace rtp {
namespace {

std::vector<std::uint32_t>
ids(std::uint32_t first, std::uint32_t count)
{
    std::vector<std::uint32_t> v;
    for (std::uint32_t i = 0; i < count; ++i)
        v.push_back(first + i);
    return v;
}

TEST(Repacker, BuffersBelowWarpSize)
{
    PartialWarpCollector c;
    std::vector<std::uint32_t> warps{7};
    c.add(ids(0, 20), 100, warps);
    EXPECT_TRUE(warps.empty());
    EXPECT_EQ(c.pendingCount(), 20u);
}

TEST(Repacker, EmitsFullWarpAtThirtyTwo)
{
    PartialWarpCollector c;
    std::vector<std::uint32_t> warps;
    c.add(ids(0, 20), 100, warps);
    c.add(ids(20, 12), 105, warps);
    // FIFO order preserved.
    EXPECT_EQ(warps, ids(0, 32));
    EXPECT_EQ(c.pendingCount(), 0u);
}

TEST(Repacker, OverflowKeptForNextWarp)
{
    // Section 4.4.1's example: 30 pending + 15 added -> one warp of 32
    // leaves 13 in the collector.
    PartialWarpCollector c;
    std::vector<std::uint32_t> warps;
    c.add(ids(0, 30), 100, warps);
    c.add(ids(100, 15), 110, warps);
    EXPECT_EQ(warps.size(), 32u);
    EXPECT_EQ(c.pendingCount(), 13u);
}

TEST(Repacker, TimeoutFlushesPartialWarp)
{
    RepackerConfig cfg;
    cfg.timeout = 16;
    PartialWarpCollector c(cfg);
    std::vector<std::uint32_t> warp;
    c.add(ids(0, 5), 100, warp);
    c.flushIfExpired(110, warp);
    EXPECT_TRUE(warp.empty()); // not yet
    c.flushIfExpired(116, warp);
    EXPECT_EQ(warp, ids(0, 5));
    EXPECT_EQ(c.pendingCount(), 0u);
}

TEST(Repacker, DeadlineTracksOldestAdd)
{
    RepackerConfig cfg;
    cfg.timeout = 16;
    PartialWarpCollector c(cfg);
    EXPECT_EQ(c.deadline(), 0u);
    std::vector<std::uint32_t> warps;
    c.add(ids(0, 3), 100, warps);
    c.add(ids(3, 3), 110, warps); // timer anchored at the first add
    EXPECT_EQ(c.deadline(), 116u);
}

TEST(Repacker, FlushAllDrains)
{
    PartialWarpCollector c;
    std::vector<std::uint32_t> warp;
    c.add(ids(0, 10), 100, warp);
    c.flushAll(warp);
    EXPECT_EQ(warp, ids(0, 10));
    EXPECT_EQ(c.pendingCount(), 0u);
    c.flushAll(warp);
    EXPECT_TRUE(warp.empty());
}

TEST(Repacker, TwoFullWarpsFromLargeAdd)
{
    RepackerConfig cfg;
    cfg.capacity = 64;
    PartialWarpCollector c(cfg);
    std::vector<std::uint32_t> warps;
    c.add(ids(0, 31), 100, warps);
    c.add(ids(31, 33), 101, warps);
    EXPECT_EQ(warps, ids(0, 64)); // two warps of 32, back to back
}

TEST(Repacker, WarpFormationDoesNotRestartLeftoverTimeout)
{
    // Regression for the flush-timer anchor: the collector used to keep
    // a single oldestAdd_ cycle that was reassigned whenever a full
    // warp formed. The timeout of every pending ray must anchor to that
    // ray's own insertion cycle, never to the latest warp-formation
    // event, or leftover rays could wait past config_.timeout.
    RepackerConfig cfg;
    cfg.timeout = 16;
    PartialWarpCollector c(cfg);
    std::vector<std::uint32_t> warps;
    c.add(ids(0, 5), 100, warps); // partial warp waiting since cycle 100
    EXPECT_EQ(c.oldestPendingCycle(), 100u);
    c.add(ids(5, 32), 110, warps); // full warp forms at 110
    ASSERT_EQ(warps.size(), 32u);
    EXPECT_EQ(c.pendingCount(), 5u);
    // The 5 leftover rays entered the collector at cycle 110; their
    // flush deadline is 110 + 16, not a cycle of some later event.
    EXPECT_EQ(c.oldestPendingCycle(), 110u);
    EXPECT_EQ(c.deadline(), 126u);
    c.flushIfExpired(125, warps);
    EXPECT_TRUE(warps.empty());
    c.flushIfExpired(126, warps);
    EXPECT_EQ(warps.size(), 5u);
}

TEST(Repacker, StarvationBoundHolds)
{
    // Property: driving the collector the way the RT unit does (flush
    // attempts at every deadline), no ray is ever pending longer than
    // config_.timeout after its insertion cycle.
    RepackerConfig cfg;
    cfg.timeout = 8;
    PartialWarpCollector c(cfg);
    std::uint32_t next_id = 0;
    std::map<std::uint32_t, Cycle> added;
    std::uint32_t sizes[] = {5, 31, 32, 3, 40, 1, 27, 33, 0, 12};
    Cycle now = 50;
    std::vector<std::uint32_t> warps;
    for (std::uint32_t n : sizes) {
        auto batch = ids(next_id, n);
        next_id += n;
        c.add(batch, now, warps);
        for (std::uint32_t id : batch)
            added[id] = now;
        for (std::uint32_t id : warps)
            added.erase(id);
        // Emulate the RT unit's flush event at the current deadline.
        if (c.pendingCount() > 0) {
            Cycle dl = c.deadline();
            EXPECT_EQ(dl, c.oldestPendingCycle() + cfg.timeout);
            c.flushIfExpired(std::min<Cycle>(dl, now + 3), warps);
            for (std::uint32_t id : warps) {
                EXPECT_LE(std::min<Cycle>(dl, now + 3) - added[id],
                          cfg.timeout);
                added.erase(id);
            }
        }
        now += 5;
    }
    // Every ray still pending is younger than its deadline.
    for (const auto &kv : added)
        EXPECT_LE(now - kv.second,
                  cfg.timeout + 5); // bounded residency at drain time
}

TEST(Repacker, StatsCountEvents)
{
    RepackerConfig cfg;
    cfg.timeout = 8;
    PartialWarpCollector c(cfg);
    std::vector<std::uint32_t> warps;
    c.add(ids(0, 32), 100, warps);
    c.add(ids(32, 4), 110, warps);
    c.flushIfExpired(200, warps);
    EXPECT_EQ(c.stats().get("full_warps_formed"), 1u);
    EXPECT_EQ(c.stats().get("timeout_flushes"), 1u);
    EXPECT_EQ(c.stats().get("rays_collected"), 36u);
}

TEST(Repacker, RingKeepsFifoOrderAcrossWraps)
{
    // A capacity that is not a multiple of the warp size makes the ring
    // wrap mid-warp; every ID must still leave in insertion order.
    RepackerConfig cfg;
    cfg.warpSize = 8;
    cfg.capacity = 21;
    cfg.timeout = 4;
    PartialWarpCollector c(cfg);
    std::vector<std::uint32_t> out, warps;
    std::uint32_t next_id = 0;
    Cycle now = 0;
    for (std::uint32_t n : {5u, 13u, 3u, 8u, 1u, 7u, 13u, 2u, 11u, 6u}) {
        c.add(ids(next_id, n), now, warps);
        next_id += n;
        out.insert(out.end(), warps.begin(), warps.end());
        c.flushIfExpired(now + 2, warps); // the previous round's IDs
        out.insert(out.end(), warps.begin(), warps.end());
        now += 3;
    }
    c.flushAll(warps);
    out.insert(out.end(), warps.begin(), warps.end());
    EXPECT_EQ(out, ids(0, next_id));
    EXPECT_GT(c.stats().get("full_warps_formed"), 0u);
    EXPECT_GT(c.stats().get("timeout_flushes"), 0u);
}

TEST(Repacker, SteadyStateAddsAndFlushesAllocateNothing)
{
    // Each round forms full warps, flushes one on timeout and drains
    // the rest, all into one caller-owned vector: no heap traffic.
    RepackerConfig cfg;
    cfg.timeout = 8;
    PartialWarpCollector c(cfg);
    const std::vector<std::uint32_t> b20 = ids(0, 20), b13 = ids(20, 13),
                                      b31 = ids(33, 31), b5 = ids(64, 5);
    std::vector<std::uint32_t> warps;
    warps.reserve(cfg.capacity);
    std::uint64_t emitted = 0;
    const std::uint64_t before = allocationCount();
    for (Cycle now = 0; now < 40000; now += 40) {
        c.add(b20, now, warps);
        emitted += warps.size();
        c.add(b13, now + 1, warps); // one full warp, one ID left
        emitted += warps.size();
        c.flushIfExpired(now + 1 + cfg.timeout, warps);
        emitted += warps.size();
        c.add(b31, now + 20, warps);
        c.add(b5, now + 21, warps); // one full warp, four IDs left
        emitted += warps.size();
        c.flushAll(warps);
        emitted += warps.size();
    }
    EXPECT_EQ(allocationCount() - before, 0u);
    EXPECT_EQ(emitted, 1000u * 69u);
    EXPECT_EQ(c.stats().get("full_warps_formed"), 2000u);
    EXPECT_EQ(c.stats().get("timeout_flushes"), 1000u);
    EXPECT_EQ(c.stats().get("drain_flushes"), 1000u);
}

} // namespace
} // namespace rtp
