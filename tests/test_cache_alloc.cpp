/**
 * @file
 * Steady-state allocation contract of CacheModel: once constructed, a
 * cache handles any number of hits, misses, MSHR merges, and evictions
 * without touching the heap. The same holds for the memory system's
 * deferred-fill queue once it has grown to its high-water mark. Global
 * operator new is replaced by a counting version (alloc_count.hpp),
 * which is why this test has an executable of its own.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <new>

#include "alloc_count.hpp"
#include "mem/cache.hpp"
#include "mem/memory_system.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

/** @return operator new calls made by @p ops accesses to @p cache. */
std::uint64_t
allocationsDuring(CacheModel &cache, int ops, std::uint64_t seed)
{
    std::uint32_t lines =
        cache.config().sizeBytes / cache.config().lineBytes;
    auto fill = [](std::uint64_t line_addr, Cycle c) {
        return c + 50 + line_addr % 300;
    };
    Rng rng(seed);
    Cycle cycle = 0;
    std::uint64_t before = allocationCount();
    for (int i = 0; i < ops; ++i) {
        cycle += rng.nextBounded(3);
        std::uint64_t line = rng.nextBounded(lines * 4);
        cache.access(line * cache.config().lineBytes, cycle, fill);
    }
    return allocationCount() - before;
}

TEST(CacheAlloc, CountingOperatorNewIsActive)
{
    // A direct call: unlike a new-expression, it cannot be elided.
    std::uint64_t before = allocationCount();
    ::operator delete(::operator new(16));
    EXPECT_EQ(allocationCount() - before, 1u);
}

TEST(CacheAlloc, FullyAssociativeL1AccessesAllocateNothing)
{
    CacheModel l1({64 * 1024, 128, 0, 1, "l1"});
    EXPECT_EQ(allocationsDuring(l1, 200000, 1), 0u);
    EXPECT_GT(l1.stats().get(StatId::Evictions), 100000u);
    EXPECT_GT(l1.stats().get(StatId::Hits), 0u);
}

TEST(CacheAlloc, SetAssociativeL2AccessesAllocateNothing)
{
    CacheModel l2({1024 * 1024, 128, 16, 20, "l2"});
    EXPECT_EQ(allocationsDuring(l2, 200000, 2), 0u);
    EXPECT_GT(l2.stats().get(StatId::Evictions), 100000u);
    EXPECT_GT(l2.stats().get(StatId::Hits), 0u);
}

TEST(CacheAlloc, ResetThenRefillAllocatesNothing)
{
    CacheModel l1({64 * 1024, 128, 0, 1, "l1"});
    std::uint64_t before = allocationCount();
    l1.reset();
    EXPECT_EQ(allocationCount() - before, 0u);
    EXPECT_EQ(allocationsDuring(l1, 50000, 3), 0u);
}

/** Applies one SM's due fills in queue order. */
struct ApplyingSettler final : FillSettler
{
    MemorySystem *mem = nullptr;

    void
    settleDue(std::uint32_t sm, Cycle cycle) override
    {
        while (mem->fillDue(sm, cycle))
            mem->applyOldestFill(sm);
    }
};

TEST(CacheAlloc, DeferredFillQueueReusesItsCapacity)
{
    MemoryConfig cfg;
    MemorySystem mem(cfg, 1);
    ApplyingSettler settler;
    settler.mem = &mem;
    mem.setFillSettler(&settler);
    Rng rng(4);
    Cycle cycle = 0;
    auto run = [&] {
        std::uint64_t misses = 0;
        for (int i = 0; i < 100000; ++i) {
            cycle += rng.nextBounded(2);
            mem.beginStep(0, cycle);
            MemAccess a = mem.access(
                0, 128ull * rng.nextBounded(64 * 1024), cycle);
            misses += a.fill != MemAccess::kNoFill;
        }
        while (mem.hasDeferredFills(0))
            mem.applyOldestFill(0);
        return misses;
    };
    run(); // grows the queue to its high-water mark
    std::uint64_t before = allocationCount();
    std::uint64_t misses = run();
    EXPECT_EQ(allocationCount() - before, 0u);
    EXPECT_GT(misses, 50000u);
    mem.setFillSettler(nullptr);
}

} // namespace
} // namespace rtp
