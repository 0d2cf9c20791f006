/**
 * @file
 * Steady-state allocation contract of CacheModel: once constructed, a
 * cache handles any number of hits, misses, MSHR merges, and evictions
 * without touching the heap. Global operator new is replaced by a
 * counting version, which is why this test has an executable of its own.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "mem/cache.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t bytes)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes == 0 ? 1 : bytes))
        return p;
    throw std::bad_alloc();
}

// The replacement operator new above allocates with malloc, which GCC's
// -Wmismatched-new-delete cannot see when it flags the matching free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

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
    std::uint64_t before = g_allocations.load();
    for (int i = 0; i < ops; ++i) {
        cycle += rng.nextBounded(3);
        std::uint64_t line = rng.nextBounded(lines * 4);
        cache.access(line * cache.config().lineBytes, cycle, fill);
    }
    return g_allocations.load() - before;
}

TEST(CacheAlloc, CountingOperatorNewIsActive)
{
    // A direct call: unlike a new-expression, it cannot be elided.
    std::uint64_t before = g_allocations.load();
    ::operator delete(::operator new(16));
    EXPECT_EQ(g_allocations.load() - before, 1u);
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
    std::uint64_t before = g_allocations.load();
    l1.reset();
    EXPECT_EQ(g_allocations.load() - before, 0u);
    EXPECT_EQ(allocationsDuring(l1, 50000, 3), 0u);
}

} // namespace
} // namespace rtp
