#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_workerHeapCalls{0};
std::atomic<std::size_t> g_largest{0};
const std::thread::id g_testThread = std::this_thread::get_id();

void
countWorkerCall()
{
    if (std::this_thread::get_id() != g_testThread)
        g_workerHeapCalls.fetch_add(1, std::memory_order_relaxed);
}

void
countAllocation(std::size_t bytes)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (bytes > seen &&
           !g_largest.compare_exchange_weak(seen, bytes,
                                            std::memory_order_relaxed)) {
    }
    countWorkerCall();
}

} // namespace

void *
operator new(std::size_t bytes)
{
    countAllocation(bytes);
    if (void *p = std::malloc(bytes == 0 ? 1 : bytes))
        return p;
    throw std::bad_alloc();
}

// Replaced too, so that a nothrow allocation is counted and freed by
// the operator delete below, which pairs it with malloc.
void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    countAllocation(bytes);
    return std::malloc(bytes == 0 ? 1 : bytes);
}

// The replacement operator new above allocates with malloc, which GCC's
// -Wmismatched-new-delete cannot see when it flags the matching free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void
operator delete(void *p) noexcept
{
    countWorkerCall();
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countWorkerCall();
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countWorkerCall();
    std::free(p);
}

#pragma GCC diagnostic pop

namespace rtp {

std::uint64_t
allocationCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t
workerHeapCalls()
{
    return g_workerHeapCalls.load(std::memory_order_relaxed);
}

std::size_t
largestAllocation()
{
    return g_largest.load(std::memory_order_relaxed);
}

void
resetLargestAllocation()
{
    g_largest.store(0, std::memory_order_relaxed);
}

} // namespace rtp
