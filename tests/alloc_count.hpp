/**
 * @file
 * Heap call counters for the steady-state allocation tests. The
 * rtp_tests_alloc binary links alloc_count.cpp, which replaces global
 * operator new with a counting version; no other test binary may.
 */

#pragma once

#include <cstddef>
#include <cstdint>

namespace rtp {

/** @return operator new calls made so far by this process. */
std::uint64_t allocationCount();

/**
 * @return operator new and operator delete calls made so far by worker
 * threads: every thread but the one that ran static initialisation,
 * which runs the tests. A free counts because glibc gives a thread
 * that calls free() an arena of its own, as malloc() does.
 */
std::uint64_t workerHeapCalls();

/** @return the largest operator new request, in bytes, since the last
 *  resetLargestAllocation() (or process start). */
std::size_t largestAllocation();

/** Restart largestAllocation() from zero. */
void resetLargestAllocation();

} // namespace rtp
