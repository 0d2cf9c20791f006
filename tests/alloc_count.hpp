/**
 * @file
 * Heap allocation counter for the steady-state allocation tests. The
 * rtp_tests_alloc binary links alloc_count.cpp, which replaces global
 * operator new with a counting version; no other test binary may.
 */

#pragma once

#include <cstdint>

namespace rtp {

/** @return operator new calls made so far by this process. */
std::uint64_t allocationCount();

} // namespace rtp
