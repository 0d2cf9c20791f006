/**
 * @file
 * Incremental 64-bit FNV-1a over raw bytes, for the golden-digest
 * tests that pin exact trees and traversal results.
 */

#pragma once

#include <cstdint>
#include <cstring>

namespace rtp {

/** Incremental 64-bit FNV-1a over raw bytes. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    template <typename T>
    void
    add(const T &v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes) {
            h ^= b;
            h *= 0x100000001b3ULL;
        }
    }
};

} // namespace rtp
