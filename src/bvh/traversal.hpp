/**
 * @file
 * Software BVH traversal (Algorithm 1 in the paper).
 *
 * The cycle-level RT unit implements the same while-while loop as a state
 * machine. BvhTraversal holds the one software copy of that loop: it
 * generates rays' hits for raygen and path tracing, collects traversal
 * traces (Figure 1's memory access distribution) and drives the
 * Section 6.3 limit-study oracles. The recursive walk in core/reference
 * is kept apart on purpose: it is the independent oracle the simulator
 * and this walk are checked against.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "bvh/bvh.hpp"
#include "geometry/intersect.hpp"
#include "geometry/ray.hpp"
#include "geometry/triangle.hpp"

namespace rtp {

/** Counters and optional trace collected during one traversal. */
struct TraversalStats
{
    std::uint64_t nodesFetched = 0; //!< interior + leaf node fetches
    std::uint64_t leavesFetched = 0;
    std::uint64_t boxTests = 0;
    std::uint64_t triTests = 0;
    bool recordTrace = false;
    std::vector<std::uint32_t> nodeTrace; //!< fetched node indices in order
};

/**
 * Collect every leaf node containing at least one primitive the ray
 * intersects (no early-out). Used by the limit-study oracles: a predicted
 * node verifies iff its subtree contains one of these leaves. Children
 * are pushed left then right, unsorted; fig2's OT/OU oracle modes take
 * the first listed leaf with a trained ancestor, so this order is part
 * of their output and the list does not come from BvhTraversal.
 */
std::vector<std::uint32_t> collectHitLeaves(
    const Bvh &bvh, const std::vector<Triangle> &triangles,
    const Ray &ray);

/** Brute-force any-hit over all triangles (test oracle). */
bool bruteForceAnyHit(const std::vector<Triangle> &triangles,
                      const Ray &ray);

/** Brute-force closest-hit over all triangles (test oracle). */
HitRecord bruteForceClosestHit(const std::vector<Triangle> &triangles,
                               const Ray &ray);

/**
 * Stack traversal of one scene, reused across rays.
 *
 * Both queries run one walk: children are visited near-first (ties to
 * the left) from @p start_node (kBvhRoot for a full traversal, a
 * predicted node during prediction verification). The traversal stack
 * is a member, so tracing N rays performs no per-ray heap allocation.
 */
class BvhTraversal
{
  public:
    BvhTraversal(const Bvh &bvh, const std::vector<Triangle> &triangles);

    /**
     * Closest-hit traversal (primary / GI rays): shrinks tMax as
     * candidates are found and re-tests each popped node's box against
     * the shrunken interval before fetching it.
     */
    HitRecord closestHit(const Ray &ray, TraversalStats *stats = nullptr,
                         std::uint32_t start_node = kBvhRoot);

    /** Any-hit (occlusion) traversal: the first intersection wins. */
    HitRecord anyHit(const Ray &ray, TraversalStats *stats = nullptr,
                     std::uint32_t start_node = kBvhRoot);

  private:
    enum class HitPolicy { Any, Closest };

    /** The stack walk behind both queries, monomorphic per policy. */
    template <HitPolicy P>
    HitRecord walk(const Ray &ray, TraversalStats *stats,
                   std::uint32_t start_node);

    const Bvh &bvh_;
    const std::vector<Triangle> &triangles_;
    std::vector<std::uint32_t> stack_;
};

} // namespace rtp
