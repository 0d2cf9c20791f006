/**
 * @file
 * Binned surface-area-heuristic BVH builder.
 *
 * Produces the Aila–Laine-style tree (Section 2.4) the RT unit traverses,
 * with the parent links, node depths, and Euler-tour intervals that let
 * the predictor's Go Up Level and the limit-study oracles work without
 * extra simulated memory accesses.
 *
 * The build runs on the free CPUs (freeCpuWorkers, util/host.hpp). The
 * caller splits the top levels until there are about four subtrees per
 * worker. Workers split the subtrees, each over its own primIndices
 * range, and record one entry per node in preorder (the split slot, or
 * a leaf mark). The node array is then sized once, and each subtree's
 * log is replayed into its own index range. The tree is the same bit
 * for bit at any worker count.
 *
 * Zero-area triangles (coincident or collinear corners) are kept like
 * any other: each takes a primitive slot and a leaf, so primIndices
 * stays a permutation of the triangle ids, and its point or segment
 * box is valid. intersectRayTriangle never reports a hit on one.
 */

#pragma once

#include <vector>

#include "bvh/bvh.hpp"
#include "geometry/triangle.hpp"

namespace rtp {

/** Builder configuration. */
struct BvhBuildConfig
{
    int maxLeafSize = 4;    //!< split until at most this many prims/leaf
    int sahBins = 16;       //!< number of SAH bins per axis
    float traversalCost = 1.0f; //!< SAH traversal constant
    float intersectCost = 1.0f; //!< SAH per-primitive constant
};

/** Builds BVHs over triangle arrays. */
class BvhBuilder
{
  public:
    /**
     * @throws std::invalid_argument naming the field if sahBins < 2,
     *         maxLeafSize < 1, or an SAH cost is negative or not finite.
     */
    explicit BvhBuilder(BvhBuildConfig config = {});

    /**
     * Build a BVH.
     * @param triangles Scene triangle soup (must be non-empty).
     * @throws std::invalid_argument if @p triangles is empty or a
     *         vertex is NaN or infinite (naming the triangle index).
     */
    Bvh build(const std::vector<Triangle> &triangles) const;

  private:
    BvhBuildConfig config_;
};

} // namespace rtp
