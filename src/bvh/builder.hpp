/**
 * @file
 * Binned surface-area-heuristic BVH builder.
 *
 * Produces the Aila–Laine-style tree (Section 2.4) the RT unit traverses.
 * A post-pass fills parent links, node depths, and Euler-tour intervals so
 * the predictor's Go Up Level and the limit-study oracles need no extra
 * simulated memory accesses.
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
