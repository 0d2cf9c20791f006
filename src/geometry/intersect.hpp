/**
 * @file
 * Ray-box and ray-triangle intersection routines.
 *
 * These are the two tests the paper's RT unit accelerates in hardware
 * (Section 5.1.3): the slab test for BVH node AABBs and the
 * Möller–Trumbore test for leaf triangles.
 */

#pragma once

#include <cmath>

#include "geometry/aabb.hpp"
#include "geometry/ray.hpp"
#include "geometry/triangle.hpp"

namespace rtp {

/**
 * Branchless minimum, (a < b ? a : b): one comparison and one select,
 * so the result for NaN and signed-zero operands is fully defined by
 * the call's operand order. std::fmin leaves fmin(-0.0f, +0.0f)
 * unspecified, which would let slab-test ties differ between standard
 * libraries.
 */
inline float
kernelMin(float a, float b)
{
    return a < b ? a : b;
}

/** Branchless maximum, (a > b ? a : b); see kernelMin. */
inline float
kernelMax(float a, float b)
{
    return a > b ? a : b;
}

/**
 * Relative determinant-cull threshold for the Möller–Trumbore test.
 * det = dot(e1, cross(dir, e2)) is culled when
 * |det| <= kTriDetEpsRel * sum_i |e1_i * pvec_i| — i.e. when the
 * determinant is within ~8 float ulps of the magnitude of the terms it
 * was summed from, which is exactly when catastrophic cancellation
 * makes det rounding noise and 1/det would amplify garbage. Unlike a
 * fixed absolute epsilon, the cull is invariant under uniform scene
 * scaling; unlike a |e1|*|pvec| bound it needs no square roots.
 */
constexpr float kTriDetEpsRel = 1e-6f;

/** Precomputed reciprocal direction for repeated slab tests on one ray. */
struct RayBoxPrecomp
{
    Vec3 invDir;

    /**
     * Always-finite reciprocal of a direction component.
     *
     * A zero component maps to a huge finite reciprocal instead of
     * infinity: 0 * inf = NaN would poison the slab test when the ray
     * origin lies exactly on a box plane (common with axis-aligned
     * architectural geometry), and fmin/fmax NaN propagation would then
     * make hit/miss depend on operand order. Three cases:
     *
     *  - d == 0 (either sign of zero): +huge. Canonicalising -0.0f to
     *    the *positive* huge value keeps the precompute bit-identical
     *    between rays whose dir differs only in a zero's sign, so
     *    tEntry ties — and therefore traversal order and predictor
     *    training — cannot diverge between such rays.
     *  - denormal d: 1/d overflows to inf even though d != 0; clamp to
     *    +-huge with d's sign so no later product can produce NaN.
     *  - normal d: the exact reciprocal.
     *
     * With invDir always finite, (box - origin) * invDir is never NaN
     * (finite * finite), so the slab min/max network needs no NaN
     * handling at all — nanort-style robustness.
     */
    static float
    safeInv(float d)
    {
        constexpr float huge = 1e30f;
        if (d == 0.0f)
            return huge;
        float inv = 1.0f / d;
        if (std::isinf(inv))
            return std::copysign(huge, d);
        return inv;
    }

    RayBoxPrecomp() = default;

    explicit RayBoxPrecomp(const Ray &ray)
        : invDir(safeInv(ray.dir.x), safeInv(ray.dir.y),
                 safeInv(ray.dir.z))
    {}
};

/**
 * Slab test of a ray against an AABB.
 *
 * @param ray The ray (tMin/tMax bound the valid interval).
 * @param pre Precomputed reciprocal direction.
 * @param box The axis-aligned box.
 * @param tEntry Out: entry distance (clamped to ray.tMin) when hit.
 * @retval true if the ray's [tMin, tMax] interval overlaps the box.
 */
bool intersectRayAabb(const Ray &ray, const RayBoxPrecomp &pre,
                      const Aabb &box, float &tEntry);

/** Convenience overload that computes the precomputation internally. */
bool intersectRayAabb(const Ray &ray, const Aabb &box, float &tEntry);

/**
 * Möller–Trumbore ray-triangle intersection.
 *
 * @param ray The ray.
 * @param tri The triangle.
 * @param rec Out: hit distance and barycentrics when hit.
 * @retval true on intersection within (ray.tMin, ray.tMax).
 */
bool intersectRayTriangle(const Ray &ray, const Triangle &tri,
                          HitRecord &rec);

} // namespace rtp
