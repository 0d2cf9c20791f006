#include "geometry/intersect.hpp"

#include <algorithm>

namespace rtp {

bool
intersectRayAabb(const Ray &ray, const RayBoxPrecomp &pre, const Aabb &box,
                 float &tEntry)
{
    // Robust slab test: safeInv guarantees a finite invDir, so no
    // product below can be NaN, and the kernelMin/kernelMax selects
    // give results that do not depend on operand order.
    float t0 = (box.lo.x - ray.origin.x) * pre.invDir.x;
    float t1 = (box.hi.x - ray.origin.x) * pre.invDir.x;
    float tmin = kernelMin(t0, t1);
    float tmax = kernelMax(t0, t1);

    t0 = (box.lo.y - ray.origin.y) * pre.invDir.y;
    t1 = (box.hi.y - ray.origin.y) * pre.invDir.y;
    tmin = kernelMax(tmin, kernelMin(t0, t1));
    tmax = kernelMin(tmax, kernelMax(t0, t1));

    t0 = (box.lo.z - ray.origin.z) * pre.invDir.z;
    t1 = (box.hi.z - ray.origin.z) * pre.invDir.z;
    tmin = kernelMax(tmin, kernelMin(t0, t1));
    tmax = kernelMin(tmax, kernelMax(t0, t1));

    tmin = kernelMax(tmin, ray.tMin);
    tmax = kernelMin(tmax, ray.tMax);

    if (tmin <= tmax) {
        tEntry = tmin;
        return true;
    }
    return false;
}

bool
intersectRayAabb(const Ray &ray, const Aabb &box, float &tEntry)
{
    return intersectRayAabb(ray, RayBoxPrecomp(ray), box, tEntry);
}

bool
intersectRayTriangle(const Ray &ray, const Triangle &tri, HitRecord &rec)
{
    Vec3 e1 = tri.v1 - tri.v0;
    Vec3 e2 = tri.v2 - tri.v0;
    Vec3 pvec = cross(ray.dir, e2);
    float det = dot(e1, pvec);

    // Cull near-degenerate configurations with a threshold relative to
    // the operand magnitudes (a fixed absolute epsilon is
    // scale-dependent: near-degenerate triangles in large-coordinate
    // scenes would pass it and produce a huge inv_det). The bound is
    // the sum of the absolute dot-product terms — the quantity against
    // which catastrophic cancellation in det is actually measured — so
    // it is scale-invariant without needing square roots. <= (not <) so
    // fully degenerate triangles (eps == det == 0) are still culled.
    // We do not backface-cull because occlusion rays must detect hits
    // from either side.
    float eps = kTriDetEpsRel * (std::fabs(e1.x * pvec.x) +
                                 std::fabs(e1.y * pvec.y) +
                                 std::fabs(e1.z * pvec.z));
    if (std::fabs(det) <= eps)
        return false;

    float inv_det = 1.0f / det;
    Vec3 tvec = ray.origin - tri.v0;
    float u = dot(tvec, pvec) * inv_det;
    if (u < 0.0f || u > 1.0f)
        return false;

    Vec3 qvec = cross(tvec, e1);
    float v = dot(ray.dir, qvec) * inv_det;
    if (v < 0.0f || u + v > 1.0f)
        return false;

    float t = dot(e2, qvec) * inv_det;
    if (t <= ray.tMin || t >= ray.tMax)
        return false;

    // A zero-area triangle (parallel edges: coincident or collinear
    // corners) is never hit. Its det is rounding noise, which a ray
    // nearly parallel to the edges can lift past the cull above, and
    // u, v and t divided by it are noise too. Checked last, so only
    // candidate hits pay for it.
    const Vec3 n = cross(e1, e2);
    if (n.x == 0.0f && n.y == 0.0f && n.z == 0.0f)
        return false;

    rec.hit = true;
    rec.t = t;
    rec.u = u;
    rec.v = v;
    return true;
}

} // namespace rtp
