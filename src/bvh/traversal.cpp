#include "bvh/traversal.hpp"

namespace rtp {

const std::vector<std::uint32_t> &
collectHitLeaves(const Bvh &bvh, const std::vector<Triangle> &triangles,
                 const Ray &ray, HitLeafScratch &scratch)
{
    std::vector<std::uint32_t> &leaves = scratch.leaves;
    std::vector<std::uint32_t> &stack = scratch.stack;
    leaves.clear();
    stack.clear();
    RayBoxPrecomp pre(ray);
    float t_entry;
    if (!intersectRayAabb(ray, pre, bvh.node(kBvhRoot).box, t_entry))
        return leaves;
    stack.push_back(kBvhRoot);

    while (!stack.empty()) {
        std::uint32_t node_idx = stack.back();
        stack.pop_back();
        const BvhNode &node = bvh.node(node_idx);
        if (node.isLeaf()) {
            for (std::uint32_t i = 0; i < node.primCount; ++i) {
                std::uint32_t tri =
                    bvh.primIndices()[node.firstPrim + i];
                HitRecord h;
                if (intersectRayTriangle(ray, triangles[tri], h)) {
                    leaves.push_back(node_idx);
                    break;
                }
            }
        } else {
            float t;
            if (intersectRayAabb(ray, pre,
                                 bvh.node(node.left).box, t))
                stack.push_back(static_cast<std::uint32_t>(node.left));
            if (intersectRayAabb(ray, pre,
                                 bvh.node(node.right).box, t))
                stack.push_back(static_cast<std::uint32_t>(node.right));
        }
    }
    return leaves;
}

BvhTraversal::BvhTraversal(const Bvh &bvh,
                           const std::vector<Triangle> &triangles)
    : bvh_(bvh), triangles_(triangles)
{
    stack_.reserve(64);
}

HitRecord
BvhTraversal::closestHit(const Ray &ray, TraversalStats *stats,
                         std::uint32_t start_node)
{
    return walk<HitPolicy::Closest>(ray, stats, start_node);
}

HitRecord
BvhTraversal::anyHit(const Ray &ray, TraversalStats *stats,
                     std::uint32_t start_node)
{
    return walk<HitPolicy::Any>(ray, stats, start_node);
}

template <BvhTraversal::HitPolicy P>
HitRecord
BvhTraversal::walk(const Ray &ray, TraversalStats *stats,
                   std::uint32_t start_node)
{
    constexpr bool kClosest = P == HitPolicy::Closest;
    HitRecord best;
    Ray r = ray; // closest-hit: tMax shrinks as candidates are found
    RayBoxPrecomp pre(r);
    stack_.clear();

    // Seed: test the start node's box; if missed, traversal is empty.
    float t_entry;
    if (stats)
        stats->boxTests++;
    if (!intersectRayAabb(r, pre, bvh_.node(start_node).box, t_entry))
        return best;
    stack_.push_back(start_node);

    while (!stack_.empty()) {
        std::uint32_t node_idx = stack_.back();
        stack_.pop_back();
        const BvhNode &node = bvh_.node(node_idx);

        // Closest-hit: re-check against the shrunken interval before
        // fetching (not counted as a box test).
        float t_dummy;
        if (kClosest && !intersectRayAabb(r, pre, node.box, t_dummy))
            continue;
        if (stats) {
            stats->nodesFetched++;
            if (node.isLeaf())
                stats->leavesFetched++;
            if (stats->recordTrace)
                stats->nodeTrace.push_back(node_idx);
        }

        if (node.isLeaf()) {
            for (std::uint32_t i = 0; i < node.primCount; ++i) {
                std::uint32_t tri = bvh_.primIndices()[node.firstPrim + i];
                if (stats)
                    stats->triTests++;
                HitRecord h;
                if (intersectRayTriangle(r, triangles_[tri], h)) {
                    h.prim = tri;
                    if (!kClosest)
                        return h; // any-hit: first intersection wins
                    best = h;
                    r.tMax = h.t;
                }
            }
        } else {
            auto lc = static_cast<std::uint32_t>(node.left);
            auto rc = static_cast<std::uint32_t>(node.right);
            float tl, tr;
            if (stats)
                stats->boxTests += 2;
            bool hit_l = intersectRayAabb(r, pre, bvh_.node(lc).box, tl);
            bool hit_r = intersectRayAabb(r, pre, bvh_.node(rc).box, tr);
            if (hit_l && hit_r) {
                // Visit the nearer child first: push it last.
                if (tl <= tr) {
                    stack_.push_back(rc);
                    stack_.push_back(lc);
                } else {
                    stack_.push_back(lc);
                    stack_.push_back(rc);
                }
            } else if (hit_l) {
                stack_.push_back(lc);
            } else if (hit_r) {
                stack_.push_back(rc);
            }
        }
    }
    return best;
}

bool
bruteForceAnyHit(const std::vector<Triangle> &triangles, const Ray &ray)
{
    HitRecord h;
    for (const auto &tri : triangles) {
        if (intersectRayTriangle(ray, tri, h))
            return true;
    }
    return false;
}

HitRecord
bruteForceClosestHit(const std::vector<Triangle> &triangles, const Ray &ray)
{
    HitRecord best;
    Ray r = ray;
    for (std::size_t i = 0; i < triangles.size(); ++i) {
        HitRecord h;
        if (intersectRayTriangle(r, triangles[i], h)) {
            h.prim = static_cast<std::uint32_t>(i);
            best = h;
            r.tMax = h.t;
        }
    }
    return best;
}

} // namespace rtp
