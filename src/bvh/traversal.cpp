#include "bvh/traversal.hpp"

#include <algorithm>

namespace rtp {

namespace {

/** Record a node fetch in the stats, if stats are being collected. */
inline void
noteFetch(TraversalStats *stats, const Bvh &bvh, std::uint32_t node_idx)
{
    if (!stats)
        return;
    stats->nodesFetched++;
    if (bvh.node(node_idx).isLeaf())
        stats->leavesFetched++;
    else
        stats->interiorFetched++;
    if (stats->recordTrace)
        stats->nodeTrace.push_back(node_idx);
}

} // namespace

HitRecord
traverseAnyHit(const Bvh &bvh, const std::vector<Triangle> &triangles,
               const Ray &ray, TraversalStats *stats,
               std::uint32_t start_node)
{
    HitRecord rec;
    RayBoxPrecomp pre(ray);
    std::vector<std::uint32_t> stack;
    stack.reserve(64);

    // Seed: test the start node's box; if missed, traversal is empty.
    float t_entry;
    if (stats)
        stats->boxTests++;
    if (!intersectRayAabb(ray, pre, bvh.node(start_node).box, t_entry))
        return rec;
    stack.push_back(start_node);

    while (!stack.empty()) {
        if (stats) {
            stats->maxStackDepth = std::max(
                stats->maxStackDepth,
                static_cast<std::uint32_t>(stack.size()));
        }
        std::uint32_t node_idx = stack.back();
        stack.pop_back();
        const BvhNode &node = bvh.node(node_idx);
        noteFetch(stats, bvh, node_idx);

        if (node.isLeaf()) {
            for (std::uint32_t i = 0; i < node.primCount; ++i) {
                std::uint32_t tri =
                    bvh.primIndices()[node.firstPrim + i];
                if (stats)
                    stats->triTests++;
                HitRecord h;
                if (intersectRayTriangle(ray, triangles[tri], h)) {
                    h.prim = tri;
                    return h; // any-hit: first intersection terminates
                }
            }
        } else {
            auto l = static_cast<std::uint32_t>(node.left);
            auto r = static_cast<std::uint32_t>(node.right);
            float tl, tr;
            if (stats)
                stats->boxTests += 2;
            bool hit_l = intersectRayAabb(ray, pre, bvh.node(l).box, tl);
            bool hit_r = intersectRayAabb(ray, pre, bvh.node(r).box, tr);
            if (hit_l && hit_r) {
                // Visit the nearer child first: push it last.
                if (tl <= tr) {
                    stack.push_back(r);
                    stack.push_back(l);
                } else {
                    stack.push_back(l);
                    stack.push_back(r);
                }
            } else if (hit_l) {
                stack.push_back(l);
            } else if (hit_r) {
                stack.push_back(r);
            }
        }
    }
    return rec;
}

HitRecord
traverseClosestHit(const Bvh &bvh, const std::vector<Triangle> &triangles,
                   const Ray &ray, TraversalStats *stats,
                   std::uint32_t start_node)
{
    HitRecord best;
    Ray r = ray; // tMax shrinks as candidates are found
    RayBoxPrecomp pre(r);
    std::vector<std::uint32_t> stack;
    stack.reserve(64);

    float t_entry;
    if (stats)
        stats->boxTests++;
    if (!intersectRayAabb(r, pre, bvh.node(start_node).box, t_entry))
        return best;
    stack.push_back(start_node);

    while (!stack.empty()) {
        if (stats) {
            stats->maxStackDepth = std::max(
                stats->maxStackDepth,
                static_cast<std::uint32_t>(stack.size()));
        }
        std::uint32_t node_idx = stack.back();
        stack.pop_back();
        const BvhNode &node = bvh.node(node_idx);

        // Re-check against the shrunken interval before fetching.
        float t_dummy;
        if (!intersectRayAabb(r, pre, node.box, t_dummy))
            continue;
        noteFetch(stats, bvh, node_idx);

        if (node.isLeaf()) {
            for (std::uint32_t i = 0; i < node.primCount; ++i) {
                std::uint32_t tri =
                    bvh.primIndices()[node.firstPrim + i];
                if (stats)
                    stats->triTests++;
                HitRecord h;
                if (intersectRayTriangle(r, triangles[tri], h)) {
                    h.prim = tri;
                    best = h;
                    r.tMax = h.t;
                }
            }
        } else {
            auto l = static_cast<std::uint32_t>(node.left);
            auto rr = static_cast<std::uint32_t>(node.right);
            float tl, tr;
            if (stats)
                stats->boxTests += 2;
            bool hit_l = intersectRayAabb(r, pre, bvh.node(l).box, tl);
            bool hit_r = intersectRayAabb(r, pre, bvh.node(rr).box, tr);
            if (hit_l && hit_r) {
                if (tl <= tr) {
                    stack.push_back(rr);
                    stack.push_back(l);
                } else {
                    stack.push_back(l);
                    stack.push_back(rr);
                }
            } else if (hit_l) {
                stack.push_back(l);
            } else if (hit_r) {
                stack.push_back(rr);
            }
        }
    }
    return best;
}

std::vector<std::uint32_t>
collectHitLeaves(const Bvh &bvh, const std::vector<Triangle> &triangles,
                 const Ray &ray)
{
    std::vector<std::uint32_t> leaves;
    RayBoxPrecomp pre(ray);
    std::vector<std::uint32_t> stack;
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

HitRecord
traverseAnyHitRestartTrail(const Bvh &bvh,
                           const std::vector<Triangle> &triangles,
                           const Ray &ray, TraversalStats *stats)
{
    // Trail bit d set means: at interior depth d, the current path is
    // (or has been) in the far (right) child. Descents are
    // deterministic for any-hit rays (tMax never shrinks), so each
    // restart replays the same choices from the root.
    HitRecord rec;
    RayBoxPrecomp pre(ray);

    float t_entry;
    if (stats)
        stats->boxTests++;
    if (!intersectRayAabb(ray, pre, bvh.node(kBvhRoot).box, t_entry))
        return rec;

    std::uint64_t trail = 0;
    while (true) {
        std::uint32_t node_idx = kBvhRoot;
        std::uint32_t depth = 0;
        bool popped = false;
        while (true) {
            const BvhNode &node = bvh.node(node_idx);
            noteFetch(stats, bvh, node_idx);

            if (node.isLeaf()) {
                for (std::uint32_t i = 0; i < node.primCount; ++i) {
                    std::uint32_t tri =
                        bvh.primIndices()[node.firstPrim + i];
                    if (stats)
                        stats->triTests++;
                    HitRecord h;
                    if (intersectRayTriangle(ray, triangles[tri], h)) {
                        h.prim = tri;
                        return h;
                    }
                }
                break; // subtree done: pop via trail
            }

            auto near = static_cast<std::uint32_t>(node.left);
            auto far = static_cast<std::uint32_t>(node.right);
            std::uint64_t bit = 1ull << depth;
            float t;
            if (trail & bit) {
                // Near branch already completed; re-verify the far box
                // (geometry may simply miss it).
                if (stats)
                    stats->boxTests++;
                if (intersectRayAabb(ray, pre, bvh.node(far).box, t)) {
                    node_idx = far;
                    depth++;
                    continue;
                }
                break; // both children done here: pop
            }
            if (stats)
                stats->boxTests += 2;
            bool hit_near =
                intersectRayAabb(ray, pre, bvh.node(near).box, t);
            bool hit_far =
                intersectRayAabb(ray, pre, bvh.node(far).box, t);
            if (hit_near) {
                node_idx = near;
                depth++;
                continue;
            }
            if (hit_far) {
                trail |= bit;
                node_idx = far;
                depth++;
                continue;
            }
            break; // neither child hit: pop
        }

        // Pop: deepest level on the current path still in its near
        // branch flips to far; everything deeper resets.
        for (std::uint32_t k = depth; k-- > 0;) {
            std::uint64_t bit = 1ull << k;
            if (!(trail & bit)) {
                trail |= bit;
                // Clear all deeper bits for the fresh far subtree.
                trail &= (bit << 1) - 1;
                popped = true;
                break;
            }
        }
        if (!popped)
            return rec; // trail exhausted: miss
    }
}

BvhTraversal::BvhTraversal(const Bvh &bvh,
                           const std::vector<Triangle> &triangles)
    : bvh_(bvh), triangles_(triangles)
{
    stack_.reserve(64);
}

void
BvhTraversal::leafClosest(Ray &r, const BvhNode &node, HitRecord &best,
                          TraversalStats *stats)
{
    if (stats)
        stats->triTests += node.primCount;
    for (std::uint32_t i = 0; i < node.primCount; ++i) {
        std::uint32_t tri = bvh_.primIndices()[node.firstPrim + i];
        HitRecord h;
        if (intersectRayTriangle(r, triangles_[tri], h)) {
            h.prim = tri;
            best = h;
            r.tMax = h.t;
        }
    }
}

bool
BvhTraversal::leafAny(const Ray &ray, const BvhNode &node,
                      HitRecord &out, TraversalStats *stats)
{
    for (std::uint32_t i = 0; i < node.primCount; ++i) {
        std::uint32_t tri = bvh_.primIndices()[node.firstPrim + i];
        if (stats)
            stats->triTests++;
        HitRecord h;
        if (intersectRayTriangle(ray, triangles_[tri], h)) {
            h.prim = tri;
            out = h;
            return true;
        }
    }
    return false;
}

HitRecord
BvhTraversal::closestHit(const Ray &ray, TraversalStats *stats,
                         std::uint32_t start_node)
{
    HitRecord best;
    Ray r = ray; // tMax shrinks as candidates are found
    RayBoxPrecomp pre(r);
    stack_.clear();

    float t_entry;
    if (stats)
        stats->boxTests++;
    if (!intersectRayAabb(r, pre, bvh_.node(start_node).box, t_entry))
        return best;
    stack_.push_back(start_node);

    while (!stack_.empty()) {
        if (stats) {
            stats->maxStackDepth = std::max(
                stats->maxStackDepth,
                static_cast<std::uint32_t>(stack_.size()));
        }
        std::uint32_t node_idx = stack_.back();
        stack_.pop_back();
        const BvhNode &node = bvh_.node(node_idx);

        // Re-check against the shrunken interval before fetching.
        float t_dummy;
        if (!intersectRayAabb(r, pre, node.box, t_dummy))
            continue;
        noteFetch(stats, bvh_, node_idx);

        if (node.isLeaf()) {
            leafClosest(r, node, best, stats);
        } else {
            auto l = static_cast<std::uint32_t>(node.left);
            auto rr = static_cast<std::uint32_t>(node.right);
            float tl, tr;
            if (stats)
                stats->boxTests += 2;
            bool hit_l =
                intersectRayAabb(r, pre, bvh_.node(l).box, tl);
            bool hit_r =
                intersectRayAabb(r, pre, bvh_.node(rr).box, tr);
            if (hit_l && hit_r) {
                if (tl <= tr) {
                    stack_.push_back(rr);
                    stack_.push_back(l);
                } else {
                    stack_.push_back(l);
                    stack_.push_back(rr);
                }
            } else if (hit_l) {
                stack_.push_back(l);
            } else if (hit_r) {
                stack_.push_back(rr);
            }
        }
    }
    return best;
}

HitRecord
BvhTraversal::anyHit(const Ray &ray, TraversalStats *stats,
                     std::uint32_t start_node)
{
    HitRecord rec;
    RayBoxPrecomp pre(ray);
    stack_.clear();

    float t_entry;
    if (stats)
        stats->boxTests++;
    if (!intersectRayAabb(ray, pre, bvh_.node(start_node).box, t_entry))
        return rec;
    stack_.push_back(start_node);

    while (!stack_.empty()) {
        if (stats) {
            stats->maxStackDepth = std::max(
                stats->maxStackDepth,
                static_cast<std::uint32_t>(stack_.size()));
        }
        std::uint32_t node_idx = stack_.back();
        stack_.pop_back();
        const BvhNode &node = bvh_.node(node_idx);
        noteFetch(stats, bvh_, node_idx);

        if (node.isLeaf()) {
            if (leafAny(ray, node, rec, stats))
                return rec;
        } else {
            auto l = static_cast<std::uint32_t>(node.left);
            auto r = static_cast<std::uint32_t>(node.right);
            float tl, tr;
            if (stats)
                stats->boxTests += 2;
            bool hit_l =
                intersectRayAabb(ray, pre, bvh_.node(l).box, tl);
            bool hit_r =
                intersectRayAabb(ray, pre, bvh_.node(r).box, tr);
            if (hit_l && hit_r) {
                if (tl <= tr) {
                    stack_.push_back(r);
                    stack_.push_back(l);
                } else {
                    stack_.push_back(l);
                    stack_.push_back(r);
                }
            } else if (hit_l) {
                stack_.push_back(l);
            } else if (hit_r) {
                stack_.push_back(r);
            }
        }
    }
    return rec;
}

void
BvhTraversal::closestHitBatch(const std::vector<Ray> &rays,
                              std::vector<HitRecord> &out,
                              TraversalStats *stats)
{
    out.resize(rays.size());
    for (std::size_t i = 0; i < rays.size(); ++i)
        out[i] = closestHit(rays[i], stats);
}

void
BvhTraversal::anyHitBatch(const std::vector<Ray> &rays,
                          std::vector<std::uint8_t> &out,
                          TraversalStats *stats)
{
    out.resize(rays.size());
    for (std::size_t i = 0; i < rays.size(); ++i)
        out[i] = anyHit(rays[i], stats).hit ? 1 : 0;
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
