#include "bvh/builder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>

namespace rtp {

namespace {

/** Per-primitive precomputed data used during the build. */
struct PrimInfo
{
    Aabb bounds;
    Vec3 centroid;
};

/** SAH bin accumulator. */
struct Bin
{
    Aabb bounds;
    std::uint32_t count = 0;
};

struct BuildContext
{
    const std::vector<PrimInfo> &prims;
    std::vector<std::uint32_t> &primIndices;
    std::vector<BvhNode> &nodes;
    const BvhBuildConfig &config;
    // SAH scratch, sahBins entries each, sized once per build. A node
    // is done with it before it recurses, so one set serves every node.
    std::vector<Bin> bins;
    std::vector<float> rightArea;
    std::vector<std::uint32_t> rightCount;
};

/**
 * Recursively build the subtree over primIndices[first, first+count) and
 * return its node index.
 */
std::uint32_t
buildRecursive(BuildContext &ctx, std::uint32_t first, std::uint32_t count,
               std::uint32_t depth)
{
    Aabb bounds, centroid_bounds;
    for (std::uint32_t i = 0; i < count; ++i) {
        const PrimInfo &p = ctx.prims[ctx.primIndices[first + i]];
        bounds.extend(p.bounds);
        centroid_bounds.extend(p.centroid);
    }

    std::uint32_t node_idx =
        static_cast<std::uint32_t>(ctx.nodes.size());
    ctx.nodes.emplace_back();
    ctx.nodes[node_idx].box = bounds;
    ctx.nodes[node_idx].depth = depth;

    auto make_leaf = [&]() {
        BvhNode &n = ctx.nodes[node_idx];
        n.left = n.right = -1;
        n.firstPrim = first;
        n.primCount = count;
    };

    if (count <= static_cast<std::uint32_t>(ctx.config.maxLeafSize) ||
        depth >= 60) {
        make_leaf();
        return node_idx;
    }

    int axis = centroid_bounds.longestAxis();
    float axis_lo = centroid_bounds.lo[axis];
    float axis_extent = centroid_bounds.extent()[axis];
    std::uint32_t mid = first + count / 2;

    if (axis_extent < 1e-12f) {
        // All centroids coincide on the split axis: median split by
        // index to guarantee progress.
        std::nth_element(ctx.primIndices.begin() + first,
                         ctx.primIndices.begin() + mid,
                         ctx.primIndices.begin() + first + count);
    } else {
        // Binned SAH on the longest centroid axis.
        const int n_bins = ctx.config.sahBins;
        std::vector<Bin> &bins = ctx.bins;
        std::fill(bins.begin(), bins.end(), Bin{});
        float inv_extent = n_bins / axis_extent;
        auto bin_of = [&](std::uint32_t prim) {
            float c = ctx.prims[prim].centroid[axis];
            int b = static_cast<int>((c - axis_lo) * inv_extent);
            return std::clamp(b, 0, n_bins - 1);
        };
        for (std::uint32_t i = 0; i < count; ++i) {
            std::uint32_t prim = ctx.primIndices[first + i];
            Bin &b = bins[bin_of(prim)];
            b.bounds.extend(ctx.prims[prim].bounds);
            b.count++;
        }

        // Sweep to find the cheapest split plane between bins.
        std::vector<float> &right_area = ctx.rightArea;
        std::vector<std::uint32_t> &right_count = ctx.rightCount;
        Aabb acc;
        std::uint32_t cnt = 0;
        for (int b = n_bins - 1; b > 0; --b) {
            acc.extend(bins[b].bounds);
            cnt += bins[b].count;
            right_area[b] = acc.surfaceArea();
            right_count[b] = cnt;
        }
        float best_cost = std::numeric_limits<float>::max();
        int best_split = -1;
        acc = Aabb{};
        cnt = 0;
        float parent_area = bounds.surfaceArea();
        for (int b = 0; b < n_bins - 1; ++b) {
            acc.extend(bins[b].bounds);
            cnt += bins[b].count;
            if (cnt == 0 || right_count[b + 1] == 0)
                continue;
            float cost =
                ctx.config.traversalCost +
                ctx.config.intersectCost *
                    (acc.surfaceArea() * cnt +
                     right_area[b + 1] * right_count[b + 1]) /
                    std::max(parent_area, 1e-20f);
            if (cost < best_cost) {
                best_cost = cost;
                best_split = b;
            }
        }

        float leaf_cost = ctx.config.intersectCost * count;
        if (best_split < 0 ||
            (best_cost >= leaf_cost &&
             count <= 4 * static_cast<std::uint32_t>(
                              ctx.config.maxLeafSize))) {
            make_leaf();
            return node_idx;
        }

        auto pivot = std::partition(
            ctx.primIndices.begin() + first,
            ctx.primIndices.begin() + first + count,
            [&](std::uint32_t prim) { return bin_of(prim) <= best_split; });
        mid = static_cast<std::uint32_t>(
            pivot - ctx.primIndices.begin());
        if (mid == first || mid == first + count) {
            // Degenerate partition; fall back to a median split.
            mid = first + count / 2;
            std::nth_element(
                ctx.primIndices.begin() + first,
                ctx.primIndices.begin() + mid,
                ctx.primIndices.begin() + first + count,
                [&](std::uint32_t a, std::uint32_t b) {
                    return ctx.prims[a].centroid[axis] <
                           ctx.prims[b].centroid[axis];
                });
        }
    }

    std::uint32_t left =
        buildRecursive(ctx, first, mid - first, depth + 1);
    std::uint32_t right =
        buildRecursive(ctx, mid, first + count - mid, depth + 1);
    ctx.nodes[node_idx].left = static_cast<std::int32_t>(left);
    ctx.nodes[node_idx].right = static_cast<std::int32_t>(right);
    return node_idx;
}

bool
isFinite(const Vec3 &v)
{
    return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

void
requireCost(float cost, const char *field)
{
    if (!std::isfinite(cost) || cost < 0.0f)
        throw std::invalid_argument(
            std::string("BvhBuilder: BvhBuildConfig::") + field +
            " must be finite and >= 0, got " + std::to_string(cost));
}

} // namespace

BvhBuilder::BvhBuilder(BvhBuildConfig config) : config_(config)
{
    if (config_.sahBins < 2)
        throw std::invalid_argument(
            "BvhBuilder: BvhBuildConfig::sahBins must be >= 2, got " +
            std::to_string(config_.sahBins));
    if (config_.maxLeafSize < 1)
        throw std::invalid_argument(
            "BvhBuilder: BvhBuildConfig::maxLeafSize must be >= 1, got " +
            std::to_string(config_.maxLeafSize));
    requireCost(config_.traversalCost, "traversalCost");
    requireCost(config_.intersectCost, "intersectCost");
}

Bvh
BvhBuilder::build(const std::vector<Triangle> &triangles) const
{
    if (triangles.empty())
        throw std::invalid_argument("BvhBuilder: empty triangle array");

    std::vector<PrimInfo> prims(triangles.size());
    for (std::size_t i = 0; i < triangles.size(); ++i) {
        const Triangle &t = triangles[i];
        // Checked per vertex: the NaN-dropping min/max behind bounds()
        // would hide a NaN coordinate from the box.
        if (!isFinite(t.v0) || !isFinite(t.v1) || !isFinite(t.v2))
            throw std::invalid_argument(
                "BvhBuilder: triangle " + std::to_string(i) +
                " has a NaN or infinite vertex");
        prims[i].bounds = t.bounds();
        prims[i].centroid = t.centroid();
    }

    Bvh bvh;
    bvh.primIndices_.resize(triangles.size());
    std::iota(bvh.primIndices_.begin(), bvh.primIndices_.end(), 0u);
    bvh.nodes_.reserve(2 * triangles.size());

    {
        // Scoped so the scratch is freed before the post-pass allocates,
        // as the per-node vectors it replaced were. Holding it longer
        // shifted the heap layout and ao_paperscale's peak_rss_mb
        // (docs/performance.md).
        const auto n_bins = static_cast<std::size_t>(config_.sahBins);
        BuildContext ctx{prims,
                         bvh.primIndices_,
                         bvh.nodes_,
                         config_,
                         std::vector<Bin>(n_bins),
                         std::vector<float>(n_bins),
                         std::vector<std::uint32_t>(n_bins)};
        buildRecursive(ctx, 0,
                       static_cast<std::uint32_t>(triangles.size()), 0);
    }

    // Post-pass: parent links, max depth, Euler intervals, slot->leaf map.
    bvh.slotToLeaf_.resize(triangles.size());
    std::uint32_t euler = 0;
    // Iterative preorder walk: eulerIn is assigned on entry, eulerOut
    // when the node's frame is popped again after its subtree.
    struct Frame
    {
        std::uint32_t node;
        bool expanded;
    };
    std::vector<Frame> frames;
    frames.push_back({kBvhRoot, false});
    while (!frames.empty()) {
        Frame f = frames.back();
        frames.pop_back();
        BvhNode &n = bvh.nodes_[f.node];
        if (!f.expanded) {
            n.eulerIn = euler++;
            bvh.maxDepth_ = std::max(bvh.maxDepth_, n.depth);
            frames.push_back({f.node, true});
            if (!n.isLeaf()) {
                bvh.nodes_[n.right].parent =
                    static_cast<std::int32_t>(f.node);
                bvh.nodes_[n.left].parent =
                    static_cast<std::int32_t>(f.node);
                frames.push_back({static_cast<std::uint32_t>(n.right),
                                  false});
                frames.push_back({static_cast<std::uint32_t>(n.left),
                                  false});
            } else {
                for (std::uint32_t i = 0; i < n.primCount; ++i)
                    bvh.slotToLeaf_[n.firstPrim + i] = f.node;
            }
        } else {
            n.eulerOut = euler;
        }
    }

    return bvh;
}

} // namespace rtp
