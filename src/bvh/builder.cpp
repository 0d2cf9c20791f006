#include "bvh/builder.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/host.hpp"

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

/** Split-log entry of a leaf; any other entry is a split slot. */
constexpr std::uint32_t kLeaf = ~0u;

/** Nodes this deep are leaves whatever their size. */
constexpr std::uint32_t kMaxDepth = 60;

/** Primitives per worker below which a build starts no more. */
constexpr std::uint32_t kPrimsPerWorker = 4096;

/** Subtrees per worker, so that uneven SAH splits still balance. */
constexpr std::size_t kSubtreesPerWorker = 4;

/**
 * One thread's SAH scratch, sahBins entries each. A node is done with
 * it before its children are split, so one set serves every node the
 * thread splits.
 */
struct SahScratch
{
    explicit SahScratch(std::size_t n_bins)
        : bins(n_bins), rightArea(n_bins), rightCount(n_bins)
    {}

    std::vector<Bin> bins;
    std::vector<float> rightArea;
    std::vector<std::uint32_t> rightCount;
};

/** The build's inputs and the permutation its splits partition. */
struct BuildInputs
{
    const std::vector<PrimInfo> &prims;
    std::vector<std::uint32_t> &primIndices;
    const BvhBuildConfig &config;
};

/**
 * Decide the node over primIndices[first, first+count) at @p depth with
 * Wald's binned SAH ("On fast construction of SAH-based BVHs", 2007):
 * partition its range and return the first slot of its right child, or
 * kLeaf. It reads and permutes only its own range, so disjoint ranges
 * may be split concurrently.
 */
std::uint32_t
splitNode(const BuildInputs &in, SahScratch &scratch, std::uint32_t first,
          std::uint32_t count, std::uint32_t depth)
{
    const BvhBuildConfig &config = in.config;
    std::vector<std::uint32_t> &prim_indices = in.primIndices;
    if (count <= static_cast<std::uint32_t>(config.maxLeafSize) ||
        depth >= kMaxDepth)
        return kLeaf;

    Aabb bounds, centroid_bounds;
    for (std::uint32_t i = 0; i < count; ++i) {
        const PrimInfo &p = in.prims[prim_indices[first + i]];
        bounds.extend(p.bounds);
        centroid_bounds.extend(p.centroid);
    }

    int axis = centroid_bounds.longestAxis();
    float axis_lo = centroid_bounds.lo[axis];
    float axis_extent = centroid_bounds.extent()[axis];
    std::uint32_t mid = first + count / 2;

    if (axis_extent < 1e-12f) {
        // All centroids coincide on the split axis: median split by
        // index to guarantee progress.
        std::nth_element(prim_indices.begin() + first,
                         prim_indices.begin() + mid,
                         prim_indices.begin() + first + count);
        return mid;
    }

    // Binned SAH on the longest centroid axis.
    const int n_bins = config.sahBins;
    std::vector<Bin> &bins = scratch.bins;
    std::fill(bins.begin(), bins.end(), Bin{});
    float inv_extent = n_bins / axis_extent;
    auto bin_of = [&](std::uint32_t prim) {
        float c = in.prims[prim].centroid[axis];
        int b = static_cast<int>((c - axis_lo) * inv_extent);
        return std::clamp(b, 0, n_bins - 1);
    };
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t prim = prim_indices[first + i];
        Bin &b = bins[bin_of(prim)];
        b.bounds.extend(in.prims[prim].bounds);
        b.count++;
    }

    // Sweep to find the cheapest split plane between bins.
    std::vector<float> &right_area = scratch.rightArea;
    std::vector<std::uint32_t> &right_count = scratch.rightCount;
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
        float cost = config.traversalCost +
                     config.intersectCost *
                         (acc.surfaceArea() * cnt +
                          right_area[b + 1] * right_count[b + 1]) /
                         std::max(parent_area, 1e-20f);
        if (cost < best_cost) {
            best_cost = cost;
            best_split = b;
        }
    }

    float leaf_cost = config.intersectCost * count;
    if (best_split < 0 ||
        (best_cost >= leaf_cost &&
         count <= 4 * static_cast<std::uint32_t>(config.maxLeafSize)))
        return kLeaf;

    auto pivot = std::partition(
        prim_indices.begin() + first, prim_indices.begin() + first + count,
        [&](std::uint32_t prim) { return bin_of(prim) <= best_split; });
    mid = static_cast<std::uint32_t>(pivot - prim_indices.begin());
    if (mid == first || mid == first + count) {
        // Degenerate partition; fall back to a median split.
        mid = first + count / 2;
        std::nth_element(prim_indices.begin() + first,
                         prim_indices.begin() + mid,
                         prim_indices.begin() + first + count,
                         [&](std::uint32_t a, std::uint32_t b) {
                             return in.prims[a].centroid[axis] <
                                    in.prims[b].centroid[axis];
                         });
    }
    return mid;
}

/**
 * Phase 1: split the subtree over primIndices[first, first+count)
 * recursively and append one log entry per node in preorder (its split
 * slot, or kLeaf). A subtree of count primitives has at most
 * 2·count − 1 nodes, so that bounds what @p log must hold.
 */
void
recordSubtree(const BuildInputs &in, SahScratch &scratch,
              std::uint32_t *log, std::uint32_t &len, std::uint32_t first,
              std::uint32_t count, std::uint32_t depth)
{
    const std::uint32_t mid = splitNode(in, scratch, first, count, depth);
    log[len++] = mid;
    if (mid == kLeaf)
        return;
    recordSubtree(in, scratch, log, len, first, mid - first, depth + 1);
    recordSubtree(in, scratch, log, len, mid, first + count - mid,
                  depth + 1);
}

/** Phase 2 state of one subtree's replay into its node range. */
struct Replay
{
    const std::vector<PrimInfo> &prims;
    const std::vector<std::uint32_t> &primIndices;
    std::vector<BvhNode> &nodes;
    std::vector<std::uint32_t> &slotToLeaf;
    const std::uint32_t *log; //!< the subtree's split log
    std::uint32_t base;       //!< node index of the subtree's root
    std::uint32_t next;       //!< next node index to fill
    std::uint32_t maxDepth;
};

/**
 * Phase 2: fill the node the next log entry describes and its subtree,
 * and @return its index. Nodes are numbered in preorder, so a node's
 * index is its Euler entry and the next free index after its subtree
 * its exit. Leaf boxes come from their primitives in slot order and
 * interior boxes are the union of their children's; both equal the box
 * of all the node's primitives bit for bit, since min/max return the
 * later of two equal operands (geometry/vec3.hpp).
 */
std::uint32_t
replayNode(Replay &r, std::uint32_t first, std::uint32_t count,
           std::uint32_t depth, std::int32_t parent)
{
    const std::uint32_t idx = r.next++;
    const std::uint32_t mid = r.log[idx - r.base];
    BvhNode &n = r.nodes[idx];
    n.parent = parent;
    n.depth = depth;
    n.eulerIn = idx;
    if (mid == kLeaf) {
        n.firstPrim = first;
        n.primCount = count;
        for (std::uint32_t i = first; i < first + count; ++i) {
            n.box.extend(r.prims[r.primIndices[i]].bounds);
            r.slotToLeaf[i] = idx;
        }
        r.maxDepth = std::max(r.maxDepth, depth);
    } else {
        const auto self = static_cast<std::int32_t>(idx);
        n.left = static_cast<std::int32_t>(
            replayNode(r, first, mid - first, depth + 1, self));
        n.right = static_cast<std::int32_t>(
            replayNode(r, mid, first + count - mid, depth + 1, self));
        n.box.extend(r.nodes[n.left].box);
        n.box.extend(r.nodes[n.right].box);
    }
    n.eulerOut = r.next;
    return idx;
}

/**
 * A node of the top levels, which the caller splits before the
 * workers start. Its leaves are the subtrees the workers build.
 */
struct TopNode
{
    std::uint32_t first;
    std::uint32_t count;
    std::uint32_t depth;
    std::uint32_t mid = kLeaf;  //!< split slot; kLeaf for a subtree
    std::uint32_t left = 0;     //!< children, indices into the top nodes
    std::uint32_t right = 0;
    bool splittable = true;     //!< subtree the top levels may split
    std::uint32_t node = 0;     //!< index in the node array
    std::uint32_t end = 0;      //!< one past its subtree's last node
    std::int32_t parent = -1;   //!< parent's index in the node array
    std::uint32_t logLen = 0;   //!< subtree: nodes it records
    std::uint32_t maxDepth = 0; //!< subtree: its deepest leaf
};

/**
 * Split the top levels, largest subtree first, until there are
 * @p target subtrees or none can be split. @return the subtrees'
 * indices into @p top.
 */
std::vector<std::uint32_t>
splitTopLevels(const BuildInputs &in, SahScratch &scratch,
               std::vector<TopNode> &top, std::size_t target)
{
    auto size = [&](std::uint32_t i) {
        return top[i].splittable ? top[i].count : 0u;
    };
    std::vector<std::uint32_t> subtrees{0};
    while (subtrees.size() < target) {
        const auto pick = std::max_element(
            subtrees.begin(), subtrees.end(),
            [&](std::uint32_t a, std::uint32_t b) {
                return size(a) < size(b);
            });
        if (size(*pick) == 0)
            break;
        const std::uint32_t i = *pick;
        const TopNode t = top[i]; // a copy: push_back moves top
        const std::uint32_t mid =
            splitNode(in, scratch, t.first, t.count, t.depth);
        if (mid == kLeaf) {
            top[i].splittable = false; // its worker records one leaf
            continue;
        }
        const auto left = static_cast<std::uint32_t>(top.size());
        top.push_back({t.first, mid - t.first, t.depth + 1});
        top.push_back({mid, t.first + t.count - mid, t.depth + 1});
        top[i].mid = mid;
        top[i].left = left;
        top[i].right = left + 1;
        *pick = left;
        subtrees.push_back(left + 1);
    }
    return subtrees;
}

/**
 * Number the top levels and the subtrees in preorder from @p next:
 * each top node takes one index, each subtree a range of its logLen.
 */
void
numberTopLevels(std::vector<TopNode> &top, std::uint32_t i,
                std::int32_t parent, std::uint32_t &next)
{
    TopNode &t = top[i];
    t.node = next;
    t.parent = parent;
    if (t.mid == kLeaf) {
        next += t.logLen;
    } else {
        ++next;
        numberTopLevels(top, t.left, static_cast<std::int32_t>(t.node),
                        next);
        numberTopLevels(top, t.right, static_cast<std::int32_t>(t.node),
                        next);
    }
    t.end = next;
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

    const auto n = static_cast<std::uint32_t>(triangles.size());
    Bvh bvh;
    bvh.primIndices_.resize(n);
    std::iota(bvh.primIndices_.begin(), bvh.primIndices_.end(), 0u);
    const BuildInputs in{prims, bvh.primIndices_, config_};

    // Every buffer a worker touches is allocated here, before any
    // starts: workers allocate nothing, which keeps glibc from giving
    // them arenas of their own (docs/performance.md, peak_rss_mb).
    const std::uint32_t workers = freeCpuWorkers(n / kPrimsPerWorker);
    std::vector<SahScratch> scratch;
    scratch.reserve(workers);
    for (std::uint32_t w = 0; w < workers; ++w)
        scratch.emplace_back(static_cast<std::size_t>(config_.sahBins));
    std::vector<TopNode> top{{0, n, 0}};
    const std::vector<std::uint32_t> subtrees = splitTopLevels(
        in, scratch[0], top,
        workers > 1 ? kSubtreesPerWorker * workers : 1);
    // Largest first, so that no big subtree starts last.
    std::vector<std::uint32_t> order = subtrees;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return top[a].count > top[b].count;
              });
    // Subtree [first, first+count) logs into [2·first, 2·first+2·count).
    const auto logs = std::make_unique_for_overwrite<std::uint32_t[]>(
        2 * static_cast<std::size_t>(n));
    auto for_each_subtree = [&](auto &&fn) {
        std::atomic<std::size_t> taken{0};
        runWorkers(workers, [&](std::uint32_t w) {
            while (true) {
                const std::size_t k = taken.fetch_add(1);
                if (k >= order.size())
                    return;
                fn(w, top[order[k]]);
            }
        });
    };

    for_each_subtree([&](std::uint32_t w, TopNode &t) {
        std::uint32_t len = 0; // a local: neighbouring TopNodes share lines
        recordSubtree(in, scratch[w], logs.get() + 2 * t.first, len,
                      t.first, t.count, t.depth);
        t.logLen = len;
    });

    std::uint32_t total = 0;
    numberTopLevels(top, 0, -1, total);
    // Capacity for the 2n − 1 nodes a tree can have; only the first
    // `total` are touched. With the array sized exactly, rtp_bench's
    // pathtrace peak_rss_mb varied from 28.9 to 34.8 MB between runs;
    // with this reserve, 30.5–32.9 MB (docs/performance.md).
    bvh.nodes_.reserve(2 * static_cast<std::size_t>(n));
    bvh.nodes_.resize(total);
    bvh.slotToLeaf_.resize(n);
    for_each_subtree([&](std::uint32_t, TopNode &t) {
        Replay r{prims, bvh.primIndices_, bvh.nodes_, bvh.slotToLeaf_,
                 logs.get() + 2 * t.first, t.node, t.node, 0};
        replayNode(r, t.first, t.count, t.depth, t.parent);
        t.maxDepth = r.maxDepth;
    });

    // The top levels last: a top node's children follow it in `top`,
    // so a reverse sweep meets them first.
    for (std::size_t i = top.size(); i-- > 0;) {
        const TopNode &t = top[i];
        if (t.mid == kLeaf) {
            bvh.maxDepth_ = std::max(bvh.maxDepth_, t.maxDepth);
            continue;
        }
        BvhNode &node = bvh.nodes_[t.node];
        node.left = static_cast<std::int32_t>(top[t.left].node);
        node.right = static_cast<std::int32_t>(top[t.right].node);
        node.parent = t.parent;
        node.depth = t.depth;
        node.eulerIn = t.node;
        node.eulerOut = t.end;
        node.box.extend(bvh.nodes_[node.left].box);
        node.box.extend(bvh.nodes_[node.right].box);
    }
    return bvh;
}

} // namespace rtp
