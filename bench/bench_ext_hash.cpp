/**
 * @file
 * Extension experiment (Section 4.2 future work): combined and adaptive
 * hash functions. Reports, for each scheme, how often consecutive
 * colliding rays agree on their Go-Up subtree — the property that turns
 * collisions into verified predictions — plus collision volume.
 *
 *   GridSph 5/3  — the paper's chosen function,
 *   TwoPoint     — the paper's alternative,
 *   Combined     — Grid Spherical XOR Two Point (tighter),
 *   Adaptive     — profile-then-commit bit selection across candidates.
 */

#include <cstdio>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "core/adaptive_hash.hpp"
#include "exp/harness.hpp"

using namespace rtp;

namespace {

struct Score
{
    std::uint64_t collisions = 0;
    std::uint64_t agreements = 0;
};

/** Score a hash function: collisions and go-up agreement. */
template <typename HashFn>
Score
scoreHash(const Workload &w, const std::vector<std::uint32_t> &goup,
          HashFn &&hash)
{
    Score s;
    std::unordered_map<std::uint32_t, std::uint32_t> last;
    for (std::size_t i = 0; i < w.ao.rays.size(); ++i) {
        if (goup[i] == ~0u)
            continue; // miss: nothing to train
        std::uint32_t h = hash(w.ao.rays[i]);
        auto it = last.find(h);
        if (it != last.end()) {
            s.collisions++;
            if (it->second == goup[i])
                s.agreements++;
            it->second = goup[i];
        } else {
            last.emplace(h, goup[i]);
        }
    }
    return s;
}

} // namespace

int
main()
{
    WorkloadConfig wc = WorkloadConfig::fromEnvironment();
    printHeader("Extension: combined & adaptive hashing",
                "Liu et al., MICRO 2021, Section 4.2 (future work)",
                wc);
    WorkloadCache cache(wc);
    std::vector<const Workload *> workloads =
        cache.getAll({SceneId::Sibenik, SceneId::CrytekSponza});

    // The heavy part (ground-truth traversal + scoring) is independent
    // per scene: one job per scene, results printed serially.
    struct SceneScores
    {
        Score grid, two, comb, adaptive;
        HashConfig committed{};
    };
    std::vector<SceneScores> scores = runSweep(
        workloads,
        [](const Workload *wp) {
            const Workload &w = *wp;
            const std::uint32_t goup_level = 3;

            // Precompute each ray's go-up node (ground truth training).
            std::vector<std::uint32_t> tri_to_slot(
                w.bvh.primIndices().size());
            for (std::uint32_t s = 0; s < w.bvh.primIndices().size();
                 ++s)
                tri_to_slot[w.bvh.primIndices()[s]] = s;
            std::vector<std::uint32_t> goup(w.ao.rays.size(), ~0u);
            BvhTraversal trav(w.bvh, w.scene.mesh.triangles());
            for (std::size_t i = 0; i < w.ao.rays.size(); ++i) {
                HitRecord rec = trav.anyHit(w.ao.rays[i]);
                if (rec.hit) {
                    goup[i] = w.bvh.ancestorOf(
                        w.bvh.leafOfPrimSlot(tri_to_slot[rec.prim]),
                        goup_level);
                }
            }

            Aabb bounds = w.bvh.sceneBounds();
            HashConfig gs{HashFunction::GridSpherical, 5, 3, 0.15f};
            HashConfig tp{HashFunction::TwoPoint, 5, 3, 0.15f};
            RayHasher grid(gs, bounds);
            RayHasher two(tp, bounds);
            CombinedRayHasher comb(gs, tp, bounds);
            AdaptiveRayHasher adaptive(
                {
                    {HashFunction::GridSpherical, 4, 3, 0.15f},
                    {HashFunction::GridSpherical, 5, 3, 0.15f},
                    {HashFunction::GridSpherical, 5, 4, 0.15f},
                    {HashFunction::TwoPoint, 5, 3, 0.15f},
                },
                bounds, 4096);
            for (std::size_t i = 0;
                 i < w.ao.rays.size() && !adaptive.committed(); ++i) {
                if (goup[i] != ~0u)
                    adaptive.observe(w.ao.rays[i], goup[i]);
            }

            SceneScores out;
            out.grid = scoreHash(w, goup, [&](const Ray &r) {
                return grid.hash(r);
            });
            out.two = scoreHash(w, goup, [&](const Ray &r) {
                return two.hash(r);
            });
            out.comb = scoreHash(w, goup, [&](const Ray &r) {
                return comb.hash(r);
            });
            out.adaptive = scoreHash(w, goup, [&](const Ray &r) {
                return adaptive.hash(r);
            });
            out.committed = adaptive.bestConfig();
            return out;
        },
        "ext-hash");

    std::printf("%-14s %12s %12s %10s\n", "Hash", "Collisions",
                "Agreements", "AgreeRate");
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const SceneScores &s = scores[i];
        std::printf("--- %s ---\n",
                    workloads[i]->scene.shortName.c_str());
        auto report = [&](const char *name, const Score &sc) {
            std::printf("%-14s %12llu %12llu %9.1f%%\n", name,
                        static_cast<unsigned long long>(sc.collisions),
                        static_cast<unsigned long long>(sc.agreements),
                        sc.collisions == 0
                            ? 0.0
                            : 100.0 * sc.agreements / sc.collisions);
        };
        report("GridSph 5/3", s.grid);
        report("TwoPoint", s.two);
        report("Combined", s.comb);
        report("Adaptive", s.adaptive);
        std::printf("  adaptive committed to originBits=%d "
                    "directionBits=%d %s\n",
                    s.committed.originBits, s.committed.directionBits,
                    s.committed.function == HashFunction::GridSpherical
                        ? "(GridSpherical)"
                        : "(TwoPoint)");
    }
    std::printf("\nHigher agreement rate means collisions translate "
                "into verified predictions;\nhigher collision volume "
                "means more prediction opportunities. The combined\n"
                "hash trades volume for precision; the adaptive scheme "
                "picks per scene.\n");
    return 0;
}
