/**
 * @file
 * Heap contracts of the host kernels that run beside the simulator.
 * BVH build and AO generation workers neither allocate nor free: every
 * buffer they use, and their start state, belongs to the thread that
 * runs them, so glibc gives none of them an arena of its own
 * (runWorkers, util/host.hpp; peak_rss_mb, docs/performance.md).
 * collectHitLeaves allocates nothing once its scratch has grown.
 * Shares the counting executable (alloc_count.hpp).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <new>

#include "alloc_count.hpp"
#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"
#include "util/host.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

const Scene &
sponza()
{
    static const Scene s = makeScene(SceneId::CrytekSponza, 0.12f);
    return s;
}

TEST(WorkerHeap, CountsEveryWorkerThread)
{
    std::uint64_t before = workerHeapCalls();
    runWorkers(3, [](std::uint32_t) {
        ::operator delete(::operator new(16));
    });
    EXPECT_EQ(workerHeapCalls() - before, 6u);
    // The caller's own calls are not a worker's.
    before = workerHeapCalls();
    ::operator delete(::operator new(16));
    EXPECT_EQ(workerHeapCalls() - before, 0u);
}

TEST(WorkerHeap, BvhBuildWorkersMakeNoHeapCalls)
{
    const auto &tris = sponza().mesh.triangles();
    for (std::uint32_t workers : {2u, 3u, 8u}) {
        ForcedWorkerCount forced(workers);
        const std::uint64_t before = workerHeapCalls();
        Bvh bvh = BvhBuilder().build(tris);
        EXPECT_EQ(workerHeapCalls() - before, 0u) << workers << " workers";
        EXPECT_EQ(bvh.validate(tris.size()), "");
    }
}

TEST(WorkerHeap, AoGenerationWorkersMakeNoHeapCalls)
{
    const Bvh bvh = BvhBuilder().build(sponza().mesh.triangles());
    RayGenConfig config;
    // Two passes over the primary-hit buffer.
    config.width = 136;
    config.height = 136;
    config.samplesPerPixel = 1;
    config.viewportFraction = 136.0f / 1024.0f;
    for (std::uint32_t workers : {2u, 3u, 8u}) {
        ForcedWorkerCount forced(workers);
        const std::uint64_t before = workerHeapCalls();
        RayBatch batch = generateAoRays(sponza(), bvh, config);
        EXPECT_EQ(workerHeapCalls() - before, 0u) << workers << " workers";
        EXPECT_GT(batch.primaryHits, 0u);
    }
}

TEST(HitLeavesAlloc, WarmScratchAllocatesNothing)
{
    const auto &tris = sponza().mesh.triangles();
    const Bvh bvh = BvhBuilder().build(tris);
    const Aabb box = bvh.sceneBounds();
    Rng rng(5);
    std::vector<Ray> rays(2000);
    for (Ray &r : rays) {
        r.origin = box.lo + box.extent() * Vec3{rng.nextFloat(),
                                                rng.nextFloat(),
                                                rng.nextFloat()};
        r.dir = normalize(Vec3{rng.nextRange(-1, 1), rng.nextRange(-1, 1),
                               rng.nextRange(-1, 1)});
        r.tMin = 1e-4f;
        r.tMax = box.diagonal();
    }
    HitLeafScratch scratch;
    std::uint64_t leaves = 0;
    for (const Ray &r : rays) // grows the scratch to its high-water mark
        leaves += collectHitLeaves(bvh, tris, r, scratch).size();
    const std::uint64_t before = allocationCount();
    for (const Ray &r : rays)
        collectHitLeaves(bvh, tris, r, scratch);
    EXPECT_EQ(allocationCount() - before, 0u);
    EXPECT_GT(leaves, rays.size()); // most rays cross several leaves
}

} // namespace
} // namespace rtp
