/**
 * @file
 * Quickstart: the smallest end-to-end use of the library.
 *
 * Builds a benchmark scene, constructs its BVH, generates an AO ray
 * workload, and runs it twice through the cycle-level GPU model — once
 * on the baseline RT unit and once with the ray intersection predictor
 * — then prints the speedup and the predictor's behaviour.
 *
 * Run:  ./example_quickstart
 */

#include <cstdio>

#include "bvh/builder.hpp"
#include "energy/energy_model.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"

int
main()
{
    using namespace rtp;

    // 1. Build a scene (a Crytek-Sponza-like atrium at reduced detail).
    Scene scene = makeScene(SceneId::CrytekSponza, 0.12f);
    std::printf("Scene: %s, %zu triangles\n", scene.name.c_str(),
                scene.mesh.size());

    // 2. Build the BVH the RT unit will traverse.
    Bvh bvh = BvhBuilder().build(scene.mesh.triangles());
    std::printf("BVH: %u nodes, depth %u\n", bvh.nodeCount(),
                bvh.maxDepth());

    // 3. Generate ambient-occlusion rays (4 per primary hit point).
    RayGenConfig raygen;
    raygen.width = 96;
    raygen.height = 96;
    raygen.samplesPerPixel = 4;
    raygen.viewportFraction = 96.0f / 1024.0f; // paper pixel density
    RayBatch ao = generateAoRays(scene, bvh, raygen);
    std::printf("AO rays: %zu (from %llu primary hits)\n",
                ao.rays.size(),
                static_cast<unsigned long long>(ao.primaryHits));

    // 4. Simulate: baseline RT unit vs predictor-augmented RT unit.
    const auto &tris = scene.mesh.triangles();
    SimResult base = Simulation(SimConfig::baseline(), bvh, tris).run(ao.rays);
    SimResult pred = Simulation(SimConfig::proposed(), bvh, tris).run(ao.rays);

    std::printf("\nBaseline:  %llu cycles\n",
                static_cast<unsigned long long>(base.cycles));
    std::printf("Predictor: %llu cycles  -> speedup %.2fx\n",
                static_cast<unsigned long long>(pred.cycles),
                static_cast<double>(base.cycles) / pred.cycles);
    std::printf("Predicted %.1f%% of rays, verified %.1f%%, "
                "memory fetches %+.1f%%\n",
                pred.predictedRate() * 100, pred.verifiedRate() * 100,
                (static_cast<double>(pred.totalMemAccesses()) /
                     base.totalMemAccesses() -
                 1.0) *
                    100);

    EnergyBreakdown eb = computeEnergy(base, 2);
    EnergyBreakdown ep = computeEnergy(pred, 2);
    std::printf("Energy: %.1f -> %.1f nJ/ray (%.1f%%)\n", eb.total(),
                ep.total(), (ep.total() / eb.total() - 1.0) * 100);
    return 0;
}
