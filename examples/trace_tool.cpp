/**
 * @file
 * Command-line trace driver, mirroring the paper artifact's workflow
 * (`./magic_CWBVH --anyhit -m model.obj -f rays.ray_file`): load a
 * scene (built-in name or OBJ file), load or generate a ray file, run
 * the baseline and predictor simulations, and dump statistics.
 *
 * Usage:
 *   ./example_trace_tool [options]
 *     -m <scene|file.obj>   scene short name (SB..CK) or an OBJ path
 *     -f <file.rays>        ray file to trace (see --emit-rays)
 *     --emit-rays <file>    generate AO rays for the scene, save, exit
 *     --anyhit              treat rays as occlusion rays (default)
 *     --closest             treat rays as closest-hit rays
 *     --sorted              Morton-sort rays before tracing
 *     --detail <f>          procedural scene detail (default 0.12)
 *     --width/--height <n>  viewport for generated rays (default 96)
 *     --spp <n>             AO samples per pixel (default 4)
 *     --no-predictor        only run the baseline
 *     --dump-stats          print every counter from both runs
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bvh/builder.hpp"
#include "bvh/metrics.hpp"
#include "energy/energy_model.hpp"
#include "gpu/simulator.hpp"
#include "rays/rayfile.hpp"
#include "rays/raygen.hpp"
#include "rays/sorting.hpp"
#include "scene/obj_io.hpp"
#include "scene/registry.hpp"

using namespace rtp;

namespace {

struct Options
{
    std::string model = "SP";
    std::string rayFile;
    std::string emitRays;
    bool anyhit = true;
    bool sorted = false;
    bool predictor = true;
    bool dumpStats = false;
    float detail = 0.12f;
    RayGenConfig raygen;
};

bool
parse(int argc, char **argv, Options &opt)
{
    opt.raygen.viewportFraction = 96.0f / 1024.0f;
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", what);
                std::exit(1);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "-m")) {
            opt.model = need("-m");
        } else if (!std::strcmp(argv[i], "-f")) {
            opt.rayFile = need("-f");
        } else if (!std::strcmp(argv[i], "--emit-rays")) {
            opt.emitRays = need("--emit-rays");
        } else if (!std::strcmp(argv[i], "--anyhit")) {
            opt.anyhit = true;
        } else if (!std::strcmp(argv[i], "--closest")) {
            opt.anyhit = false;
        } else if (!std::strcmp(argv[i], "--sorted")) {
            opt.sorted = true;
        } else if (!std::strcmp(argv[i], "--no-predictor")) {
            opt.predictor = false;
        } else if (!std::strcmp(argv[i], "--dump-stats")) {
            opt.dumpStats = true;
        } else if (!std::strcmp(argv[i], "--detail")) {
            opt.detail = static_cast<float>(std::atof(need("--detail")));
        } else if (!std::strcmp(argv[i], "--width")) {
            opt.raygen.width = std::atoi(need("--width"));
        } else if (!std::strcmp(argv[i], "--height")) {
            opt.raygen.height = std::atoi(need("--height"));
        } else if (!std::strcmp(argv[i], "--spp")) {
            opt.raygen.samplesPerPixel = std::atoi(need("--spp"));
        } else {
            std::fprintf(stderr, "unknown option: %s\n", argv[i]);
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, opt))
        return 1;

    // Resolve the model: built-in scene name or OBJ file.
    Scene scene;
    bool is_builtin = false;
    for (SceneId id : allSceneIds()) {
        if (sceneShortName(id) == opt.model) {
            scene = makeScene(id, opt.detail);
            is_builtin = true;
        }
    }
    if (!is_builtin) {
        scene.name = opt.model;
        scene.shortName = "OBJ";
        std::string why;
        if (!loadObj(opt.model, scene.mesh, &why)) {
            std::fprintf(stderr, "cannot load model %s: %s\n",
                         opt.model.c_str(), why.c_str());
            return 1;
        }
        // Frame the mesh with a default camera looking at its center.
        Aabb b = scene.mesh.bounds();
        scene.camera = Camera(b.center() + Vec3{0.0f, 0.2f, 1.1f} *
                                               b.diagonal(),
                              b.center(), {0, 1, 0}, 55.0f);
    }

    Bvh bvh = BvhBuilder().build(scene.mesh.triangles());
    BvhMetrics bm = computeBvhMetrics(bvh);
    std::printf("model: %s  (%zu tris, %u nodes, depth %u, SAH %.1f)\n",
                scene.name.c_str(), scene.mesh.size(), bvh.nodeCount(),
                bvh.maxDepth(), bm.sahCost);

    if (!opt.emitRays.empty()) {
        RayBatch batch = generateAoRays(scene, bvh, opt.raygen);
        if (!saveRayFile(opt.emitRays, batch)) {
            std::fprintf(stderr, "cannot write %s\n",
                         opt.emitRays.c_str());
            return 1;
        }
        std::printf("emitted %zu AO rays to %s\n", batch.rays.size(),
                    opt.emitRays.c_str());
        return 0;
    }

    RayBatch batch;
    if (!opt.rayFile.empty()) {
        std::string why;
        if (!loadRayFile(opt.rayFile, batch, &why)) {
            std::fprintf(stderr, "cannot load %s\n", why.c_str());
            return 1;
        }
        std::printf("loaded %zu rays from %s\n", batch.rays.size(),
                    opt.rayFile.c_str());
    } else {
        batch = generateAoRays(scene, bvh, opt.raygen);
        std::printf("generated %zu AO rays (%dx%d x%d spp)\n",
                    batch.rays.size(), opt.raygen.width,
                    opt.raygen.height, opt.raygen.samplesPerPixel);
    }
    for (Ray &r : batch.rays)
        r.kind = opt.anyhit ? RayKind::Occlusion : RayKind::Secondary;
    if (opt.sorted)
        sortRaysMorton(batch.rays, bvh.sceneBounds());

    const auto &tris = scene.mesh.triangles();
    SimResult base =
        Simulation(SimConfig::baseline(), bvh, tris).run(batch.rays);
    std::printf("\nbaseline : %llu cycles, %.2f fetches/ray, hit %.1f%%\n",
                static_cast<unsigned long long>(base.cycles),
                static_cast<double>(base.totalMemAccesses()) /
                    std::max<std::uint64_t>(
                        1, base.stats.get("rays_completed")),
                base.hitRate() * 100);

    if (opt.predictor) {
        SimResult pred =
            Simulation(SimConfig::proposed(), bvh, tris).run(batch.rays);
        std::printf("predictor: %llu cycles, %.2f fetches/ray  -> "
                    "%+.1f%% speedup\n",
                    static_cast<unsigned long long>(pred.cycles),
                    static_cast<double>(pred.totalMemAccesses()) /
                        std::max<std::uint64_t>(
                            1, pred.stats.get("rays_completed")),
                    (static_cast<double>(base.cycles) / pred.cycles -
                     1) * 100);
        std::printf("predicted %.1f%%  verified %.1f%%  SIMT %.2f -> "
                    "%.2f\n",
                    pred.predictedRate() * 100,
                    pred.verifiedRate() * 100, base.simtEfficiency,
                    pred.simtEfficiency);
        EnergyBreakdown eb = computeEnergy(base, 2);
        EnergyBreakdown ep = computeEnergy(pred, 2);
        std::printf("energy: %.2f -> %.2f nJ/ray\n", eb.total(),
                    ep.total());
        if (opt.dumpStats) {
            std::printf("\n--- baseline counters ---\n");
            base.stats.dump(std::cout, "  ");
            base.memStats.dump(std::cout, "  mem.");
            std::printf("--- predictor counters ---\n");
            pred.stats.dump(std::cout, "  ");
            pred.memStats.dump(std::cout, "  mem.");
        }
    } else if (opt.dumpStats) {
        base.stats.dump(std::cout, "  ");
        base.memStats.dump(std::cout, "  mem.");
    }
    return 0;
}
