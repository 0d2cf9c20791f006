/**
 * @file
 * Global-illumination example (Section 6.4): renders a small
 * path-traced image (3 diffuse bounces) and runs the bounce rays
 * through the cycle model. Closest-hit rays cannot skip the traversal;
 * the predictor instead trims tMax from a predicted intersection, which
 * the paper found gives a modest (~4%) speedup.
 *
 * Run:  ./example_global_illumination [scene] [out.pgm]
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "geometry/onb.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"
#include "util/rng.hpp"

using namespace rtp;

namespace {

SceneId
parseScene(const char *name)
{
    for (SceneId id : allSceneIds()) {
        if (sceneShortName(id) == name)
            return id;
    }
    return SceneId::LivingRoom;
}

} // namespace

int
main(int argc, char **argv)
{
    SceneId id = argc > 1 ? parseScene(argv[1]) : SceneId::LivingRoom;
    std::string out_path = argc > 2 ? argv[2] : "gi.pgm";

    Scene scene = makeScene(id, 0.12f);
    Bvh bvh = BvhBuilder().build(scene.mesh.triangles());
    const auto &tris = scene.mesh.triangles();
    BvhTraversal trav(bvh, tris);
    std::printf("Path tracing %s (%zu triangles), 3 bounces\n",
                scene.name.c_str(), scene.mesh.size());

    const int width = 120, height = 120, spp = 4, bounces = 3;
    float diag = bvh.sceneBounds().diagonal();
    Rng rng(99);
    std::vector<unsigned char> image(width * height);
    std::vector<Ray> bounce_rays;

    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            float radiance = 0.0f;
            for (int s = 0; s < spp; ++s) {
                Ray ray = scene.camera.generateRay(
                    (x + rng.nextFloat()) / width,
                    (y + rng.nextFloat()) / height, 1.0f);
                float throughput = 1.0f;
                for (int b = 0; b <= bounces; ++b) {
                    HitRecord rec = trav.closestHit(ray);
                    if (!rec.hit) {
                        radiance += throughput; // hit the "sky"
                        break;
                    }
                    // Diffuse bounce with 0.6 albedo.
                    throughput *= 0.6f;
                    Vec3 p = ray.at(rec.t);
                    Vec3 n = normalize(
                        tris[rec.prim].geometricNormal());
                    if (dot(n, ray.dir) > 0)
                        n = -n;
                    Onb onb(n);
                    Ray next;
                    next.origin = p + n * (1e-5f * diag);
                    next.dir = onb.toWorld(cosineSampleHemisphere(
                        rng.nextFloat(), rng.nextFloat()));
                    next.kind = RayKind::Secondary;
                    if (b < bounces)
                        bounce_rays.push_back(next);
                    ray = next;
                }
            }
            image[y * width + x] = static_cast<unsigned char>(
                std::min(255.0f, 255.0f * radiance / spp));
        }
    }

    std::ofstream f(out_path, std::ios::binary);
    f << "P5\n" << width << " " << height << "\n255\n";
    f.write(reinterpret_cast<const char *>(image.data()),
            static_cast<std::streamsize>(image.size()));
    std::printf("Wrote %s; %zu bounce rays collected\n",
                out_path.c_str(), bounce_rays.size());

    std::printf("\nSimulating bounce rays (closest-hit, tMax "
                "trimming)...\n");
    SimResult base =
        Simulation(SimConfig::baseline(), bvh, tris).run(bounce_rays);
    SimResult pred =
        Simulation(SimConfig::proposed(), bvh, tris).run(bounce_rays);
    std::printf("Baseline %llu cycles, predictor %llu cycles -> "
                "%+.1f%% (paper: ~+4%%)\n",
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(pred.cycles),
                (static_cast<double>(base.cycles) / pred.cycles - 1) *
                    100);
    return 0;
}
