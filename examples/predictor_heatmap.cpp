/**
 * @file
 * Predictor heatmap: renders an RGB image in which each pixel is
 * colored by the prediction outcome of its AO rays —
 *
 *   green  = verified (traversal elided),
 *   red    = mispredicted (paid the prediction AND a full traversal),
 *   blue   = predicted-miss pressure (not predicted),
 *
 * blended per pixel over its samples. This visualizes WHERE in a frame
 * the predictor succeeds: flat well-trained regions verify, geometric
 * boundaries and first-touch regions mispredict.
 *
 * Run:  ./example_predictor_heatmap [scene] [out.ppm]
 */

#include <cstdio>
#include <string>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "geometry/onb.hpp"
#include "gpu/simulator.hpp"
#include "scene/registry.hpp"
#include "util/image.hpp"
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
    return SceneId::CrytekSponza;
}

} // namespace

int
main(int argc, char **argv)
{
    SceneId id = argc > 1 ? parseScene(argv[1])
                          : SceneId::CrytekSponza;
    std::string out_path = argc > 2 ? argv[2] : "heatmap.ppm";

    Scene scene = makeScene(id, 0.12f);
    Bvh bvh = BvhBuilder().build(scene.mesh.triangles());
    const auto &tris = scene.mesh.triangles();
    BvhTraversal trav(bvh, tris);
    std::printf("Predictor heatmap for %s (%zu triangles)\n",
                scene.name.c_str(), scene.mesh.size());

    const int width = 128, height = 128, spp = 4;
    float diag = bvh.sceneBounds().diagonal();
    Rng rng(4242);

    // Generate AO rays and remember which pixel spawned each.
    std::vector<Ray> rays;
    std::vector<int> pixel_of_ray;
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            Ray primary = scene.camera.generateRay(
                (x + 0.5f) / width, (y + 0.5f) / height, 1.0f);
            HitRecord rec = trav.closestHit(primary);
            if (!rec.hit)
                continue;
            Vec3 p = primary.at(rec.t);
            Vec3 n = normalize(tris[rec.prim].geometricNormal());
            if (dot(n, primary.dir) > 0)
                n = -n;
            Onb onb(n);
            for (int s = 0; s < spp; ++s) {
                Ray ao;
                ao.origin = p + n * (1e-5f * diag);
                ao.dir = onb.toWorld(cosineSampleHemisphere(
                    rng.nextFloat(), rng.nextFloat()));
                ao.tMax = diag * rng.nextRange(0.25f, 0.40f);
                ao.kind = RayKind::Occlusion;
                rays.push_back(ao);
                pixel_of_ray.push_back(y * width + x);
            }
        }
    }
    std::printf("%zu AO rays\n", rays.size());

    SimResult r = Simulation(SimConfig::proposed(), bvh, tris).run(rays);

    // Accumulate per-pixel outcome mix.
    std::vector<int> verified(width * height, 0);
    std::vector<int> mispredicted(width * height, 0);
    std::vector<int> total(width * height, 0);
    for (std::size_t i = 0; i < rays.size(); ++i) {
        int px = pixel_of_ray[i];
        total[px]++;
        if (r.rayResults[i].verified)
            verified[px]++;
        else if (r.rayResults[i].mispredicted)
            mispredicted[px]++;
    }

    Image img(width, height, 3);
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            int px = y * width + x;
            if (total[px] == 0) {
                img.setPixel(x, y, 0.08f, 0.08f, 0.08f);
                continue;
            }
            float v = static_cast<float>(verified[px]) / total[px];
            float m = static_cast<float>(mispredicted[px]) / total[px];
            float u = 1.0f - v - m; // not predicted
            img.setPixel(x, y, 0.15f + 0.85f * m, 0.15f + 0.85f * v,
                         0.15f + 0.85f * u);
        }
    }
    img.writePnm(out_path);
    std::printf("Wrote %s  (green=verified %.1f%%, red=mispredicted "
                "%.1f%%, blue=not predicted)\n",
                out_path.c_str(), r.verifiedRate() * 100,
                static_cast<double>(
                    r.stats.get("rays_mispredicted")) /
                    std::max<std::uint64_t>(
                        1, r.stats.get("rays_completed")) *
                    100);
    return 0;
}
