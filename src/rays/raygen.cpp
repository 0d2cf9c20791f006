#include "rays/raygen.hpp"

#include <algorithm>
#include <cmath>

#include "bvh/traversal.hpp"
#include "geometry/onb.hpp"
#include "util/host.hpp"
#include "util/rng.hpp"

namespace rtp {

namespace {

/** Shading normal on @p prim: geometric normal flipped toward the viewer. */
Vec3
surfaceNormal(const std::vector<Triangle> &tris, std::uint32_t prim,
              const Vec3 &incoming_dir)
{
    Vec3 n = normalize(tris[prim].geometricNormal());
    if (dot(n, incoming_dir) > 0.0f)
        n = -n;
    return n;
}

/** Uniformly distributed unit direction (photon emission). */
Vec3
uniformSphereDir(Rng &rng)
{
    float z = 1.0f - 2.0f * rng.nextFloat();
    float phi = 6.28318530717958647692f * rng.nextFloat();
    float r = std::sqrt(std::max(0.0f, 1.0f - z * z));
    return Vec3{r * std::cos(phi), r * std::sin(phi), z};
}

/** The default light generateShadowRays and the photon pass share. */
Vec3
defaultLight(const Aabb &bounds)
{
    return Vec3{bounds.center().x,
                bounds.hi.y - 0.05f * bounds.extent().y,
                bounds.center().z};
}

/** Pixels traced per pass: bounds the primary-hit buffer. */
constexpr std::size_t kPixelsPerPass = std::size_t{1} << 14;

/** Consecutive pixels one worker traces before moving on. */
constexpr std::size_t kPixelsPerBlock = 64;

/** Pixels per worker below which no more workers start. */
constexpr std::size_t kPixelsPerWorker = 1024;

/** PrimaryHit::prim of a pixel whose primary ray missed. */
constexpr std::uint32_t kNoPrim = ~0u;

/** One pixel's primary closest hit. */
struct PrimaryHit
{
    float t;
    std::uint32_t prim; //!< kNoPrim: the ray missed
};

/**
 * A traversal on cache lines of its own: its stack's end pointer moves
 * on every push and pop, and neighbouring workers' traversals sharing
 * a line made parallel tracing slower than serial.
 */
struct alignas(64) PaddedTraversal
{
    BvhTraversal trav;
};

/** The camera ray through pixel (@p x, @p y). */
Ray
pixelRay(const Scene &scene, const RayGenConfig &config, float aspect,
         int x, int y)
{
    float sx = 0.5f + ((x + 0.5f) / config.width - 0.5f) *
                          config.viewportFraction;
    float sy = 0.5f + ((y + 0.5f) / config.height - 0.5f) *
                          config.viewportFraction;
    return scene.camera.generateRay(sx, sy, aspect);
}

/**
 * Trace every pixel's primary ray to its closest hit, then call
 * consume(primary, hit) for each pixel that hit, in pixel order,
 * counting batch.primaryRays and primaryHits. batch.rays first reserves
 * the most consume may emit, @p per_pixel rays a pixel, so it never
 * reallocates. The hits are traced on the free CPUs (freeCpuWorkers),
 * kPixelsPerPass pixels at a time, into a buffer allocated here like
 * each worker's traversal; consume runs on the caller, so the random
 * numbers it draws come in pixel order at any worker count.
 */
template <class Consume>
void
forEachPrimaryHit(const Scene &scene, const Bvh &bvh,
                  const RayGenConfig &config, RayBatch &batch,
                  int per_pixel, Consume &&consume)
{
    if (config.width <= 0 || config.height <= 0)
        return; // no pixels
    const auto width = static_cast<std::size_t>(config.width);
    const std::size_t pixels =
        width * static_cast<std::size_t>(config.height);
    batch.rays.reserve(pixels * static_cast<std::size_t>(
                                    std::max(0, per_pixel)));
    const float aspect = static_cast<float>(config.width) / config.height;
    auto ray_of = [&](std::size_t p) {
        return pixelRay(scene, config, aspect, static_cast<int>(p % width),
                        static_cast<int>(p / width));
    };

    const std::uint32_t workers = freeCpuWorkers(
        static_cast<std::uint32_t>(pixels / kPixelsPerWorker));
    std::vector<PaddedTraversal> travs;
    travs.reserve(workers);
    for (std::uint32_t w = 0; w < workers; ++w)
        travs.push_back({BvhTraversal(bvh, scene.mesh.triangles())});
    std::vector<PrimaryHit> hits(std::min(pixels, kPixelsPerPass));

    for (std::size_t begin = 0; begin < pixels; begin += hits.size()) {
        const std::size_t end = std::min(pixels, begin + hits.size());
        runWorkers(workers, [&](std::uint32_t w) {
            BvhTraversal &trav = travs[w].trav;
            const std::size_t stride = workers * kPixelsPerBlock;
            for (std::size_t b = begin + w * kPixelsPerBlock; b < end;
                 b += stride) {
                for (std::size_t p = b;
                     p < std::min(end, b + kPixelsPerBlock); ++p) {
                    HitRecord rec = trav.closestHit(ray_of(p));
                    hits[p - begin] = {rec.t, rec.hit ? rec.prim : kNoPrim};
                }
            }
        });
        for (std::size_t p = begin; p < end; ++p) {
            batch.primaryRays++;
            const PrimaryHit &hit = hits[p - begin];
            if (hit.prim == kNoPrim)
                continue;
            batch.primaryHits++;
            consume(ray_of(p), hit);
        }
    }
}

} // namespace

RayBatch
generatePrimaryRays(const Scene &scene, const RayGenConfig &config)
{
    RayBatch batch;
    batch.rays.reserve(static_cast<std::size_t>(config.width) *
                       config.height);
    float aspect =
        static_cast<float>(config.width) / config.height;
    for (int y = 0; y < config.height; ++y)
        for (int x = 0; x < config.width; ++x)
            batch.rays.push_back(pixelRay(scene, config, aspect, x, y));
    batch.primaryRays = batch.rays.size();
    return batch;
}

RayBatch
generateAoRays(const Scene &scene, const Bvh &bvh,
               const RayGenConfig &config)
{
    RayBatch batch;
    Rng rng(config.seed, 17);
    const auto &tris = scene.mesh.triangles();
    float diag = bvh.sceneBounds().diagonal();

    forEachPrimaryHit(scene, bvh, config, batch, config.samplesPerPixel,
                      [&](const Ray &primary, const PrimaryHit &hit) {
        Vec3 p = primary.at(hit.t);
        Vec3 n = surfaceNormal(tris, hit.prim, primary.dir);
        Onb onb(n);
        for (int s = 0; s < config.samplesPerPixel; ++s) {
            Vec3 local =
                cosineSampleHemisphere(rng.nextFloat(), rng.nextFloat());
            Ray ao;
            ao.origin = p + n * (1e-3f * diag * 1e-2f);
            ao.dir = onb.toWorld(local);
            ao.tMin = 1e-4f;
            ao.tMax = diag * rng.nextRange(config.aoMinLengthFrac,
                                           config.aoMaxLengthFrac);
            ao.kind = RayKind::Occlusion;
            batch.rays.push_back(ao);
        }
    });
    return batch;
}

RayBatch
generateGiRays(const Scene &scene, const Bvh &bvh,
               const RayGenConfig &config)
{
    RayBatch batch;
    Rng rng(config.seed, 29);
    const auto &tris = scene.mesh.triangles();
    BvhTraversal trav(bvh, tris); // reused stack: no per-bounce allocation
    float diag = bvh.sceneBounds().diagonal();

    forEachPrimaryHit(scene, bvh, config, batch, config.giBounces,
                      [&](const Ray &primary, const PrimaryHit &hit) {
        // Diffuse bounce chain: each bounce emits one closest-hit
        // secondary ray that continues from the previous hit point.
        // Each bounce's direction depends on the last hit and draws
        // from the one stream, so the chain is traced here, serially.
        Ray ray = primary;
        HitRecord rec;
        rec.t = hit.t;
        rec.prim = hit.prim;
        for (int b = 0; b < config.giBounces; ++b) {
            Vec3 p = ray.at(rec.t);
            Vec3 n = surfaceNormal(tris, rec.prim, ray.dir);
            Onb onb(n);
            Vec3 local =
                cosineSampleHemisphere(rng.nextFloat(), rng.nextFloat());
            Ray bounce;
            bounce.origin = p + n * (1e-5f * diag);
            bounce.dir = onb.toWorld(local);
            bounce.tMin = 1e-4f;
            bounce.tMax = 1e30f;
            bounce.kind = RayKind::Secondary;
            batch.rays.push_back(bounce);

            rec = trav.closestHit(bounce);
            if (!rec.hit)
                break;
            ray = bounce;
        }
    });
    return batch;
}

RayBatch
generateShadowRays(const Scene &scene, const Bvh &bvh,
                   const RayGenConfig &config, const Vec3 *light_pos)
{
    RayBatch batch;
    const auto &tris = scene.mesh.triangles();
    float diag = bvh.sceneBounds().diagonal();
    Vec3 light = light_pos ? *light_pos : defaultLight(bvh.sceneBounds());

    forEachPrimaryHit(scene, bvh, config, batch, 1,
                      [&](const Ray &primary, const PrimaryHit &hit) {
        Vec3 p = primary.at(hit.t);
        Vec3 n = surfaceNormal(tris, hit.prim, primary.dir);
        Vec3 to_light = light - p;
        float dist = length(to_light);
        if (dist < 1e-6f * diag)
            return;
        Ray shadow;
        shadow.origin = p + n * (1e-5f * diag);
        shadow.dir = to_light / dist;
        shadow.tMin = 1e-4f;
        shadow.tMax = dist * 0.999f; // stop just before the light
        shadow.kind = RayKind::Occlusion;
        batch.rays.push_back(shadow);
    });
    return batch;
}

RayBatch
generatePhotonRays(const Scene &scene, const Bvh &bvh,
                   const RayGenConfig &config, const Vec3 *light_pos)
{
    // Serial, unlike the pixel workloads: each photon's direction is
    // drawn from the one stream after the previous photon's bounces,
    // whose count depends on what they hit, so no photon can be traced
    // before its predecessors are.
    RayBatch batch;
    Rng rng(config.seed, 41);
    const auto &tris = scene.mesh.triangles();
    BvhTraversal trav(bvh, tris); // reused stack: no per-photon allocation
    float diag = bvh.sceneBounds().diagonal();
    Vec3 light =
        light_pos ? *light_pos : defaultLight(bvh.sceneBounds());

    int photons = config.photonCount > 0
                      ? config.photonCount
                      : config.width * config.height;
    for (int i = 0; i < photons; ++i) {
        Ray ray;
        ray.origin = light;
        ray.dir = uniformSphereDir(rng);
        ray.tMin = 1e-4f;
        ray.tMax = 1e30f;
        ray.kind = RayKind::Secondary;
        batch.rays.push_back(ray);
        batch.primaryRays++;

        // Diffuse photon flight: bounce off each surface the photon
        // lands on, up to photonBounces times (the reference traversal
        // here only steers generation; every segment pushed above and
        // below is simulated by the consumer).
        HitRecord rec = trav.closestHit(ray);
        if (!rec.hit)
            continue;
        batch.primaryHits++;
        for (int b = 0; b < config.photonBounces; ++b) {
            Vec3 p = ray.at(rec.t);
            Vec3 n = surfaceNormal(tris, rec.prim, ray.dir);
            Onb onb(n);
            Vec3 local = cosineSampleHemisphere(rng.nextFloat(),
                                                rng.nextFloat());
            Ray bounce;
            bounce.origin = p + n * (1e-5f * diag);
            bounce.dir = onb.toWorld(local);
            bounce.tMin = 1e-4f;
            bounce.tMax = 1e30f;
            bounce.kind = RayKind::Secondary;
            batch.rays.push_back(bounce);

            rec = trav.closestHit(bounce);
            if (!rec.hit)
                break;
            ray = bounce;
        }
    }
    return batch;
}

RayBatch
generatePathBounceRays(const Scene &scene, const Bvh &bvh,
                       const std::vector<Ray> &prev,
                       const std::vector<PathHit> &hits, Rng &rng)
{
    RayBatch batch;
    const auto &tris = scene.mesh.triangles();
    float diag = bvh.sceneBounds().diagonal();
    for (std::size_t i = 0; i < prev.size() && i < hits.size(); ++i) {
        if (!hits[i].hit || hits[i].prim >= tris.size())
            continue;
        const Ray &ray = prev[i];
        Vec3 p = ray.at(hits[i].t);
        Vec3 n = surfaceNormal(tris, hits[i].prim, ray.dir);
        Onb onb(n);
        Vec3 local =
            cosineSampleHemisphere(rng.nextFloat(), rng.nextFloat());
        Ray bounce;
        bounce.origin = p + n * (1e-5f * diag);
        bounce.dir = onb.toWorld(local);
        bounce.tMin = 1e-4f;
        bounce.tMax = 1e30f;
        bounce.kind = RayKind::Secondary;
        batch.rays.push_back(bounce);
    }
    batch.primaryRays = prev.size();
    batch.primaryHits = batch.rays.size();
    return batch;
}

RayBatch
generateReflectionRays(const Scene &scene, const Bvh &bvh,
                       const RayGenConfig &config)
{
    RayBatch batch;
    const auto &tris = scene.mesh.triangles();
    float diag = bvh.sceneBounds().diagonal();

    forEachPrimaryHit(scene, bvh, config, batch, 1,
                      [&](const Ray &primary, const PrimaryHit &hit) {
        Vec3 n = surfaceNormal(tris, hit.prim, primary.dir);
        Vec3 d = normalize(primary.dir);
        Ray refl;
        refl.origin = primary.at(hit.t) + n * (1e-5f * diag);
        refl.dir = d - n * (2.0f * dot(d, n));
        refl.tMin = 1e-4f;
        refl.tMax = 1e30f;
        refl.kind = RayKind::Secondary;
        batch.rays.push_back(refl);
    });
    return batch;
}

} // namespace rtp
