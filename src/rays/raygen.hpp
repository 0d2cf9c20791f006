/**
 * @file
 * Workload ray generators (Section 5.2 of the paper).
 *
 * Ambient-occlusion rays: for every pixel, compute the primary-ray hit
 * point, then spawn N occlusion rays by cosine-sampling the upper
 * hemisphere around the surface normal. Ray lengths are 25–40 % of the
 * scene bounding-box diagonal. Global-illumination rays (Section 6.4):
 * closest-hit bounce chains of configurable depth.
 *
 * The AO, GI, shadow and reflection generators trace their primary
 * rays on the free CPUs (freeCpuWorkers, util/host.hpp), then draw
 * their samples serially in pixel order, so a batch is the same at any
 * worker count.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "bvh/bvh.hpp"
#include "geometry/ray.hpp"
#include "scene/camera.hpp"
#include "scene/registry.hpp"
#include "util/rng.hpp"

namespace rtp {

/** Parameters for AO / GI workload generation. */
struct RayGenConfig
{
    int width = 96;          //!< viewport width in pixels
    int height = 96;         //!< viewport height
    int samplesPerPixel = 4; //!< AO rays per primary hit (paper: 4)
    /**
     * Fraction of the image plane the viewport covers (centred crop).
     * The paper renders 1024x1024 full frames; to keep experiments fast
     * while preserving the paper's inter-pixel world-space locality
     * (which the predictor's hash exploits), smaller viewports render a
     * centred crop at the same pixel density instead of downsampling
     * the full view. 1.0 = full frame.
     */
    float viewportFraction = 1.0f;
    float aoMinLengthFrac = 0.25f; //!< min AO length / bbox diagonal
    float aoMaxLengthFrac = 0.40f; //!< max AO length / bbox diagonal
    int giBounces = 3;       //!< GI bounce count (Section 6.4)
    /**
     * Photons emitted per photon pass (0 = one per viewport pixel, so
     * the pass scales with RTP_SCALE like the pixel workloads).
     * RTP_PHOTONS overrides via WorkloadConfig::fromEnvironment.
     */
    int photonCount = 0;
    int photonBounces = 2;   //!< photon bounce depth (RTP_PHOTON_BOUNCES)
    int pathBounces = 4;     //!< path-tracing bounce depth (RTP_PT_BOUNCES)
    std::uint64_t seed = 42;
};

/** A generated batch of rays plus bookkeeping. */
struct RayBatch
{
    std::vector<Ray> rays;
    std::uint64_t primaryRays = 0;  //!< primary rays traced to seed AO
    std::uint64_t primaryHits = 0;  //!< primary rays that hit the scene
};

/** Generate one primary ray per pixel. */
RayBatch generatePrimaryRays(const Scene &scene,
                             const RayGenConfig &config);

/**
 * Generate AO occlusion rays: primary hits are found with a reference
 * closest-hit traversal over @p bvh; each hit spawns
 * config.samplesPerPixel cosine-weighted occlusion rays.
 */
RayBatch generateAoRays(const Scene &scene, const Bvh &bvh,
                        const RayGenConfig &config);

/**
 * Generate GI bounce rays: closest-hit chains of config.giBounces rays
 * per pixel (diffuse bounce directions). Returns all secondary rays.
 */
RayBatch generateGiRays(const Scene &scene, const Bvh &bvh,
                        const RayGenConfig &config);

/**
 * Generate mirror-reflection rays from the primary hit points (used by
 * the Figure 11 correlation study, which traces primary and reflection
 * rays).
 */
RayBatch generateReflectionRays(const Scene &scene, const Bvh &bvh,
                                const RayGenConfig &config);

/**
 * Generate shadow rays: occlusion rays from each primary hit point
 * toward a point light (the other occlusion-ray workload the paper's
 * introduction motivates — ray-traced shadows in hybrid renderers).
 * The segment is bounded at the light's distance, so a hit means the
 * point is shadowed.
 *
 * @param light_pos Light position; pass nullptr to place a default
 *        light near the top center of the scene.
 */
RayBatch generateShadowRays(const Scene &scene, const Bvh &bvh,
                            const RayGenConfig &config,
                            const Vec3 *light_pos = nullptr);

/**
 * Generate photon-emission rays (the photon pass of a progressive
 * photon mapper, the k_sPpmTracer_PhotonPass loop shape): photons
 * leave the light in uniformly random sphere directions, then bounce
 * diffusely up to config.photonBounces times; every flight segment is
 * a closest-hit ray. Light-origin random-direction rays are maximally
 * incoherent — neighbouring rays in submission order share an origin
 * cell but scatter across direction buckets, the stress case for the
 * hash predictor's locality assumption.
 *
 * primaryRays counts emitted photons, primaryHits the photons whose
 * first segment hit the scene. Same seed => byte-identical batches.
 *
 * @param light_pos Light position; nullptr = the default top-centre
 *        light generateShadowRays uses.
 */
RayBatch generatePhotonRays(const Scene &scene, const Bvh &bvh,
                            const RayGenConfig &config,
                            const Vec3 *light_pos = nullptr);

/**
 * One completed path segment, as the path-tracing driver
 * (exp/path_driver.hpp) reads it back from the simulator. Mirrors the
 * hit fields of the simulator's RayResult without depending on it —
 * ray generation stays below the simulator in the layering.
 */
struct PathHit
{
    bool hit = false;
    float t = 0.0f;
    std::uint32_t prim = ~0u;
};

/**
 * Generate the next path-tracing wave: one diffuse bounce ray per
 * surviving segment of the previous wave (@p prev and @p hits are
 * parallel, in submission order). @p rng is carried across waves by
 * the driver, and is consumed in submission order for every hit
 * segment, so wave contents are deterministic at any thread count.
 * Unlike generateGiRays, nothing here traverses the BVH on the host —
 * the hits come from simulated traversal (per-bounce emission into
 * the simulator, not trace-time reference traversal).
 */
RayBatch generatePathBounceRays(const Scene &scene, const Bvh &bvh,
                                const std::vector<Ray> &prev,
                                const std::vector<PathHit> &hits,
                                Rng &rng);

} // namespace rtp
