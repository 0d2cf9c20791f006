/**
 * @file
 * Paper-scale smoke run: one scene at full tessellation detail with a
 * 512x512x1spp viewport (a quarter of the paper's 1024x1024x4 setup)
 * through the 8-SM proposed configuration — the smallest run that
 * exercises the simulator at paper-like scale rather than test scale.
 *
 * Used by the CI perf gate: the run must finish inside a wall-clock
 * budget (--budget-seconds or RTP_SMOKE_BUDGET, seconds; 0 disables),
 * so a host-performance regression that only shows up at scale — e.g.
 * a kernel or event-loop slowdown hidden by tiny test workloads —
 * fails loudly. The budget parses strictly: a value that is not a
 * finite non-negative number is a usage error, never a silent 0.
 *
 * Prints the scene, ray count, the event-loop worker count, simulated
 * cycles, wall seconds, rays per wall-second, an FNV-1a digest of the
 * result JSON, and the process's peak resident set (VmHWM, which CI
 * holds to a memory budget). The run is one simulation at a time, so it takes
 * the thread budget of a pool of one: RTP_SIM_THREADS when set, else
 * auto (SimConfig::simThreads). The digest is the same at every
 * worker count; CI compares RTP_SIM_THREADS=1 against the default.
 * Exit status: 0 inside budget, 1 over budget, 2 on a usage error
 * (including a malformed RTP_* variable).
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bvh/builder.hpp"
#include "exp/env_config.hpp"
#include "exp/harness.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"

using namespace rtp;

namespace {

double
now_seconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * Parse a wall-clock budget in seconds. @return false (leaving @p out
 * untouched) unless all of @p text is one finite number >= 0.
 */
bool
parseBudget(const char *text, double &out)
{
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v) || v < 0.0)
        return false;
    out = v;
    return true;
}

/** 32-bit FNV-1a of @p bytes. */
std::uint32_t
fnv1a32(const std::string &bytes)
{
    std::uint32_t h = 2166136261u;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 16777619u;
    }
    return h;
}

/** @return The process's peak resident set (VmHWM), kB; 0 if unknown. */
long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    double budget_seconds = 0.0;
    if (const char *b = std::getenv("RTP_SMOKE_BUDGET");
        b && !parseBudget(b, budget_seconds)) {
        std::fprintf(stderr,
                     "paperscale_smoke: RTP_SMOKE_BUDGET must be a "
                     "finite number of seconds >= 0, got \"%s\"\n",
                     b);
        return 2;
    }
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--budget-seconds") == 0 &&
            i + 1 < argc) {
            if (!parseBudget(argv[++i], budget_seconds)) {
                std::fprintf(stderr,
                             "paperscale_smoke: --budget-seconds must "
                             "be a finite number of seconds >= 0, got "
                             "\"%s\"\n",
                             argv[i]);
                return 2;
            }
        } else {
            std::fprintf(stderr,
                         "usage: paperscale_smoke "
                         "[--budget-seconds S]\n");
            return 2;
        }
    }

    unsigned sim_threads = 0;
    try {
        // Parse every RTP_* knob strictly, as the bench harness does.
        EnvConfig::fromEnvironment();
        sim_threads = simThreadsForPool(1);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "paperscale_smoke: %s\n", e.what());
        return 2;
    }

    std::printf("paperscale_smoke: Sibenik detail=1.0 512x512x1spp, "
                "8 SMs proposed\n");

    double t0 = now_seconds();
    Scene scene = makeScene(SceneId::Sibenik, 1.0f);
    Bvh bvh = BvhBuilder().build(scene.mesh.triangles());
    RayGenConfig rg;
    rg.width = 512;
    rg.height = 512;
    rg.samplesPerPixel = 1;
    RayBatch batch = generateAoRays(scene, bvh, rg);
    double build_seconds = now_seconds() - t0;
    std::printf("  built %zu tris, %zu rays in %.2fs\n",
                scene.mesh.triangles().size(), batch.rays.size(),
                build_seconds);

    SimConfig config = SimConfig::proposed();
    config.numSms = 8;
    config.inheritSimThreads(sim_threads);
    std::printf("  event-loop workers: %u\n", config.eventLoopWorkers());

    t0 = now_seconds();
    SimResult result =
        Simulation(config, bvh, scene.mesh.triangles())
            .run(batch.rays);
    double sim_seconds = now_seconds() - t0;

    double rps =
        sim_seconds > 0.0 ? batch.rays.size() / sim_seconds : 0.0;
    std::printf("  %zu rays, %llu cycles, wall %.2fs, %.0f rays/s\n",
                batch.rays.size(),
                static_cast<unsigned long long>(result.cycles),
                sim_seconds, rps);
    std::printf("  result digest: fnv1a32=%08x\n",
                static_cast<unsigned>(fnv1a32(result.toJson())));
    std::printf("  peak rss: %ld kB\n", peakRssKb());

    if (budget_seconds > 0.0 && sim_seconds > budget_seconds) {
        std::fprintf(stderr,
                     "paperscale_smoke: FAIL — simulation wall clock "
                     "%.2fs exceeded the %.2fs budget\n",
                     sim_seconds, budget_seconds);
        return 1;
    }
    if (budget_seconds > 0.0)
        std::printf("  inside wall-clock budget (%.2fs <= %.2fs)\n",
                    sim_seconds, budget_seconds);
    return 0;
}
