/**
 * @file
 * Simulator self-benchmark: measures the simulator's own execution
 * speed (simulated rays per wall-clock second), not any property of the
 * modelled hardware. Used to track host-performance regressions of the
 * per-cycle core; docs/performance.md records the methodology and the
 * numbers across revisions.
 *
 * Deliberately single-threaded at the sweep level (one Simulation at a
 * time) so the number is a property of the core, not of the sweep
 * harness's thread pool. A second section measures the sharded event
 * loop (SimConfig::simThreads, docs/performance.md) on an 8-SM
 * configuration: "<scene>/sharded_t1" runs the sequential reference
 * loop and "<scene>/sharded_t4" the same workload with 4 event-loop
 * workers, so the JSON records the intra-simulation speedup under
 * fixed, machine-independent labels. The sharded cells' cycle counts
 * are identical by construction (byte-stable contract); only wall
 * seconds differ.
 *
 * Environment:
 *   RTP_SELFBENCH_REPS  repetitions per (scene, config) cell; the
 *                       fastest rep is reported (default 3).
 *   RTP_JSON_DIR        directory for bench_selfbench.json (default
 *                       the working directory).
 *   RTP_SCALE           workload fidelity, as for every bench binary.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "exp/env_config.hpp"
#include "exp/harness.hpp"
#include "util/profile.hpp"
#include "util/schema.hpp"

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

struct Cell
{
    std::string label;
    std::size_t rays = 0;
    Cycle cycles = 0;
    double wallSeconds = 0.0; //!< fastest rep

    double
    raysPerSecond() const
    {
        return wallSeconds > 0.0 ? rays / wallSeconds : 0.0;
    }
};

} // namespace

int
main()
{
    WorkloadConfig wc = WorkloadConfig::fromEnvironment();
    printHeader("Simulator self-benchmark (host speed, not model "
                "output)",
                "n/a — measures this implementation, not the paper",
                wc);

    // Strict parsing via the unified env layer (exp/env_config.hpp).
    int reps = static_cast<int>(
        parseEnvPositive("RTP_SELFBENCH_REPS", 3));

    WorkloadCache cache(wc);
    std::vector<const Workload *> workloads =
        cache.getAll(allSceneIds());

    struct Config
    {
        const char *name;
        SimConfig config;
    };
    std::vector<Config> configs = {
        {"baseline", SimConfig::baseline()},
        {"proposed", SimConfig::proposed()},
    };

    std::vector<Cell> cells;
    std::size_t total_rays = 0;
    double total_wall = 0.0;

    std::printf("%-22s %10s %12s %14s\n", "Cell", "Rays", "Wall(s)",
                "Rays/s");
    for (const Workload *w : workloads) {
        for (const Config &c : configs) {
            Simulation sim(c.config, w->bvh,
                           w->scene.mesh.triangles());
            Cell cell;
            cell.label = w->scene.shortName + "/" + c.name;
            cell.rays = w->ao.rays.size();
            cell.wallSeconds = -1.0;
            for (int rep = 0; rep < reps; ++rep) {
                double t0 = now_seconds();
                SimResult r = sim.run(w->ao.rays);
                double dt = now_seconds() - t0;
                cell.cycles = r.cycles;
                if (cell.wallSeconds < 0.0 || dt < cell.wallSeconds)
                    cell.wallSeconds = dt;
            }
            total_rays += cell.rays;
            total_wall += cell.wallSeconds;
            std::printf("%-22s %10zu %12.4f %14.0f\n",
                        cell.label.c_str(), cell.rays,
                        cell.wallSeconds, cell.raysPerSecond());
            cells.push_back(std::move(cell));
        }
    }

    // Sharded-loop section: the paper-scale configuration (8 SMs) run
    // with the sequential loop vs 4 event-loop workers on a scene
    // subset, so CI tracks the intra-simulation speedup without
    // doubling the selfbench runtime. Cycle counts of the two cells
    // are identical (byte-stable contract); rays/s is the payoff.
    {
        SimConfig sharded = SimConfig::proposed();
        sharded.numSms = 8;
        std::vector<const Workload *> shard_scenes = cache.getAll(
            {SceneId::Sibenik, SceneId::FireplaceRoom,
             SceneId::CrytekSponza});
        double t1_wall = 0.0, t4_wall = 0.0;
        for (const Workload *w : shard_scenes) {
            for (unsigned threads : {1u, 4u}) {
                SimConfig c = sharded;
                c.simThreads = threads;
                Simulation sim(c, w->bvh, w->scene.mesh.triangles());
                Cell cell;
                cell.label = w->scene.shortName + "/sharded_t" +
                             std::to_string(threads);
                cell.rays = w->ao.rays.size();
                cell.wallSeconds = -1.0;
                for (int rep = 0; rep < reps; ++rep) {
                    double t0 = now_seconds();
                    SimResult r = sim.run(w->ao.rays);
                    double dt = now_seconds() - t0;
                    cell.cycles = r.cycles;
                    if (cell.wallSeconds < 0.0 ||
                        dt < cell.wallSeconds)
                        cell.wallSeconds = dt;
                }
                (threads == 1 ? t1_wall : t4_wall) +=
                    cell.wallSeconds;
                total_rays += cell.rays;
                total_wall += cell.wallSeconds;
                std::printf("%-22s %10zu %12.4f %14.0f\n",
                            cell.label.c_str(), cell.rays,
                            cell.wallSeconds, cell.raysPerSecond());
                cells.push_back(std::move(cell));
            }
        }
        if (t4_wall > 0.0)
            std::fprintf(stderr,
                         "[rtp-selfbench] sharded-loop speedup "
                         "(RTP_SIM_THREADS=4 vs sequential): %.2fx\n",
                         t1_wall / t4_wall);
    }

    // Profiler-overhead section: the proposed configuration on one
    // scene with the cycle-attribution profiler detached vs attached
    // (RTP_PROFILE, util/profile.hpp). Simulated cycles are identical
    // (zero-perturbation contract); the wall-clock delta is the
    // profiler's full observation cost, which must stay marginal
    // (target < 1%, noise-dominated at these runtimes).
    {
        const Workload *w = &cache.get(SceneId::Sibenik);
        CycleProfiler profiler;
        double off_wall = 0.0, on_wall = 0.0;
        for (int attached = 0; attached < 2; ++attached) {
            SimConfig c = SimConfig::proposed();
            if (attached)
                c.profile = &profiler;
            Simulation sim(c, w->bvh, w->scene.mesh.triangles());
            Cell cell;
            cell.label = w->scene.shortName +
                         (attached ? "/profile_on" : "/profile_off");
            cell.rays = w->ao.rays.size();
            cell.wallSeconds = -1.0;
            for (int rep = 0; rep < reps; ++rep) {
                double t0 = now_seconds();
                SimResult r = sim.run(w->ao.rays);
                double dt = now_seconds() - t0;
                cell.cycles = r.cycles;
                if (cell.wallSeconds < 0.0 || dt < cell.wallSeconds)
                    cell.wallSeconds = dt;
            }
            (attached ? on_wall : off_wall) = cell.wallSeconds;
            total_rays += cell.rays;
            total_wall += cell.wallSeconds;
            std::printf("%-22s %10zu %12.4f %14.0f\n",
                        cell.label.c_str(), cell.rays,
                        cell.wallSeconds, cell.raysPerSecond());
            cells.push_back(std::move(cell));
        }
        if (off_wall > 0.0)
            std::fprintf(stderr,
                         "[rtp-selfbench] profile_overhead: %+.2f%% "
                         "wall (profiler on vs off)\n",
                         100.0 * (on_wall - off_wall) / off_wall);
    }

    double total_rps = total_wall > 0.0 ? total_rays / total_wall : 0.0;
    std::printf("%-22s %10zu %12.4f %14.0f\n", "TOTAL", total_rays,
                total_wall, total_rps);

    // bench_selfbench.json, honouring RTP_JSON_DIR like every bench.
    std::ostringstream os;
    os << "{\"schema_version\":" << kResultSchemaVersion
       << ",\"bench\":\"selfbench\",\"reps\":" << reps
       << ",\"results\":{";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        if (i)
            os << ",";
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"%s\":{\"rays\":%zu,\"cycles\":%llu,"
                      "\"wall_seconds\":%.6f,\"rays_per_second\":%.1f}",
                      c.label.c_str(), c.rays,
                      static_cast<unsigned long long>(c.cycles),
                      c.wallSeconds, c.raysPerSecond());
        os << buf;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "},\"total\":{\"rays\":%zu,\"wall_seconds\":%.6f,"
                  "\"rays_per_second\":%.1f}}\n",
                  total_rays, total_wall, total_rps);
    os << buf;

    const std::string dir = envString("RTP_JSON_DIR");
    std::string path = !dir.empty()
                           ? dir + "/bench_selfbench.json"
                           : "bench_selfbench.json";
    if (!ensureParentDir(path)) {
        std::fprintf(stderr, "[rtp-selfbench] cannot write %s\n",
                     path.c_str());
        return 1;
    }
    if (std::FILE *f = std::fopen(path.c_str(), "w")) {
        const std::string body = os.str();
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "[rtp-selfbench] wrote %s\n",
                     path.c_str());
    } else {
        std::fprintf(stderr, "[rtp-selfbench] cannot write %s\n",
                     path.c_str());
        return 1;
    }
    return 0;
}
