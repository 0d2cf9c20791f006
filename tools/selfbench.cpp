/**
 * @file
 * Simulator self-benchmark: measures the simulator's own execution
 * speed (simulated rays per wall-clock second), not any property of the
 * modelled hardware. It covers only the host knobs that the end-to-end
 * benchmark (benchmark/rtp_bench) leaves fixed; docs/performance.md
 * records the methodology and the numbers across revisions.
 *
 * Deliberately single-threaded at the sweep level (one Simulation at a
 * time) so the number is a property of the core, not of the sweep
 * harness's thread pool. Two sections:
 *  - the sharded event loop (SimConfig::simThreads) on an 8-SM
 *    configuration: "<scene>/sharded_t1" runs the sequential reference
 *    loop and "<scene>/sharded_t4" the same workload with 4 event-loop
 *    workers, so the JSON records the intra-simulation speedup under
 *    fixed, machine-independent labels;
 *  - the cycle-attribution profiler: "SB/profile_off" vs
 *    "SB/profile_on" on the proposed configuration.
 * Each pair's cycle counts are identical by construction (byte-stable
 * contract); only wall seconds differ.
 *
 * Environment:
 *   RTP_SELFBENCH_REPS  repetitions per cell; the fastest rep is
 *                       reported (default 3).
 *   RTP_JSON_DIR        directory for bench_selfbench.json (default
 *                       the working directory).
 *   RTP_SCALE           workload fidelity, as for every bench binary.
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
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

void
printRow(const std::string &label, std::size_t rays, double wall,
         double rays_per_second)
{
    std::printf("%-22s %10zu %12.4f %14.0f\n", label.c_str(), rays, wall,
                rays_per_second);
}

/** Run @p config over @p w's AO rays @p reps times; keep the fastest. */
Cell
measure(const Workload &w, const SimConfig &config, const char *name,
        int reps)
{
    Simulation sim(config, w.bvh, w.scene.mesh.triangles());
    Cell cell;
    cell.label = w.scene.shortName + "/" + name;
    cell.rays = w.ao.rays.size();
    cell.wallSeconds = -1.0;
    for (int rep = 0; rep < reps; ++rep) {
        double t0 = now_seconds();
        SimResult r = sim.run(w.ao.rays);
        double dt = now_seconds() - t0;
        cell.cycles = r.cycles;
        if (cell.wallSeconds < 0.0 || dt < cell.wallSeconds)
            cell.wallSeconds = dt;
    }
    printRow(cell.label, cell.rays, cell.wallSeconds,
             cell.raysPerSecond());
    return cell;
}

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
    std::vector<const Workload *> workloads = cache.getAll(
        {SceneId::Sibenik, SceneId::FireplaceRoom,
         SceneId::CrytekSponza});

    std::vector<Cell> cells;
    std::printf("%-22s %10s %12s %14s\n", "Cell", "Rays", "Wall(s)",
                "Rays/s");

    // Sharded-loop section: the paper-scale configuration (8 SMs) run
    // with the sequential loop vs 4 event-loop workers.
    double t1_wall = 0.0, t4_wall = 0.0;
    for (const Workload *w : workloads) {
        SimConfig c = SimConfig::proposed();
        c.numSms = 8;
        c.simThreads = 1;
        cells.push_back(measure(*w, c, "sharded_t1", reps));
        t1_wall += cells.back().wallSeconds;
        c.simThreads = 4;
        cells.push_back(measure(*w, c, "sharded_t4", reps));
        t4_wall += cells.back().wallSeconds;
    }
    if (t4_wall > 0.0)
        std::fprintf(stderr,
                     "[rtp-selfbench] sharded-loop speedup "
                     "(RTP_SIM_THREADS=4 vs sequential): %.2fx\n",
                     t1_wall / t4_wall);

    // Profiler-overhead section: the proposed configuration with the
    // cycle-attribution profiler detached vs attached. The wall-clock
    // delta is the profiler's full observation cost, which must stay
    // marginal (target < 1%, noise-dominated at these runtimes).
    {
        const Workload &sb = *workloads.front();
        SimConfig c = SimConfig::proposed();
        cells.push_back(measure(sb, c, "profile_off", reps));
        const double off_wall = cells.back().wallSeconds;
        CycleProfiler profiler;
        c.profile = &profiler;
        cells.push_back(measure(sb, c, "profile_on", reps));
        const double on_wall = cells.back().wallSeconds;
        if (off_wall > 0.0)
            std::fprintf(stderr,
                         "[rtp-selfbench] profile_overhead: %+.2f%% "
                         "wall (profiler on vs off)\n",
                         100.0 * (on_wall - off_wall) / off_wall);
    }

    std::size_t total_rays = 0;
    double total_wall = 0.0;
    for (const Cell &c : cells) {
        total_rays += c.rays;
        total_wall += c.wallSeconds;
    }
    double total_rps = total_wall > 0.0 ? total_rays / total_wall : 0.0;
    printRow("TOTAL", total_rays, total_wall, total_rps);

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
    if (!ensureParentDir(path))
        return 1; // ensureParentDir reported the reason
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "[rtp-selfbench] cannot open %s: %s\n",
                     path.c_str(), std::strerror(errno));
        return 1;
    }
    // A short write can surface at fwrite or only when fclose flushes;
    // either one fails the run.
    const std::string body = os.str();
    errno = 0;
    bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        std::fprintf(stderr, "[rtp-selfbench] cannot write %s: %s\n",
                     path.c_str(),
                     errno ? std::strerror(errno) : "short write");
        return 1;
    }
    std::fprintf(stderr, "[rtp-selfbench] wrote %s\n", path.c_str());
    return 0;
}
