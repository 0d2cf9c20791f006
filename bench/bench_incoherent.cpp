/**
 * @file
 * Incoherent-workload study: photon emission and full path tracing,
 * with and without the predictor.
 *
 * The paper's headline numbers (Figure 12) are ambient-occlusion rays,
 * whose inter-pixel coherence is the hash predictor's best case. This
 * bench stresses the opposite regime with two incoherent workloads:
 *
 *  - photon: light-origin uniform-sphere emission plus diffuse bounce
 *    flights (the photon pass of a progressive photon mapper). All
 *    rays share an origin cell but scatter across direction buckets.
 *  - pathtrace: the per-bounce driver (exp/path_driver.hpp) that
 *    emits each bounce wave into the simulator from the previous
 *    wave's simulated hits, with predictor state warm across waves.
 *
 * Each workload runs two cells per scene — baseline (no predictor) and
 * the proposed hash-table predictor — so the bench reports the hit
 * rate and cycle speedup where inter-ray coherence is weakest.
 */

#include <cstdio>

#include "exp/env_config.hpp"
#include "exp/harness.hpp"
#include "exp/path_driver.hpp"

using namespace rtp;

namespace {

void
printRow(const char *scene, const char *workload, const SimResult &base,
         const SimResult &hash)
{
    double speedup = hash.cycles == 0
                         ? 1.0
                         : static_cast<double>(base.cycles) / hash.cycles;
    std::printf("%-6s %-9s %12llu %+9.1f%% %8.1f%%\n", scene, workload,
                static_cast<unsigned long long>(base.cycles),
                (speedup - 1) * 100, hash.predictedRate() * 100);
}

} // namespace

int
main()
{
    WorkloadConfig wc = WorkloadConfig::fromEnvironment();
    printHeader("Incoherent workloads: photon + path tracing",
                "Liu et al., MICRO 2021 (stress case)", wc);
    WorkloadCache cache(wc);
    std::vector<const Workload *> workloads = cache.getAll(allSceneIds());

    // Photon batches are pure per scene: generate through the pool.
    std::vector<RayBatch> photons = runSweep(
        workloads,
        [&](const Workload *w) {
            return generatePhotonRays(w->scene, w->bvh, wc.raygen);
        },
        "incoherent-raygen");

    // Photon cells ride the standard sweep machinery (2 per scene).
    std::vector<SimPoint> points;
    std::vector<std::size_t> scene_of_cell;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (photons[i].rays.empty())
            continue;
        for (const SimConfig &c :
             {SimConfig::baseline(), SimConfig::proposed()}) {
            SimPoint p = makePoint(*workloads[i], c);
            p.rays = &photons[i].rays;
            points.push_back(p);
        }
        scene_of_cell.push_back(i);
    }
    std::vector<SimResult> photon_results =
        runSimPoints(points, "incoherent-photon");

    // Path-tracing cells run the per-bounce driver; each job is
    // independent (own PredictorSet), so the pool applies here too.
    // The sim-thread override mirrors runSimPoints so both halves
    // honour the same knob.
    const EnvConfig env = EnvConfig::fromEnvironment();
    auto apply_env = [&env](SimConfig c) {
        c.inheritSimThreads(env.budget.simThreads);
        return c;
    };
    struct PtJob
    {
        const Workload *w;
        SimConfig config;
    };
    std::vector<PtJob> pt_jobs;
    for (const Workload *w : workloads)
        for (const SimConfig &c :
             {SimConfig::baseline(), SimConfig::proposed()})
            pt_jobs.push_back(PtJob{w, apply_env(c)});
    std::vector<PathTraceOutcome> pt_results = runSweep(
        pt_jobs,
        [&](const PtJob &job) {
            return runPathTrace(*job.w, job.config, wc.raygen);
        },
        "incoherent-pathtrace");

    JsonResultSink sink("bench_incoherent");
    std::printf("%-6s %-9s %12s %10s %9s\n", "Scene", "Work",
                "BaseCycles", "HashSpd", "HashHit");
    for (std::size_t p = 0; p < scene_of_cell.size(); ++p) {
        const Workload &w = *workloads[scene_of_cell[p]];
        const SimResult &base = photon_results[2 * p];
        const SimResult &hash = photon_results[2 * p + 1];
        sink.add(w.scene.shortName + "/photon/baseline", base);
        sink.add(w.scene.shortName + "/photon/hash", hash);
        printRow(w.scene.shortName.c_str(), "photon", base, hash);
    }
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const Workload &w = *workloads[i];
        const SimResult &base = pt_results[2 * i].total;
        const SimResult &hash = pt_results[2 * i + 1].total;
        sink.add(w.scene.shortName + "/pathtrace/baseline", base);
        sink.add(w.scene.shortName + "/pathtrace/hash", hash);
        printRow(w.scene.shortName.c_str(), "pathtrace", base, hash);
    }
    std::printf("\nIncoherent rays defeat inter-ray locality: expect "
                "hash hit rates well below\nthe AO numbers. Closest-hit "
                "rays only trim tMax, so speedups stay modest.\n");
    return 0;
}
