/**
 * @file
 * Predictor explorer: a small CLI for playing with predictor
 * configurations on one scene — the knobs of Tables 3/6/7/8 exposed as
 * flags. Useful for quickly answering "what if" questions without
 * editing bench code.
 *
 * Run:  ./example_predictor_explorer [options]
 *   --scene SB|SP|LE|LR|FR|BI|CK   (default SB)
 *   --entries N        table entries (default 1024)
 *   --ways N           associativity (default 4)
 *   --nodes N          nodes per entry (default 1)
 *   --goup N           Go Up Level (default 3)
 *   --origin-bits N    hash origin bits (default 5)
 *   --dir-bits N       hash direction bits (default 3)
 *   --two-point        use the Two Point hash
 *   --ratio R          Two Point estimated length ratio (default 0.15)
 *   --no-repack        disable warp repacking
 *   --extra-warps N    additional repacked warps (default 0)
 *   --sorted           Morton-sort the rays first
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "exp/harness.hpp"

using namespace rtp;

int
main(int argc, char **argv)
{
    SceneId scene_id = SceneId::Sibenik;
    SimConfig cfg = SimConfig::proposed();
    bool sorted = false;

    for (int i = 1; i < argc; ++i) {
        auto next = [&]() { return argv[++i]; };
        if (!std::strcmp(argv[i], "--scene")) {
            const char *s = next();
            for (SceneId id : allSceneIds()) {
                if (sceneShortName(id) == s)
                    scene_id = id;
            }
        } else if (!std::strcmp(argv[i], "--entries")) {
            cfg.predictor.table.numEntries =
                static_cast<std::uint32_t>(std::atoi(next()));
        } else if (!std::strcmp(argv[i], "--ways")) {
            cfg.predictor.table.ways =
                static_cast<std::uint32_t>(std::atoi(next()));
        } else if (!std::strcmp(argv[i], "--nodes")) {
            cfg.predictor.table.nodesPerEntry =
                static_cast<std::uint32_t>(std::atoi(next()));
        } else if (!std::strcmp(argv[i], "--goup")) {
            cfg.predictor.goUpLevel =
                static_cast<std::uint32_t>(std::atoi(next()));
        } else if (!std::strcmp(argv[i], "--origin-bits")) {
            cfg.predictor.hash.originBits = std::atoi(next());
        } else if (!std::strcmp(argv[i], "--dir-bits")) {
            cfg.predictor.hash.directionBits = std::atoi(next());
        } else if (!std::strcmp(argv[i], "--two-point")) {
            cfg.predictor.hash.function = HashFunction::TwoPoint;
        } else if (!std::strcmp(argv[i], "--ratio")) {
            cfg.predictor.hash.lengthRatio =
                static_cast<float>(std::atof(next()));
        } else if (!std::strcmp(argv[i], "--no-repack")) {
            cfg.rt.repackEnabled = false;
        } else if (!std::strcmp(argv[i], "--extra-warps")) {
            cfg.rt.additionalWarps =
                static_cast<std::uint32_t>(std::atoi(next()));
        } else if (!std::strcmp(argv[i], "--sorted")) {
            sorted = true;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", argv[i]);
            return 1;
        }
    }

    WorkloadConfig wc = WorkloadConfig::fromEnvironment();
    WorkloadCache cache(wc);
    const Workload &w = cache.get(scene_id);

    std::printf("Scene %s (%zu tris), config: %s%s\n",
                w.scene.shortName.c_str(), w.scene.mesh.size(),
                describe(cfg).c_str(), sorted ? ", sorted rays" : "");

    RunOutcome out =
        runPairsParallel({&w}, SimConfig::baseline(), cfg, sorted).front();
    std::printf("\nBaseline cycles:  %llu\n",
                static_cast<unsigned long long>(out.baseline.cycles));
    std::printf("Predictor cycles: %llu\n",
                static_cast<unsigned long long>(out.treatment.cycles));
    std::printf("Speedup: %+.1f%%   Memory fetches: %+.1f%%\n",
                (out.speedup() - 1) * 100,
                out.memAccessDelta() * 100);
    std::printf("Predicted %.1f%%  Verified %.1f%%  Mispredicted "
                "%.1f%%  Hit %.1f%%\n",
                out.treatment.predictedRate() * 100,
                out.treatment.verifiedRate() * 100,
                static_cast<double>(out.treatment.stats.get(
                    "rays_mispredicted")) /
                    out.treatment.stats.get("rays_completed") * 100,
                out.treatment.hitRate() * 100);
    std::printf("SIMT efficiency: %.2f -> %.2f   DRAM busy banks: "
                "%.2f -> %.2f\n",
                out.baseline.simtEfficiency,
                out.treatment.simtEfficiency,
                out.baseline.avgBusyBanks, out.treatment.avgBusyBanks);
    return 0;
}
