/**
 * @file
 * simfuzz: seeded deterministic configuration fuzzer for the checked
 * simulation (docs/validation.md).
 *
 * Each seed deterministically derives a random-but-valid SimConfig, a
 * procedural scene, and a mixed ray batch, then runs the workload
 * through runDifferential: predictor-on and predictor-off full
 * simulations with the invariant checker and the per-ray reference
 * oracle attached to both, plus the on/off visibility comparison. Any
 * InvariantViolation (or other exception) fails the seed.
 *
 * With --sharded the differential changes target: each seed runs the
 * derived point with the sequential event loop (simThreads = 1) and
 * with the sharded loop at 2 and 4 workers, all under the invariant
 * checker, and byte-compares the SimResult JSON plus the number of
 * checker probes. Any divergence — or any exception — fails the seed,
 * fuzzing the sharded loop's byte-identical contract
 * (docs/performance.md) across the whole randomised config space.
 *
 * On failure the tool prints an exact reproducer — the seed plus the
 * derived configuration as JSON — greedily shrinks the failing ray set
 * (chunk removal), and optionally writes the reproducer to a JSON file
 * (--repro-out; CI uploads it as an artifact). Everything is derived
 * from the seed, so `simfuzz --repro <seed>` (plus --sharded when the
 * failure came from the sharded mode) rebuilds the failing point
 * exactly.
 *
 * Usage:
 *   simfuzz [--seeds N] [--base-seed B] [--repro SEED]
 *           [--repro-out PATH] [--sharded]
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bvh/builder.hpp"
#include "gpu/differential.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"
#include "util/check.hpp"
#include "util/profile.hpp"
#include "util/rng.hpp"

namespace {

using namespace rtp;

/** One cached fuzz scene: geometry, BVH, and a mixed ray pool. */
struct FuzzScene
{
    Scene scene;
    Bvh bvh;
    std::vector<Ray> pool; //!< AO (occlusion) + primary + GI rays

    explicit FuzzScene(SceneId id)
        : scene(makeScene(id, 0.05f))
    {
        bvh = BvhBuilder().build(scene.mesh.triangles());
        RayGenConfig cfg;
        cfg.width = 24;
        cfg.height = 24;
        cfg.samplesPerPixel = 1;
        cfg.viewportFraction = 0.4f;
        for (const Ray &r : generateAoRays(scene, bvh, cfg).rays)
            pool.push_back(r);
        for (const Ray &r : generatePrimaryRays(scene, cfg).rays)
            pool.push_back(r);
        for (const Ray &r : generateGiRays(scene, bvh, cfg).rays)
            pool.push_back(r);
    }
};

/** Pick one element of a small inline table. */
template <typename T, std::size_t N>
T
pick(Rng &rng, const T (&options)[N])
{
    return options[rng.nextBounded(static_cast<std::uint32_t>(N))];
}

/**
 * Derive a random but always-valid configuration from @p rng. The two
 * deliberate couplings keep fuzzed runs well-formed rather than hiding
 * bugs: the repacker's warp size must match the RT unit's (mismatched
 * sizes mis-slice collector output), and its capacity must hold a full
 * warp of overflow past a full batch (2*warpSize - 1) or predicted ray
 * IDs get dropped and the simulation hangs — exactly the conservation
 * law the checker enforces.
 */
SimConfig
deriveConfig(Rng &rng, const Bvh &bvh)
{
    SimConfig c;
    c.numSms = 1 + rng.nextBounded(4);

    const std::uint32_t warp_sizes[] = {4u, 8u, 16u, 32u};
    c.rt.warpSize = pick(rng, warp_sizes);
    const std::uint32_t max_warps[] = {1u, 2u, 4u, 8u};
    c.rt.maxWarps = pick(rng, max_warps);
    c.rt.additionalWarps = rng.nextBounded(3);
    const std::uint32_t stack_entries[] = {2u, 4u, 8u, 16u};
    c.rt.stackEntries = pick(rng, stack_entries);
    c.rt.l1PortsPerCycle = 1 + rng.nextBounded(4);
    c.rt.queueLatency = 1 + rng.nextBounded(4);
    c.rt.isect.boxTestLatency = 1 + rng.nextBounded(4);
    c.rt.isect.triTestLatency = 1 + rng.nextBounded(4);
    c.rt.repackEnabled = rng.nextBounded(2) == 0;
    c.rt.repacker.warpSize = c.rt.warpSize;
    c.rt.repacker.capacity =
        2 * c.rt.warpSize + rng.nextBounded(c.rt.warpSize + 1);
    c.rt.repacker.timeout = 4 + rng.nextBounded(29);
    c.rt.eventQueue = rng.nextBounded(2) == 0
                          ? EventQueueImpl::Calendar
                          : EventQueueImpl::LegacyHeap;

    c.predictor.enabled = rng.nextBounded(8) != 0; // mostly on
    std::uint32_t max_goup = bvh.maxDepth() < 6 ? bvh.maxDepth() : 6;
    c.predictor.goUpLevel = rng.nextBounded(max_goup + 1);
    c.predictor.accessPorts = 1 + rng.nextBounded(4);
    c.predictor.accessLatency = 1 + rng.nextBounded(2);
    c.predictor.hash.function = rng.nextBounded(2) == 0
                                    ? HashFunction::GridSpherical
                                    : HashFunction::TwoPoint;
    c.predictor.hash.originBits = 2 + rng.nextBounded(7);
    c.predictor.hash.directionBits = 2 + rng.nextBounded(5);
    c.predictor.hash.lengthRatio = 0.05f + 0.45f * rng.nextFloat();
    const std::uint32_t entries[] = {16u, 64u, 256u, 1024u};
    c.predictor.table.numEntries = pick(rng, entries);
    const std::uint32_t ways[] = {1u, 2u, 4u};
    c.predictor.table.ways = pick(rng, ways);
    c.predictor.table.nodesPerEntry = 1 + rng.nextBounded(4);
    const NodeReplacement repl[] = {NodeReplacement::LRU,
                                    NodeReplacement::LFU,
                                    NodeReplacement::LRUK};
    c.predictor.table.nodeReplacement = pick(rng, repl);
    c.predictor.table.lruK = 2 + rng.nextBounded(2);

    const std::uint32_t l1_sizes[] = {4u * 1024, 16u * 1024,
                                      64u * 1024};
    c.memory.l1.sizeBytes = pick(rng, l1_sizes);
    const std::uint32_t line_sizes[] = {32u, 128u};
    c.memory.l1.lineBytes = pick(rng, line_sizes);
    c.memory.l1.ways = rng.nextBounded(2) == 0 ? 0 : 4;
    c.memory.l1.hitLatency = 1 + rng.nextBounded(6);
    const std::uint32_t l2_sizes[] = {64u * 1024, 256u * 1024,
                                      1024u * 1024};
    c.memory.l2.sizeBytes = pick(rng, l2_sizes);
    c.memory.l2.lineBytes = c.memory.l1.lineBytes;
    c.memory.l2.ways = rng.nextBounded(2) == 0 ? 0 : 16;
    c.memory.l2.hitLatency = 1 + rng.nextBounded(4);
    c.memory.l1ToL2Latency = 10 + rng.nextBounded(91);
    c.memory.l2ToDramLatency = 10 + rng.nextBounded(101);
    c.memory.l2Enabled = rng.nextBounded(4) != 0;
    const std::uint32_t banks[] = {4u, 16u};
    c.memory.dram.numBanks = pick(rng, banks);
    return c;
}

/** Deterministically derive one fuzz point's rays from @p rng. */
std::vector<Ray>
deriveRays(Rng &rng, const FuzzScene &fs)
{
    std::uint32_t count = 64 + rng.nextBounded(449); // 64..512
    std::vector<Ray> rays;
    rays.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i)
        rays.push_back(fs.pool[rng.nextBounded(
            static_cast<std::uint32_t>(fs.pool.size()))]);
    return rays;
}

/** @return The failure message, or empty when the point passes. */
std::string
runPoint(const SimConfig &config, const FuzzScene &fs,
         const std::vector<Ray> &rays)
{
    try {
        InvariantChecker check;
        // The profiler rides every checked fuzz run: runEventLoop
        // re-verifies the cycle-conservation law through the checker,
        // and the differential's two runs (predictor on + off)
        // exercise multi-run accumulation on one profiler.
        CycleProfiler profile;
        SimConfig checked = config;
        checked.check = &check;
        checked.profile = &profile;
        runDifferential(checked, fs.bvh, fs.scene.mesh.triangles(),
                        rays);
        return std::string();
    } catch (const std::exception &e) {
        return e.what();
    }
}

/**
 * Sequential-vs-sharded differential (--sharded): run the point with
 * the sequential event loop and with 2 and 4 sharded workers (worker
 * count clamps to numSms inside the simulator), all under the
 * invariant checker, and byte-compare the SimResult JSON and the
 * checker-probe count. @return The failure message, or empty.
 */
std::string
runShardedPoint(const SimConfig &config, const FuzzScene &fs,
                const std::vector<Ray> &rays)
{
    try {
        auto run_at = [&](std::uint32_t threads,
                          std::uint64_t &checks_run,
                          std::string &profile_json) {
            InvariantChecker check;
            CycleProfiler profile;
            SimConfig c = config;
            c.check = &check;
            c.profile = &profile;
            c.simThreads = threads;
            std::string json =
                Simulation(c, fs.bvh, fs.scene.mesh.triangles())
                    .run(rays)
                    .toJson();
            checks_run = check.checksRun();
            profile_json = profile.toJson();
            return json;
        };
        std::uint64_t ref_checks = 0;
        std::string ref_profile;
        const std::string ref = run_at(1, ref_checks, ref_profile);
        for (std::uint32_t threads : {2u, 4u}) {
            std::uint64_t got_checks = 0;
            std::string got_profile;
            const std::string got =
                run_at(threads, got_checks, got_profile);
            if (got != ref)
                return "sharded loop (simThreads=" +
                       std::to_string(threads) +
                       ") diverged from the sequential reference "
                       "SimResult JSON";
            if (got_checks != ref_checks)
                return "sharded loop (simThreads=" +
                       std::to_string(threads) + ") ran " +
                       std::to_string(got_checks) +
                       " checker probes vs " +
                       std::to_string(ref_checks) + " sequentially";
            if (got_profile != ref_profile)
                return "sharded loop (simThreads=" +
                       std::to_string(threads) +
                       ") diverged from the sequential reference "
                       "cycle-attribution profile JSON";
        }
        return std::string();
    } catch (const std::exception &e) {
        return e.what();
    }
}

/** Signature shared by runPoint and runShardedPoint. */
using PointRunner = std::string (*)(const SimConfig &,
                                    const FuzzScene &,
                                    const std::vector<Ray> &);

/**
 * Greedy chunk-removal shrink (ddmin-lite): repeatedly try dropping
 * contiguous chunks of the failing ray set, keeping any reduction that
 * still fails, halving the chunk size until single rays were tried.
 */
std::vector<Ray>
shrinkRays(PointRunner run, const SimConfig &config,
           const FuzzScene &fs, std::vector<Ray> rays)
{
    std::size_t chunk = rays.size() / 2;
    while (chunk >= 1) {
        bool reduced = false;
        for (std::size_t start = 0;
             start + chunk <= rays.size() && rays.size() > 1;) {
            std::vector<Ray> candidate;
            candidate.reserve(rays.size() - chunk);
            candidate.insert(candidate.end(), rays.begin(),
                             rays.begin() + start);
            candidate.insert(candidate.end(),
                             rays.begin() + start + chunk, rays.end());
            if (!run(config, fs, candidate).empty()) {
                rays = std::move(candidate);
                reduced = true;
                // Re-test the same start: the next chunk slid into it.
            } else {
                start += chunk;
            }
        }
        if (chunk == 1 && !reduced)
            break;
        chunk = chunk > 1 ? chunk / 2 : (reduced ? 1 : 0);
    }
    return rays;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\', out += ch;
        else if (ch == '\n')
            out += "\\n";
        else if (static_cast<unsigned char>(ch) < 0x20)
            out += ' ';
        else
            out += ch;
    }
    return out;
}

/** The full reproducer record for one failing seed. */
std::string
reproducerJson(std::uint64_t seed, const FuzzScene &fs,
               const SimConfig &config, std::size_t original_rays,
               std::size_t shrunk_rays, const std::string &error)
{
    std::string out = "{\"seed\":" + std::to_string(seed);
    out += ",\"scene\":\"" + fs.scene.shortName + "\"";
    out += ",\"detail\":0.05";
    out += ",\"rays\":" + std::to_string(original_rays);
    out += ",\"shrunk_rays\":" + std::to_string(shrunk_rays);
    out += ",\"error\":\"" + jsonEscape(error) + "\"";
    out += ",\"config\":" + configToJson(config);
    out += "}";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t num_seeds = 64;
    std::uint64_t base_seed = 1;
    bool repro_mode = false;
    bool sharded_mode = false;
    std::uint64_t repro_seed = 0;
    const char *repro_out = nullptr;

    for (int i = 1; i < argc; ++i) {
        auto arg_value = [&](const char *name) -> const char * {
            if (std::strcmp(argv[i], name) != 0)
                return nullptr;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "simfuzz: %s needs a value\n",
                             name);
                std::exit(2);
            }
            return argv[++i];
        };
        if (const char *v = arg_value("--seeds")) {
            num_seeds = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg_value("--base-seed")) {
            base_seed = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg_value("--repro")) {
            repro_mode = true;
            repro_seed = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg_value("--repro-out")) {
            repro_out = v;
        } else if (std::strcmp(argv[i], "--sharded") == 0) {
            sharded_mode = true;
        } else {
            std::fprintf(stderr,
                         "usage: simfuzz [--seeds N] [--base-seed B] "
                         "[--repro SEED] [--repro-out PATH] "
                         "[--sharded]\n");
            return 2;
        }
    }

    // Two cheap scenes with different structure: an open cathedral
    // (deep BVH, long rays) and a cluttered room (dense occlusion).
    std::vector<FuzzScene> scenes;
    scenes.emplace_back(SceneId::Sibenik);
    scenes.emplace_back(SceneId::FireplaceRoom);

    std::uint64_t first = repro_mode ? repro_seed : base_seed;
    std::uint64_t count = repro_mode ? 1 : num_seeds;
    std::uint64_t failures = 0;
    const PointRunner run = sharded_mode ? runShardedPoint : runPoint;
    if (sharded_mode)
        std::printf("simfuzz: sharded differential mode (sequential "
                    "vs simThreads 2 and 4)\n");

    for (std::uint64_t s = 0; s < count; ++s) {
        std::uint64_t seed = first + s;
        Rng rng(seed, 0x51f0fu);
        const FuzzScene &fs = scenes[rng.nextBounded(
            static_cast<std::uint32_t>(scenes.size()))];
        SimConfig config = deriveConfig(rng, fs.bvh);
        std::vector<Ray> rays = deriveRays(rng, fs);

        std::string error = run(config, fs, rays);
        if (error.empty()) {
            std::printf("seed %llu: ok (%s, %zu rays)\n",
                        static_cast<unsigned long long>(seed),
                        fs.scene.shortName.c_str(), rays.size());
            continue;
        }

        failures++;
        std::printf("seed %llu: FAIL (%s, %zu rays)\n%s\n",
                    static_cast<unsigned long long>(seed),
                    fs.scene.shortName.c_str(), rays.size(),
                    error.c_str());
        std::vector<Ray> shrunk = shrinkRays(run, config, fs, rays);
        std::string repro = reproducerJson(
            seed, fs, config, rays.size(), shrunk.size(), error);
        std::printf("reproducer (rerun with --repro %llu; shrunk to "
                    "%zu rays):\n%s\n",
                    static_cast<unsigned long long>(seed),
                    shrunk.size(), repro.c_str());
        if (repro_out) {
            std::ofstream out(repro_out);
            out << repro << "\n";
            std::printf("reproducer written to %s\n", repro_out);
        }
        // First failure is enough: later seeds would bury the
        // reproducer, and CI wants a fast, loud signal.
        break;
    }

    if (failures == 0)
        std::printf("simfuzz: %llu seed(s) passed\n",
                    static_cast<unsigned long long>(count));
    return failures == 0 ? 0 : 1;
}
