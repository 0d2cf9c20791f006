/**
 * @file
 * Parameterised predictor-configuration property sweeps: every
 * combination of table geometry / hash / Go Up Level the benches sweep
 * must preserve the simulator's core invariants (correct hit results,
 * consistent prediction accounting), regardless of whether it performs
 * well.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "exp/workload.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"

namespace rtp {
namespace {

struct SweepFixture
{
    Scene scene;
    Bvh bvh;
    RayBatch ao;
    std::vector<bool> refHits;

    SweepFixture() : scene(makeScene(SceneId::Sibenik, 0.06f))
    {
        bvh = BvhBuilder().build(scene.mesh.triangles());
        RayGenConfig rg;
        rg.width = 40;
        rg.height = 40;
        rg.samplesPerPixel = 2;
        rg.viewportFraction = 40.0f / 1024.0f;
        ao = generateAoRays(scene, bvh, rg);
        refHits.reserve(ao.rays.size());
        BvhTraversal trav(bvh, scene.mesh.triangles());
        for (const Ray &r : ao.rays)
            refHits.push_back(trav.anyHit(r).hit);
    }
};

SweepFixture &
fx()
{
    static SweepFixture f;
    return f;
}

/** Run @p cfg over the fixture's AO rays. */
SimResult
runFx(const SimConfig &cfg)
{
    return Simulation(cfg, fx().bvh, fx().scene.mesh.triangles())
        .run(fx().ao.rays);
}

void
checkInvariants(const SimResult &r)
{
    ASSERT_EQ(r.rayResults.size(), fx().ao.rays.size());
    for (std::size_t i = 0; i < r.rayResults.size(); ++i)
        ASSERT_EQ(fx().refHits[i], r.rayResults[i].hit) << "ray " << i;
    EXPECT_EQ(r.stats.get("rays_predicted"),
              r.stats.get("rays_verified") +
                  r.stats.get("rays_mispredicted"));
    EXPECT_LE(r.stats.get("rays_verified"), r.stats.get("rays_hit"));
    EXPECT_GT(r.cycles, 0u);
}

// ---- table geometry sweep -------------------------------------------

using TableParam = std::tuple<int, int, int>; // entries, ways, nodes

class TableSweepTest : public ::testing::TestWithParam<TableParam>
{
};

TEST_P(TableSweepTest, InvariantsHold)
{
    auto [entries, ways, nodes] = GetParam();
    SimConfig cfg = SimConfig::proposed();
    cfg.predictor.table.numEntries = entries;
    cfg.predictor.table.ways = ways;
    cfg.predictor.table.nodesPerEntry = nodes;
    checkInvariants(runFx(cfg));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TableSweepTest,
    ::testing::Values(TableParam{64, 1, 1}, TableParam{512, 2, 1},
                      TableParam{1024, 4, 1}, TableParam{1024, 4, 4},
                      TableParam{2048, 8, 2}, TableParam{128, 128, 1}),
    [](const auto &info) {
        std::string name = "e";
        name.append(std::to_string(std::get<0>(info.param)))
            .append("w")
            .append(std::to_string(std::get<1>(info.param)))
            .append("n")
            .append(std::to_string(std::get<2>(info.param)));
        return name;
    });

// ---- hash sweep ------------------------------------------------------

using HashParam = std::tuple<int, int, int>; // fn, originBits, dirBits

class HashSweepTest : public ::testing::TestWithParam<HashParam>
{
};

TEST_P(HashSweepTest, InvariantsHold)
{
    auto [fn, origin, dir] = GetParam();
    SimConfig cfg = SimConfig::proposed();
    cfg.predictor.hash.function = fn == 0 ? HashFunction::GridSpherical
                                          : HashFunction::TwoPoint;
    cfg.predictor.hash.originBits = origin;
    cfg.predictor.hash.directionBits = dir;
    checkInvariants(runFx(cfg));
}

INSTANTIATE_TEST_SUITE_P(
    Hashes, HashSweepTest,
    ::testing::Values(HashParam{0, 3, 1}, HashParam{0, 5, 3},
                      HashParam{0, 5, 5}, HashParam{1, 3, 3},
                      HashParam{1, 5, 3}),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) == 0 ? "GS" : "TP") +
               "o" + std::to_string(std::get<1>(info.param)) + "d" +
               std::to_string(std::get<2>(info.param));
    });

// ---- Go Up Level x repacking sweep ------------------------------------

using ModeParam = std::tuple<int, bool, int>; // goUp, repack, extraWarps

class ModeSweepTest : public ::testing::TestWithParam<ModeParam>
{
};

TEST_P(ModeSweepTest, InvariantsHold)
{
    auto [goup, repack, extra] = GetParam();
    SimConfig cfg = SimConfig::proposed();
    cfg.predictor.goUpLevel = goup;
    cfg.rt.repackEnabled = repack;
    cfg.rt.additionalWarps = extra;
    checkInvariants(runFx(cfg));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ModeSweepTest,
    ::testing::Values(ModeParam{0, true, 0}, ModeParam{3, true, 0},
                      ModeParam{5, true, 0}, ModeParam{3, false, 0},
                      ModeParam{3, true, 4}, ModeParam{8, true, 2}),
    [](const auto &info) {
        std::string name = "g";
        name.append(std::to_string(std::get<0>(info.param)))
            .append(std::get<1>(info.param) ? "r1" : "r0")
            .append("x")
            .append(std::to_string(std::get<2>(info.param)));
        return name;
    });

// ---- memory configuration sweep ---------------------------------------

using MemParam = std::tuple<int, bool, int>; // l1KB, l2, ports

class MemSweepTest : public ::testing::TestWithParam<MemParam>
{
};

TEST_P(MemSweepTest, InvariantsHold)
{
    auto [l1kb, l2, ports] = GetParam();
    SimConfig cfg = SimConfig::proposed();
    cfg.memory.l1.sizeBytes = l1kb * 1024;
    cfg.memory.l2Enabled = l2;
    cfg.rt.l1PortsPerCycle = ports;
    checkInvariants(runFx(cfg));
}

INSTANTIATE_TEST_SUITE_P(
    Memories, MemSweepTest,
    ::testing::Values(MemParam{16, true, 4}, MemParam{64, true, 1},
                      MemParam{64, false, 4}, MemParam{384, true, 8}),
    [](const auto &info) {
        return "l1_" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "_l2" : "_nol2") + "_p" +
               std::to_string(std::get<2>(info.param));
    });

} // namespace
} // namespace rtp
