/** @file Experiment harness / workload cache tests. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "exp/harness.hpp"
#include "gpu/config.hpp"

namespace rtp {
namespace {

TEST(Geomean, Basics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 1.0);
    EXPECT_DOUBLE_EQ(geomean({2.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-9);
}

TEST(WorkloadConfig, EnvironmentScaling)
{
    unsetenv("RTP_SCALE");
    WorkloadConfig base = WorkloadConfig::fromEnvironment();
    EXPECT_NEAR(base.detail, 0.12f, 1e-5f);
    EXPECT_EQ(base.raygen.width, 96);
    EXPECT_NEAR(base.raygen.viewportFraction, 96.0f / 1024.0f, 1e-5f);

    setenv("RTP_SCALE", "4", 1);
    WorkloadConfig scaled = WorkloadConfig::fromEnvironment();
    EXPECT_GT(scaled.detail, base.detail);
    EXPECT_GT(scaled.raygen.width, base.raygen.width);
    // Pixel density (width / fraction) stays at 1024.
    EXPECT_NEAR(scaled.raygen.width / scaled.raygen.viewportFraction,
                1024.0f, 1.0f);

    setenv("RTP_SCALE", "9999", 1); // clamped
    WorkloadConfig big = WorkloadConfig::fromEnvironment();
    EXPECT_LE(big.detail, 1.0f);

    // Strict parsing (exp/env_config.hpp): non-positive or garbage
    // values throw instead of being silently clamped to the default.
    setenv("RTP_SCALE", "-3", 1);
    EXPECT_THROW(WorkloadConfig::fromEnvironment(),
                 std::invalid_argument);
    setenv("RTP_SCALE", "4x", 1);
    EXPECT_THROW(WorkloadConfig::fromEnvironment(),
                 std::invalid_argument);
    unsetenv("RTP_SCALE");
}

TEST(WorkloadCache, CachesPerScene)
{
    WorkloadConfig wc;
    wc.detail = 0.03f;
    wc.raygen.width = 16;
    wc.raygen.height = 16;
    WorkloadCache cache(wc);
    const Workload &a = cache.get(SceneId::Sibenik);
    const Workload &b = cache.get(SceneId::Sibenik);
    EXPECT_EQ(&a, &b); // same object: built once
    EXPECT_GT(a.ao.rays.size(), 0u);
    EXPECT_EQ(a.ao.rays.size(), a.aoSorted.rays.size());
}

TEST(WorkloadCache, SortedBatchIsMortonOrdered)
{
    WorkloadConfig wc;
    wc.detail = 0.03f;
    wc.raygen.width = 24;
    wc.raygen.height = 24;
    WorkloadCache cache(wc);
    const Workload &w = cache.get(SceneId::FireplaceRoom);
    // Sorted copy holds the same ray multiset (spot-check a checksum).
    double sum_a = 0, sum_b = 0;
    for (const Ray &r : w.ao.rays)
        sum_a += r.origin.x + r.dir.y;
    for (const Ray &r : w.aoSorted.rays)
        sum_b += r.origin.x + r.dir.y;
    EXPECT_NEAR(sum_a, sum_b, 1e-3);
}

TEST(Harness, RunPairProducesBothResults)
{
    WorkloadConfig wc;
    wc.detail = 0.03f;
    wc.raygen.width = 24;
    wc.raygen.height = 24;
    wc.raygen.viewportFraction = 24.0f / 1024.0f;
    WorkloadCache cache(wc);
    const Workload &w = cache.get(SceneId::Sibenik);
    RunOutcome out = runPairsParallel({&w}, SimConfig::baseline(),
                                      SimConfig::proposed(), false,
                                      nullptr)
                         .front();
    EXPECT_EQ(out.scene, "SB");
    EXPECT_GT(out.baseline.cycles, 0u);
    EXPECT_GT(out.treatment.cycles, 0u);
    EXPECT_GT(out.speedup(), 0.0);
    EXPECT_EQ(out.baseline.stats.get("rays_predicted"), 0u);
    EXPECT_GT(out.treatment.stats.get("rays_predicted"), 0u);
}

TEST(Harness, EnsureParentDirCreatesNestedDirectories)
{
    namespace fs = std::filesystem;
    fs::path root = fs::temp_directory_path() / "rtp_harness_dirtest";
    fs::remove_all(root);
    fs::path file = root / "a" / "b" / "out.json";
    EXPECT_TRUE(ensureParentDir(file.string()));
    EXPECT_TRUE(fs::is_directory(root / "a" / "b"));
    // Idempotent when the directory already exists.
    EXPECT_TRUE(ensureParentDir(file.string()));
    // A bare filename has no directory portion to create.
    EXPECT_TRUE(ensureParentDir("out.json"));
    fs::remove_all(root);
}

TEST(Harness, JsonSinkCreatesMissingOutputDirectory)
{
    // Regression test: RTP_JSON_DIR pointing at a directory that does
    // not exist yet (e.g. bench/baselines on a fresh checkout) must be
    // created recursively instead of silently failing the write.
    namespace fs = std::filesystem;
    fs::path root = fs::temp_directory_path() / "rtp_harness_sinktest";
    fs::remove_all(root);
    fs::path dir = root / "nested" / "deeper";
    setenv("RTP_JSON_DIR", dir.string().c_str(), 1);
    {
        JsonResultSink sink("bench_dirtest");
        EXPECT_TRUE(sink.close());
        EXPECT_TRUE(fs::exists(sink.path()));
        EXPECT_EQ(fs::path(sink.path()).parent_path(), dir);
        std::ifstream in(sink.path());
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        EXPECT_NE(text.find("\"bench\":\"bench_dirtest\""),
                  std::string::npos);
    }
    unsetenv("RTP_JSON_DIR");
    fs::remove_all(root);
}

TEST(Harness, PctFormatting)
{
    EXPECT_EQ(pct(0.263), "+26.3%");
    EXPECT_EQ(pct(-0.05), "-5.0%");
    EXPECT_EQ(pct(0.0), "+0.0%");
}

TEST(GpuConfig, DescribeMentionsKeyKnobs)
{
    std::string base = describe(SimConfig::baseline());
    EXPECT_NE(base.find("no predictor"), std::string::npos);
    SimConfig p = SimConfig::proposed();
    p.rt.additionalWarps = 4;
    std::string pd = describe(p);
    EXPECT_NE(pd.find("1024"), std::string::npos);
    EXPECT_NE(pd.find("GoUp 3"), std::string::npos);
    EXPECT_NE(pd.find("+4 warps"), std::string::npos);
}

TEST(GpuConfig, FactoryDefaultsMatchTables)
{
    SimConfig p = SimConfig::proposed();
    // Table 2: 2 SMs; Table 3 predictor settings.
    EXPECT_EQ(p.numSms, 2u);
    EXPECT_EQ(p.predictor.table.numEntries, 1024u);
    EXPECT_EQ(p.predictor.table.ways, 4u);
    EXPECT_EQ(p.predictor.table.nodesPerEntry, 1u);
    EXPECT_EQ(p.predictor.goUpLevel, 3u);
    EXPECT_EQ(p.predictor.accessPorts, 4u);
    EXPECT_EQ(p.predictor.hash.originBits, 5);
    EXPECT_EQ(p.predictor.hash.directionBits, 3);
    EXPECT_TRUE(p.rt.repackEnabled);
    EXPECT_EQ(p.memory.l1.sizeBytes, 64u * 1024u);
    EXPECT_EQ(p.memory.l2.sizeBytes, 1024u * 1024u);

    SimConfig b = SimConfig::baseline();
    EXPECT_FALSE(b.predictor.enabled);
    EXPECT_FALSE(b.rt.repackEnabled);
}

} // namespace
} // namespace rtp
