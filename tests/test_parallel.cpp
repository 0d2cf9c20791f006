/** @file Thread-pool / parallel sweep engine tests (exp/parallel.hpp). */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bvh/builder.hpp"
#include "exp/harness.hpp"
#include "exp/parallel.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"
#include "service/sim_service.hpp"

namespace rtp {
namespace {

/** Scoped override of one environment variable. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    bool had_ = false;
    std::string old_;
};

/** Scoped RTP_THREADS override. */
struct ThreadsEnv : ScopedEnv
{
    explicit ThreadsEnv(const char *value)
        : ScopedEnv("RTP_THREADS", value)
    {
    }
};

/** Scoped RTP_SIM_THREADS override. */
struct SimThreadsEnv : ScopedEnv
{
    explicit SimThreadsEnv(const char *value)
        : ScopedEnv("RTP_SIM_THREADS", value)
    {
    }
};

TEST(ThreadPool, DefaultThreadCountHonoursEnv)
{
    {
        ThreadsEnv env("3");
        EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
    }
    {
        ThreadsEnv env(nullptr);
        EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
    }
    {
        // Malformed values must fail loudly, not clamp to a default
        // that silently changes the benchmark's thread budget.
        ThreadsEnv env("0");
        EXPECT_THROW(ThreadPool::defaultThreadCount(),
                     std::invalid_argument);
    }
    {
        ThreadsEnv env("abc");
        EXPECT_THROW(ThreadPool::defaultThreadCount(),
                     std::invalid_argument);
    }
}

TEST(ParseThreadCountEnv, AcceptsPlainPositiveIntegers)
{
    {
        ThreadsEnv env("1");
        EXPECT_EQ(parseThreadCountEnv("RTP_THREADS", 7), 1u);
    }
    {
        ThreadsEnv env("16");
        EXPECT_EQ(parseThreadCountEnv("RTP_THREADS", 7), 16u);
    }
    {
        ThreadsEnv env(nullptr); // unset -> fallback
        EXPECT_EQ(parseThreadCountEnv("RTP_THREADS", 7), 7u);
    }
}

TEST(ParseThreadCountEnv, RejectsGarbageWithDescriptiveError)
{
    const char *bad[] = {"abc", "", "4x", "-2", "+3", " 3",
                         "3 ",  "0", "0x4", "999999999999"};
    for (const char *value : bad) {
        ThreadsEnv env(value);
        try {
            parseThreadCountEnv("RTP_THREADS", 1);
            FAIL() << "expected throw for RTP_THREADS=\"" << value
                   << "\"";
        } catch (const std::invalid_argument &e) {
            // The message must name the variable and echo the value so
            // a CI log alone identifies the misconfiguration.
            EXPECT_NE(std::string(e.what()).find("RTP_THREADS"),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find(value),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ThreadBudget, ComposesSweepAndSimThreads)
{
    {
        // Both set: honour both exactly.
        ThreadsEnv sweep("3");
        SimThreadsEnv sim("4");
        ThreadBudget b = threadBudgetFromEnv(8);
        EXPECT_EQ(b.sweepThreads, 3u);
        EXPECT_EQ(b.simThreads, 4u);
    }
    {
        // Only RTP_SIM_THREADS: the sweep pool shrinks so the total
        // thread count stays near the hardware budget.
        ThreadsEnv sweep(nullptr);
        SimThreadsEnv sim("4");
        ThreadBudget b = threadBudgetFromEnv(8);
        EXPECT_EQ(b.sweepThreads, 2u);
        EXPECT_EQ(b.simThreads, 4u);
    }
    {
        // Oversubscribed sim threads still leave one sweep worker.
        ThreadsEnv sweep(nullptr);
        SimThreadsEnv sim("16");
        ThreadBudget b = threadBudgetFromEnv(8);
        EXPECT_EQ(b.sweepThreads, 1u);
        EXPECT_EQ(b.simThreads, 16u);
    }
    {
        // Only RTP_THREADS, a pool of several: the pool fills the
        // host, so each simulation runs the sequential event loop.
        ThreadsEnv sweep("5");
        SimThreadsEnv sim(nullptr);
        ThreadBudget b = threadBudgetFromEnv(8);
        EXPECT_EQ(b.sweepThreads, 5u);
        EXPECT_EQ(b.simThreads, 1u);
    }
    {
        // Only RTP_THREADS=1: one simulation at a time, so each one
        // picks its own worker count (auto).
        ThreadsEnv sweep("1");
        SimThreadsEnv sim(nullptr);
        ThreadBudget b = threadBudgetFromEnv(8);
        EXPECT_EQ(b.sweepThreads, 1u);
        EXPECT_EQ(b.simThreads, SimConfig::kAutoSimThreads);
    }
    {
        // Neither: all hardware goes to the sweep pool.
        ThreadsEnv sweep(nullptr);
        SimThreadsEnv sim(nullptr);
        ThreadBudget b = threadBudgetFromEnv(8);
        EXPECT_EQ(b.sweepThreads, 8u);
        EXPECT_EQ(b.simThreads, 1u);
    }
    {
        // Neither, on a one-thread host: a pool of one, so auto.
        ThreadsEnv sweep(nullptr);
        SimThreadsEnv sim(nullptr);
        ThreadBudget b = threadBudgetFromEnv(1);
        EXPECT_EQ(b.sweepThreads, 1u);
        EXPECT_EQ(b.simThreads, SimConfig::kAutoSimThreads);
    }
    {
        // RTP_SIM_THREADS=1 is an explicit sequential request, even
        // for a pool of one.
        ThreadsEnv sweep("1");
        SimThreadsEnv sim("1");
        ThreadBudget b = threadBudgetFromEnv(8);
        EXPECT_EQ(b.simThreads, 1u);
    }
    {
        // Malformed sim-thread values surface through the budget too.
        ThreadsEnv sweep(nullptr);
        SimThreadsEnv sim("two");
        EXPECT_THROW(threadBudgetFromEnv(8), std::invalid_argument);
    }
}

TEST(ThreadPool, ExecutesEverySubmittedJob)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&count] { count.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(count.load(), (batch + 1) * 10);
    }
}

TEST(ThreadPool, DestructorDrainsOutstandingJobs)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                count.fetch_add(1);
            });
        // No wait(): the destructor must still run every job.
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(RunSweep, PreservesSubmissionOrder)
{
    ThreadsEnv env("4");
    std::vector<int> items;
    for (int i = 0; i < 64; ++i)
        items.push_back(i);
    std::vector<int> results = runSweep(items, [](int v) {
        // Stagger completion so out-of-order finishes would show up.
        std::this_thread::sleep_for(
            std::chrono::microseconds((64 - v) * 10));
        return v * v;
    });
    ASSERT_EQ(results.size(), items.size());
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(RunSweep, EmptyInput)
{
    std::vector<int> empty;
    std::vector<int> results = runSweep(empty, [](int v) { return v; });
    EXPECT_TRUE(results.empty());
}

TEST(RunSweep, RethrowsFirstErrorInItemOrder)
{
    ThreadsEnv env("4");
    std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7};
    try {
        runSweep(items, [](int v) {
            if (v == 2 || v == 5)
                throw std::runtime_error("boom " + std::to_string(v));
            return v;
        });
        FAIL() << "expected exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 2");
    }
}

TEST(RunSweep, ReportsTiming)
{
    ThreadsEnv env("2");
    std::vector<int> items = {1, 2, 3, 4};
    SweepTiming timing;
    runSweep(
        items,
        [](int v) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return v;
        },
        nullptr, &timing);
    EXPECT_EQ(timing.runs, 4u);
    EXPECT_EQ(timing.threads, 2u);
    EXPECT_GT(timing.wallSeconds, 0.0);
    EXPECT_GE(timing.serialSeconds, timing.wallSeconds * 0.5);
}

/** Shared scene rig for the simulation determinism tests. */
struct Rig
{
    Scene scene;
    Bvh bvh;
    RayBatch ao;

    Rig() : scene(makeScene(SceneId::Sibenik, 0.05f))
    {
        bvh = BvhBuilder().build(scene.mesh.triangles());
        RayGenConfig cfg;
        cfg.width = 24;
        cfg.height = 24;
        cfg.samplesPerPixel = 2;
        cfg.viewportFraction = 0.3f;
        ao = generateAoRays(scene, bvh, cfg);
    }
};

Rig &
rig()
{
    static Rig r;
    return r;
}

/** Run @p cfg over the rig's AO rays. */
SimResult
runRig(const SimConfig &cfg)
{
    return Simulation(cfg, rig().bvh, rig().scene.mesh.triangles())
        .run(rig().ao.rays);
}

std::vector<SimPoint>
sweepPoints()
{
    // A mixed sweep: baseline, proposed, and two config variants.
    std::vector<SimPoint> points;
    SimConfig variant = SimConfig::proposed();
    variant.predictor.goUpLevel = 2;
    SimConfig two_sms = SimConfig::baseline();
    two_sms.numSms = 2;
    SimConfig eight_sms = SimConfig::proposed();
    eight_sms.numSms = 8; // shards under an auto simThreads
    for (const SimConfig &cfg : {SimConfig::baseline(),
                                 SimConfig::proposed(), variant,
                                 two_sms, eight_sms}) {
        SimPoint p;
        p.bvh = &rig().bvh;
        p.triangles = &rig().scene.mesh.triangles();
        p.rays = &rig().ao.rays;
        p.config = cfg;
        points.push_back(p);
    }
    return points;
}

TEST(SimThreadsAuto, DefaultShardsOnlyFromFourSms)
{
    // One hardware thread is left to the rest of the host.
    const std::uint32_t hw = std::thread::hardware_concurrency();
    const std::uint32_t spare = hw > 1 ? hw - 1 : 1;
    SimConfig config;
    EXPECT_EQ(config.simThreads, SimConfig::kAutoSimThreads);
    config.numSms = 2;
    EXPECT_EQ(config.eventLoopWorkers(), 1u);
    config.numSms = 3;
    EXPECT_EQ(config.eventLoopWorkers(), 1u);
    config.numSms = 4;
    EXPECT_EQ(config.eventLoopWorkers(), std::min(spare, 4u));
    config.numSms = 8;
    EXPECT_EQ(config.eventLoopWorkers(), std::min(spare, 8u));
    EXPECT_NO_THROW(config.validate());
}

TEST(SimThreadsAuto, ExplicitValuesKeepTheirMeaning)
{
    SimConfig config;
    config.numSms = 8;
    config.simThreads = 1;
    EXPECT_EQ(config.eventLoopWorkers(), 1u);
    config.simThreads = 3;
    EXPECT_EQ(config.eventLoopWorkers(), 3u);
    config.simThreads = 16; // clamps to one worker per SM
    EXPECT_EQ(config.eventLoopWorkers(), 8u);
    config.numSms = 2;
    config.simThreads = 4; // explicit sharding below 4 SMs is allowed
    EXPECT_EQ(config.eventLoopWorkers(), 2u);
}

TEST(SimThreadsAuto, OnlyAutoInheritsTheBudget)
{
    // The harness, bench_incoherent and the job server all fill a
    // config through inheritSimThreads: an explicit 1 stays
    // sequential under RTP_SIM_THREADS=4, auto takes the budget.
    SimConfig seq;
    seq.numSms = 8;
    seq.simThreads = 1;
    seq.inheritSimThreads(4);
    EXPECT_EQ(seq.simThreads, 1u);
    EXPECT_EQ(seq.eventLoopWorkers(), 1u);

    SimConfig automatic;
    automatic.numSms = 8;
    automatic.inheritSimThreads(4);
    EXPECT_EQ(automatic.simThreads, 4u);
    automatic.inheritSimThreads(2); // no longer auto: kept
    EXPECT_EQ(automatic.simThreads, 4u);

    SimConfig still_auto;
    still_auto.inheritSimThreads(SimConfig::kAutoSimThreads);
    EXPECT_EQ(still_auto.simThreads, SimConfig::kAutoSimThreads);
}

TEST(SimThreadsAuto, PoolOfSeveralGetsOneSimThread)
{
    {
        SimThreadsEnv sim(nullptr);
        EXPECT_EQ(simThreadsForPool(2), 1u);
        EXPECT_EQ(simThreadsForPool(1), SimConfig::kAutoSimThreads);
    }
    {
        SimThreadsEnv sim("3");
        EXPECT_EQ(simThreadsForPool(2), 3u);
        EXPECT_EQ(simThreadsForPool(1), 3u);
    }
    {
        SimThreadsEnv sim("0");
        EXPECT_THROW(simThreadsForPool(1), std::invalid_argument);
    }
}

TEST(SimThreadsAuto, ServiceResolvesAgainstItsOwnPool)
{
    // SimService applies the same rule to its worker pool: 1 under
    // several workers, auto under one, RTP_SIM_THREADS when set, and
    // an explicit ServiceConfig::simThreads above all.
    ServiceConfig sc;
    {
        SimThreadsEnv sim(nullptr);
        sc.workers = 2;
        EXPECT_EQ(SimService(sc).jobSimThreads(), 1u);
        sc.workers = 1;
        EXPECT_EQ(SimService(sc).jobSimThreads(),
                  SimConfig::kAutoSimThreads);
    }
    {
        SimThreadsEnv sim("3");
        sc.workers = 1;
        EXPECT_EQ(SimService(sc).jobSimThreads(), 3u);
        sc.simThreads = 2;
        EXPECT_EQ(SimService(sc).jobSimThreads(), 2u);
    }
}

TEST(RunSweep, SimulationResultsIdenticalAcrossThreadCounts)
{
    // The tentpole contract: the same sweep at 1 thread and N threads
    // must produce bitwise-identical results in the same order.
    std::vector<SimResult> serial, parallel;
    {
        ThreadsEnv env("1");
        serial = runSimPoints(sweepPoints(), nullptr);
    }
    {
        ThreadsEnv env("8");
        parallel = runSimPoints(sweepPoints(), nullptr);
    }
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles) << "point " << i;
        EXPECT_EQ(serial[i].totalMemAccesses(),
                  parallel[i].totalMemAccesses())
            << "point " << i;
        // Full bitwise equality including every stat and double field.
        EXPECT_EQ(serial[i].toJson(), parallel[i].toJson())
            << "point " << i;
    }
}

TEST(RunSweep, ShardedSimThreadsEnvPreservesResults)
{
    // RTP_SIM_THREADS routes every sweep point through the sharded
    // event loop; the results must stay byte-identical to the
    // sequential reference regardless of the sweep pool size.
    std::vector<SimResult> sequential, sharded, automatic;
    {
        ThreadsEnv sweep("1");
        SimThreadsEnv sim("1");
        sequential = runSimPoints(sweepPoints(), nullptr);
    }
    {
        ThreadsEnv sweep("2");
        SimThreadsEnv sim("2");
        sharded = runSimPoints(sweepPoints(), nullptr);
    }
    {
        // A pool of one leaves each point at auto: the 8-SM point
        // shards across the host's threads, the others stay
        // sequential.
        ThreadsEnv sweep("1");
        SimThreadsEnv sim(nullptr);
        automatic = runSimPoints(sweepPoints(), nullptr);
    }
    ASSERT_EQ(sequential.size(), sharded.size());
    ASSERT_EQ(sequential.size(), automatic.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        EXPECT_EQ(sequential[i].toJson(), sharded[i].toJson())
            << "point " << i;
        EXPECT_EQ(sequential[i].toJson(), automatic[i].toJson())
            << "point " << i;
    }
}

TEST(SimResultJson, DeterministicAndWellFormed)
{
    SimResult r = runRig(SimConfig::proposed());
    std::string a = r.toJson();
    EXPECT_EQ(a, r.toJson());
    EXPECT_EQ(a.front(), '{');
    EXPECT_EQ(a.back(), '}');
    EXPECT_NE(a.find("\"cycles\":"), std::string::npos);
    EXPECT_NE(a.find("\"stats\":"), std::string::npos);
    EXPECT_NE(a.find("\"mem_stats\":"), std::string::npos);
}

TEST(JsonResultSink, WritesDeterministicFile)
{
    SimResult r = runRig(SimConfig::baseline());
    std::string written[2];
    for (int round = 0; round < 2; ++round) {
        std::string dir = ::testing::TempDir();
        setenv("RTP_JSON_DIR", dir.c_str(), 1);
        JsonResultSink sink("test_sink");
        sink.add("scene/\"quoted\"", r);
        sink.add("scene/second", r);
        ASSERT_TRUE(sink.close());
        unsetenv("RTP_JSON_DIR");
        std::ifstream in(sink.path());
        ASSERT_TRUE(in.good());
        std::ostringstream body;
        body << in.rdbuf();
        written[round] = body.str();
    }
    EXPECT_EQ(written[0], written[1]);
    EXPECT_NE(written[0].find("\"bench\":\"test_sink\""),
              std::string::npos);
    EXPECT_NE(written[0].find("\"scene/\\\"quoted\\\"\":"),
              std::string::npos);
    EXPECT_NE(written[0].find("\"results\":{"), std::string::npos);
}

TEST(RunPairsParallel, MatchesSerialRunPair)
{
    WorkloadConfig wc;
    wc.detail = 0.05f;
    wc.raygen.width = 24;
    wc.raygen.height = 24;
    wc.raygen.samplesPerPixel = 2;
    wc.raygen.viewportFraction = 0.3f;
    WorkloadCache cache(wc);
    std::vector<const Workload *> ws =
        cache.getAll({SceneId::Sibenik, SceneId::FireplaceRoom});

    ThreadsEnv env("4");
    std::vector<RunOutcome> par = runPairsParallel(
        ws, SimConfig::baseline(), SimConfig::proposed(), false,
        nullptr);
    ASSERT_EQ(par.size(), ws.size());
    for (std::size_t i = 0; i < ws.size(); ++i) {
        const Workload &w = *ws[i];
        Simulation base(SimConfig::baseline(), w.bvh,
                        w.scene.mesh.triangles());
        Simulation pred(SimConfig::proposed(), w.bvh,
                        w.scene.mesh.triangles());
        EXPECT_EQ(par[i].scene, w.scene.shortName);
        EXPECT_EQ(par[i].baseline.toJson(),
                  base.run(w.ao.rays).toJson());
        EXPECT_EQ(par[i].treatment.toJson(),
                  pred.run(w.ao.rays).toJson());
    }
}

} // namespace
} // namespace rtp
