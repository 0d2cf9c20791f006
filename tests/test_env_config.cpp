/** @file Tests for the unified environment/config layer
 *  (exp/env_config.hpp): strict parsing, defaults, and the aggregate
 *  EnvConfig::fromEnvironment snapshot.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "exp/env_config.hpp"
#include "exp/workload.hpp"

namespace rtp {
namespace {

/** RAII guard: sets an env var for one test, restores on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old) {
            hadOld_ = true;
            old_ = old;
        }
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (hadOld_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    bool hadOld_ = false;
    std::string old_;
};

TEST(EnvConfig, FlagUnsetAndEmptyAreFalse)
{
    ScopedEnv e("RTP_TEST_FLAG", nullptr);
    EXPECT_FALSE(parseEnvFlag("RTP_TEST_FLAG"));
    ScopedEnv e2("RTP_TEST_FLAG", "");
    EXPECT_FALSE(parseEnvFlag("RTP_TEST_FLAG"));
}

TEST(EnvConfig, FlagAcceptsOnlyZeroAndOne)
{
    ScopedEnv e("RTP_TEST_FLAG", "1");
    EXPECT_TRUE(parseEnvFlag("RTP_TEST_FLAG"));
    ScopedEnv e0("RTP_TEST_FLAG", "0");
    EXPECT_FALSE(parseEnvFlag("RTP_TEST_FLAG"));
    // "yes"/"true"/"2" silently meaning something is exactly the
    // ambiguity the strict layer exists to kill.
    for (const char *bad : {"yes", "true", "2", " 1", "on"}) {
        ScopedEnv eb("RTP_TEST_FLAG", bad);
        EXPECT_THROW(parseEnvFlag("RTP_TEST_FLAG"),
                     std::invalid_argument)
            << bad;
    }
}

TEST(EnvConfig, IndexParsesDecimalOrFallsBack)
{
    ScopedEnv e("RTP_TEST_IDX", nullptr);
    EXPECT_EQ(parseEnvIndex("RTP_TEST_IDX", 7u), 7u);
    ScopedEnv e2("RTP_TEST_IDX", "0");
    EXPECT_EQ(parseEnvIndex("RTP_TEST_IDX", 7u), 0u);
    ScopedEnv e3("RTP_TEST_IDX", "12");
    EXPECT_EQ(parseEnvIndex("RTP_TEST_IDX", 7u), 12u);
}

TEST(EnvConfig, IndexRejectsGarbage)
{
    for (const char *bad : {"", "-1", "3x", "0x10", "1 ", "1.5"}) {
        ScopedEnv e("RTP_TEST_IDX", bad);
        EXPECT_THROW(parseEnvIndex("RTP_TEST_IDX", 0u),
                     std::invalid_argument)
            << "\"" << bad << "\"";
    }
}

TEST(EnvConfig, PositiveRejectsZero)
{
    ScopedEnv e("RTP_TEST_POS", "0");
    EXPECT_THROW(parseEnvPositive("RTP_TEST_POS", 3u),
                 std::invalid_argument);
    ScopedEnv e2("RTP_TEST_POS", "4");
    EXPECT_EQ(parseEnvPositive("RTP_TEST_POS", 3u), 4u);
    ScopedEnv e3("RTP_TEST_POS", nullptr);
    EXPECT_EQ(parseEnvPositive("RTP_TEST_POS", 3u), 3u);
}

TEST(EnvConfig, EnvStringEmptyWhenUnset)
{
    ScopedEnv e("RTP_TEST_STR", nullptr);
    EXPECT_EQ(envString("RTP_TEST_STR"), "");
    ScopedEnv e2("RTP_TEST_STR", "/tmp/x");
    EXPECT_EQ(envString("RTP_TEST_STR"), "/tmp/x");
}

TEST(EnvConfig, FromEnvironmentDefaults)
{
    ScopedEnv c("RTP_CHECK", nullptr), t("RTP_TRACE", nullptr),
        tp("RTP_TRACE_POINT", nullptr), te("RTP_TELEMETRY", nullptr),
        tep("RTP_TELEMETRY_POINT", nullptr),
        per("RTP_TELEMETRY_PERIOD", nullptr),
        j("RTP_JSON_DIR", nullptr), sc("RTP_SCALE", nullptr),
        r("RTP_SELFBENCH_REPS", nullptr);
    EnvConfig env = EnvConfig::fromEnvironment();
    EXPECT_FALSE(env.check);
    EXPECT_TRUE(env.tracePath.empty());
    EXPECT_EQ(env.tracePoint, 0u);
    EXPECT_EQ(env.telemetryPeriod, 256u);
    EXPECT_EQ(env.scale, 1);
    EXPECT_EQ(env.selfbenchReps, 3);
}

TEST(EnvConfig, FromEnvironmentParsesEverySupportedVar)
{
    ScopedEnv c("RTP_CHECK", "1"), t("RTP_TRACE", "/tmp/t.json"),
        tp("RTP_TRACE_POINT", "2"), te("RTP_TELEMETRY", "/tmp/m.json"),
        tep("RTP_TELEMETRY_POINT", "1"),
        per("RTP_TELEMETRY_PERIOD", "512"), j("RTP_JSON_DIR", "/tmp"),
        sc("RTP_SCALE", "2"), r("RTP_SELFBENCH_REPS", "5");
    EnvConfig env = EnvConfig::fromEnvironment();
    EXPECT_TRUE(env.check);
    EXPECT_EQ(env.tracePath, "/tmp/t.json");
    EXPECT_EQ(env.tracePoint, 2u);
    EXPECT_EQ(env.telemetryPath, "/tmp/m.json");
    EXPECT_EQ(env.telemetryPoint, 1u);
    EXPECT_EQ(env.telemetryPeriod, 512u);
    EXPECT_EQ(env.jsonDir, "/tmp");
    EXPECT_EQ(env.scale, 2);
    EXPECT_EQ(env.selfbenchReps, 5);
}

TEST(EnvConfig, WorkloadKnobsParseStrictly)
{
    {
        ScopedEnv sc("RTP_SCALE", nullptr), p("RTP_PHOTONS", nullptr),
            pb("RTP_PHOTON_BOUNCES", nullptr),
            tb("RTP_PT_BOUNCES", nullptr);
        WorkloadConfig wc = WorkloadConfig::fromEnvironment();
        EXPECT_EQ(wc.raygen.photonCount, 0);
        EXPECT_EQ(wc.raygen.photonBounces, 2);
        EXPECT_EQ(wc.raygen.pathBounces, 4);
    }
    {
        ScopedEnv sc("RTP_SCALE", nullptr), p("RTP_PHOTONS", "5000"),
            pb("RTP_PHOTON_BOUNCES", "3"), tb("RTP_PT_BOUNCES", "6");
        WorkloadConfig wc = WorkloadConfig::fromEnvironment();
        EXPECT_EQ(wc.raygen.photonCount, 5000);
        EXPECT_EQ(wc.raygen.photonBounces, 3);
        EXPECT_EQ(wc.raygen.pathBounces, 6);
    }
    {
        // Photons may be 0 (per-pixel); bounce depths must be >= 1.
        ScopedEnv sc("RTP_SCALE", nullptr), p("RTP_PHOTONS", "0");
        EXPECT_EQ(WorkloadConfig::fromEnvironment().raygen.photonCount,
                  0);
    }
    {
        ScopedEnv sc("RTP_SCALE", nullptr),
            pb("RTP_PHOTON_BOUNCES", "0");
        EXPECT_THROW(WorkloadConfig::fromEnvironment(),
                     std::invalid_argument);
    }
    {
        ScopedEnv sc("RTP_SCALE", nullptr), tb("RTP_PT_BOUNCES", "x");
        EXPECT_THROW(WorkloadConfig::fromEnvironment(),
                     std::invalid_argument);
    }
}

TEST(EnvConfig, FromEnvironmentClampsScale)
{
    {
        ScopedEnv sc("RTP_SCALE", "9999");
        EXPECT_EQ(EnvConfig::fromEnvironment().scale, 16);
    }
    {
        ScopedEnv sc("RTP_SCALE", "0");
        EXPECT_THROW(EnvConfig::fromEnvironment(),
                     std::invalid_argument);
    }
}

} // namespace
} // namespace rtp
