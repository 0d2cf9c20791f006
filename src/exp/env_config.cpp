#include "exp/env_config.hpp"

#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace rtp {

namespace {

/**
 * Parse a plain decimal environment value or throw. Shared strictness
 * core for the index/positive variants: no signs, no whitespace, no
 * trailing junk, no empty string — the same rules parseThreadCountEnv
 * established for RTP_THREADS.
 */
std::uint64_t
parseDecimalOrThrow(const char *name, const char *value,
                    const char *expected)
{
    const std::string text(value);
    bool digits = !text.empty();
    for (char c : text)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            digits = false;
    if (!digits)
        throw std::invalid_argument(std::string(name) + " must be " +
                                    expected + ", got \"" + text +
                                    "\"");
    errno = 0;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(value, &end, 10);
    if (errno != 0 || (end && *end != '\0'))
        throw std::invalid_argument(std::string(name) + " must be " +
                                    expected + ", got \"" + text +
                                    "\"");
    return parsed;
}

} // namespace

std::string
envString(const char *name)
{
    const char *p = std::getenv(name);
    return p ? std::string(p) : std::string();
}

bool
parseEnvFlag(const char *name)
{
    const char *p = std::getenv(name);
    if (!p || !*p)
        return false;
    const std::string text(p);
    if (text == "0")
        return false;
    if (text == "1")
        return true;
    throw std::invalid_argument(std::string(name) +
                                " must be \"0\" or \"1\", got \"" +
                                text + "\"");
}

std::uint64_t
parseEnvIndex(const char *name, std::uint64_t fallback)
{
    const char *p = std::getenv(name);
    if (!p)
        return fallback;
    return parseDecimalOrThrow(name, p,
                               "a non-negative decimal integer");
}

std::uint64_t
parseEnvPositive(const char *name, std::uint64_t fallback)
{
    const char *p = std::getenv(name);
    if (!p)
        return fallback;
    std::uint64_t parsed =
        parseDecimalOrThrow(name, p, "a positive decimal integer");
    if (parsed == 0)
        throw std::invalid_argument(
            std::string(name) +
            " must be a positive decimal integer, got \"" +
            std::string(p) + "\"");
    return parsed;
}

EnvConfig
EnvConfig::fromEnvironment()
{
    EnvConfig env;
    env.budget = threadBudgetFromEnv();

    env.check = parseEnvFlag("RTP_CHECK");

    if (const char *p = std::getenv("RTP_TRACE"))
        env.tracePath = p;
    env.tracePoint = static_cast<std::size_t>(
        parseEnvIndex("RTP_TRACE_POINT", 0));

    if (const char *p = std::getenv("RTP_PROFILE"))
        env.profilePath = p;
    env.profilePoint = static_cast<std::size_t>(
        parseEnvIndex("RTP_PROFILE_POINT", 0));

    if (const char *p = std::getenv("RTP_JSON_DIR"))
        env.jsonDir = p;

    // RTP_SCALE raises workload fidelity towards the paper's setup.
    // Values above 16 are clamped (they only waste memory), but zero,
    // negatives, and garbage are configuration errors and throw.
    std::uint64_t scale = parseEnvPositive("RTP_SCALE", 1);
    env.scale = scale > 16 ? 16 : static_cast<int>(scale);

    env.selfbenchReps = static_cast<int>(
        parseEnvPositive("RTP_SELFBENCH_REPS", 3));
    return env;
}

} // namespace rtp
