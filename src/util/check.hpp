/**
 * @file
 * The invariant checker: the simulator's runtime validation layer.
 *
 * Trace (util/trace.hpp) records what happened; the profiler
 * (util/profile.hpp) attributes every cycle; this layer asserts that
 * what happened was *legal*. Components reach the checker through the
 * observer seam (util/observer.hpp, ObserverPort::check(); nullptr =
 * checking off, one branch per probe, the same pure-observer contract
 * as the other layers: simulated cycles, statistics, and per-ray
 * results are byte-identical with and without a checker) and call
 * require() at event boundaries to enforce
 * conservation laws — event timestamps monotone, cache accounting
 * balanced, ray-buffer slots never leaked, the repacker neither dropping
 * nor duplicating rays, predictor outcome counters consistent, the
 * traversal stack inside its hardware window.
 *
 * A violation throws InvariantViolation carrying the component, the law
 * that broke, the probe's detail string, and the run context installed
 * by the driver (configuration summary + workload size) — everything
 * needed to reproduce the failure without re-running under a debugger.
 * Attach via SimConfig::check, the RTP_CHECK env var in the bench
 * harness, or tools/simfuzz (see docs/validation.md).
 */

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace rtp {

/** Thrown when a simulation invariant is violated. */
class InvariantViolation : public std::logic_error
{
  public:
    InvariantViolation(std::string component, std::string invariant,
                       std::string detail, std::string context);

    /** Component whose probe fired (e.g. "RtUnit", "CacheModel/l1"). */
    const std::string &
    component() const
    {
        return component_;
    }

    /** The conservation law that broke, in words. */
    const std::string &
    invariant() const
    {
        return invariant_;
    }

    /** Probe-site values (the numbers that disagreed). */
    const std::string &
    detail() const
    {
        return detail_;
    }

    /** Run context installed via InvariantChecker::setContext. */
    const std::string &
    context() const
    {
        return context_;
    }

  private:
    std::string component_;
    std::string invariant_;
    std::string detail_;
    std::string context_;
};

/**
 * The checker object components probe. One checker observes one
 * simulation run at a time (like TraceSink / CycleProfiler), on one
 * thread: a checked run takes the sequential event loop. checksRun()
 * counts executed probes so tests can assert coverage; probes are
 * stateless apart from that counter.
 */
class InvariantChecker
{
  public:
    /**
     * Install the run context included in every violation (the driver
     * passes describe(config) plus the workload size).
     */
    void
    setContext(std::string context)
    {
        context_ = std::move(context);
    }

    const std::string &
    context() const
    {
        return context_;
    }

    /** @return Number of probes executed so far (violations throw). */
    std::uint64_t
    checksRun() const
    {
        return checksRun_;
    }

    /** Probe: throw InvariantViolation unless @p cond holds. */
    void
    require(bool cond, const char *component, const char *invariant)
    {
        ++checksRun_;
        if (!cond)
            fail(component, invariant, std::string());
    }

    /**
     * Probe with a lazily built detail string: @p detail is a callable
     * returning std::string, invoked only on failure so passing probes
     * stay cheap enough for per-event sites.
     */
    template <typename DetailFn>
    void
    require(bool cond, const char *component, const char *invariant,
            DetailFn &&detail)
    {
        ++checksRun_;
        if (!cond)
            fail(component, invariant, detail());
    }

    /** Unconditional failure with a full context dump. */
    [[noreturn]] void fail(const char *component, const char *invariant,
                           const std::string &detail) const;

  private:
    std::string context_;
    std::uint64_t checksRun_ = 0;
};

} // namespace rtp
