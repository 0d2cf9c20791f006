/**
 * @file
 * The observer seam: the one place components report to a run's
 * observers.
 *
 * Three observers watch a run from inside the components: the trace
 * sink (util/trace.hpp), the cycle profiler (util/profile.hpp) and the
 * invariant checker (util/check.hpp). The driver builds one RunObservers
 * per Simulation::run from SimConfig::{trace, profile, check}, with one
 * ObserverPort per SM. Every component holds one `ObserverPort *`, set
 * by one setObserver call, and the driver detaches it again when the
 * run ends. The shared L2 and DRAM hold none: MemorySystem::access
 * passes them the requesting SM's port.
 *
 * Contract:
 * - Off costs one branch per probe site. With no observer configured
 *   the ports are never built and every component holds nullptr.
 * - Pure observer. Probes only read simulated state, so cycles, stats
 *   and per-ray results are byte-identical with any observer set.
 * - One event, every consumer. A component emits a TraceEvent once; the
 *   port forwards it to the trace sink and to the profiler's matching
 *   tally (CycleProfiler::noteEvent).
 * - One thread. An observed run takes the sequential event loop
 *   (SimConfig::eventLoopWorkers), so every event reaches its
 *   consumers in emission order, at any simThreads.
 */

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/profile.hpp"
#include "util/trace.hpp"

namespace rtp {

/** One SM's connection to the run's observers. */
class ObserverPort
{
  public:
    /** @return true when the run has an invariant checker. */
    bool
    checking() const
    {
        return check_ != nullptr;
    }

    /**
     * Checker probe (InvariantChecker::require): a no-op, and @p detail
     * is never built, when the run has no checker.
     */
    template <typename DetailFn>
    void
    require(bool cond, const char *component, const char *invariant,
            DetailFn &&detail)
    {
        if (check_)
            check_->require(cond, component, invariant,
                            std::forward<DetailFn>(detail));
    }

    /** An event of this SM; the port fills in the SM as its unit. */
    void
    event(TraceEventKind kind, Cycle cycle, Cycle duration,
          std::uint16_t aux, std::uint64_t id, std::uint64_t arg)
    {
        report({cycle, duration, kind, static_cast<std::uint16_t>(sm_),
                aux, id, arg});
    }

    /**
     * An event of a shared level (L2 or DRAM) caused by this SM's
     * access; @p ev carries the level's own unit id.
     */
    void
    sharedEvent(const TraceEvent &ev)
    {
        report(ev);
    }

    // Profiler step spans (see CycleProfiler for the semantics).

    /** The SM pops an event at @p now. */
    void
    beginStep(Cycle now)
    {
        if (profile_)
            profile_->onEvent(sm_, now);
    }

    void
    noteExec(CycleCat cat, ProfRayType type)
    {
        if (profile_)
            profile_->noteExec(sm_, cat, type);
    }

    void
    noteMemLevel(std::uint8_t level)
    {
        if (profile_)
            profile_->noteMemLevel(sm_, level);
    }

    void
    closeStep(Cycle now, bool didWork, bool collectorPending)
    {
        if (profile_)
            profile_->closeStep(sm_, now, didWork, collectorPending);
    }

  private:
    friend class RunObservers;

    void
    report(const TraceEvent &ev)
    {
        if (trace_)
            trace_->emit(ev);
        if (profile_)
            profile_->noteEvent(sm_, ev);
    }

    TraceSink *trace_ = nullptr;
    CycleProfiler *profile_ = nullptr;
    InvariantChecker *check_ = nullptr;
    std::uint32_t sm_ = 0;
};

/** The observers of one run and their per-SM ports. */
class RunObservers
{
  public:
    /**
     * Build the ports for a run over @p numSms SMs and begin the
     * profiler's run. Any observer may be nullptr.
     */
    RunObservers(TraceSink *trace, CycleProfiler *profile,
                 InvariantChecker *check, std::uint32_t numSms);

    RunObservers(const RunObservers &) = delete;
    RunObservers &operator=(const RunObservers &) = delete;

    /** @return the per-SM port array, or nullptr when nothing observes. */
    ObserverPort *
    ports()
    {
        return ports_.empty() ? nullptr : ports_.data();
    }

    /**
     * End of run at @p endCycle: close the profiler's run and, with a
     * checker attached, assert the profiler's conservation law.
     */
    void finish(Cycle endCycle);

  private:
    CycleProfiler *profile_;
    InvariantChecker *check_;
    std::vector<ObserverPort> ports_;
};

} // namespace rtp
