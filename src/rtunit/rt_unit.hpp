/**
 * @file
 * The baseline ray tracing unit (Section 5.1, Figure 10), augmented with
 * the ray intersection predictor and warp repacking.
 *
 * The RT unit receives __traceray() warps of 32 rays, holds them in the
 * ray buffer, and walks each ray through the while-while BVH traversal
 * (Algorithm 1) as a per-ray state machine:
 *
 *   Lookup   -> predictor table lookup; hit seeds the traversal stack
 *               with the predicted node(s), miss seeds it with the root.
 *   PredEval -> verification traversal from the predicted nodes; finding
 *               an intersection verifies the ray, exhausting the stack
 *               mispredicts it and restarts a full traversal (Section 3).
 *   Normal   -> regular traversal from the root.
 *   Done     -> result written back; hits train the predictor with the
 *               Go-Up-Level ancestor of the intersected leaf.
 *
 * Timing is event-driven: rays carry ready-cycles, warps are served
 * greedy-then-oldest (Section 5.1.2), duplicate node requests within a
 * warp merge into one memory access, and the L1 port admits one request
 * per cycle. Warp repacking (Section 4.4) pulls predicted rays into the
 * partial warp collector after the lookup phase.
 *
 * Steady-state operation is allocation-free: warp slot vectors, ray
 * entries, traversal stacks, and the scheduler's scratch buffers are all
 * pooled and reused, so a run's heap traffic is bounded by its warm-up.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "bvh/bvh.hpp"
#include "core/predictor.hpp"
#include "core/repacker.hpp"
#include "mem/memory_system.hpp"
#include "rtunit/event_queue.hpp"
#include "rtunit/intersection_unit.hpp"
#include "rtunit/ray_buffer.hpp"
#include "util/stats.hpp"

namespace rtp {

struct TelemetrySmSample;
class ObserverPort;

/** RT unit configuration (Section 5.1 / Table 2 defaults). */
struct RtUnitConfig
{
    std::uint32_t warpSize = 32;
    std::uint32_t maxWarps = 8;       //!< concurrently resident warps
    std::uint32_t additionalWarps = 0; //!< extra slots for repacked warps
    std::uint32_t stackEntries = 8;   //!< hardware traversal stack window
    std::uint32_t l1PortsPerCycle = 4; //!< L1 requests issued per cycle
    Cycle queueLatency = 1;           //!< cycles to enter the unit
    IntersectionConfig isect;
    bool repackEnabled = true;        //!< Section 4.4 warp repacking
    RepackerConfig repacker;
};

/** Final state of one traced ray. */
struct RayResult
{
    bool hit = false;
    float t = 0.0f;
    std::uint32_t prim = ~0u;
    bool predicted = false;
    bool verified = false;
    bool mispredicted = false;
};

/** One RT unit instance (one per SM). */
class RtUnit
{
  public:
    /**
     * @param config Unit configuration.
     * @param bvh Scene BVH (shared).
     * @param triangles Scene triangles (shared).
     * @param mem The memory hierarchy.
     * @param sm_id Index of the owning SM (selects the L1).
     * @param predictor The SM's predictor, or nullptr for the baseline.
     */
    RtUnit(const RtUnitConfig &config, const Bvh &bvh,
           const std::vector<Triangle> &triangles, MemorySystem &mem,
           std::uint32_t sm_id, RayPredictor *predictor);

    /**
     * Submit the full ray workload (traced as warps of 32), replacing
     * any earlier one. @p global_ids name the rays in traces and checker
     * messages; results() is indexed by position in @p rays.
     */
    void submit(std::vector<Ray> rays,
                std::vector<std::uint32_t> global_ids);

    /** @return true once every submitted ray has completed. */
    bool finished() const;

    /** @return true if the unit has a pending event to process. */
    bool
    hasEvents() const
    {
        return !events_.empty();
    }

    /**
     * @return Cycle of the next pending event.
     * @throws std::logic_error if the event queue is empty — an
     *         unfinished unit with no events is a scheduling bug, and
     *         release builds must fail loudly rather than read
     *         undefined memory and spin forever.
     */
    Cycle nextEventCycle() const;

    /** Process the next pending event. */
    void step();

    /** @return Cycle the last ray completed. */
    Cycle
    completionCycle() const
    {
        return completionCycle_;
    }

    /** @return Submitted rays that have not completed yet (the count
     *  the event-loop error messages report for stuck units). */
    std::uint64_t
    outstandingRays() const
    {
        return remainingRays_;
    }

    /** Per-ray results in submission order: results()[k] belongs to
     *  the k-th submitted ray (valid when finished). */
    const std::vector<RayResult> &
    results() const
    {
        return results_;
    }

    const StatGroup &
    stats() const
    {
        return stats_;
    }

    StatGroup &
    stats()
    {
        return stats_;
    }

    const IntersectionUnit &
    intersectionUnit() const
    {
        return isect_;
    }

    /** Average fraction of active threads per warp issue (SIMT eff.). */
    double simtEfficiency() const;

    /**
     * Telemetry probe: fill this SM's sample row — busy/stall cycle
     * counts, instantaneous warp/ray-buffer/event-queue/collector
     * occupancy, cumulative warp and predictor-outcome counters, and
     * this SM's L1 counters (see util/telemetry.hpp). Pure observer:
     * only reads state, so interval sampling cannot perturb the
     * simulation.
     */
    void snapshotInto(TelemetrySmSample &out) const;

    /**
     * Attach this SM's observer port (nullptr detaches), shared with
     * the ray buffer, event queue, partial warp collector, and this
     * SM's predictor (see util/observer.hpp). Every event then reports
     * its trace events and classifies its own cycle and the wait gap
     * before it for the profiler; with a checker attached, stack pushes
     * stay inside the hardware window, completed rays carry consistent
     * prediction flags, slots are never double-released, and event time
     * never runs backwards. Pure observer: simulated cycles and
     * statistics never change.
     */
    void setObserver(ObserverPort *obs);

    /**
     * End-of-run sweep, called by the driver once every ray completed:
     * warp and prediction-outcome accounting must balance, all warps
     * must have retired, and the ray buffer and collector must be
     * empty. See docs/validation.md for the invariant catalogue.
     */
    void checkFinalState(InvariantChecker &check) const;

  private:
    struct Warp
    {
        std::vector<std::uint32_t> slots; //!< ray buffer slot indices
        std::uint64_t order = 0;          //!< dispatch order (GTO age)
        Cycle dispatchedAt = 0;           //!< cycle the warp was formed
        std::uint32_t raysAtDispatch = 0; //!< member count at dispatch
        bool repacked = false;
        bool notPredictedResidue = false; //!< residue after repacking

        /** Return to the pristine state, keeping slots' capacity. */
        void
        reset()
        {
            slots.clear();
            order = 0;
            dispatchedAt = 0;
            raysAtDispatch = 0;
            repacked = false;
            notPredictedResidue = false;
        }
    };

    /** One ready ray's next node fetch within a warp step. */
    struct Issue
    {
        std::uint32_t slot;
        std::uint32_t node;
        bool isLeaf;
        std::uint32_t extraLocalAccesses; //!< stack spills/refills
    };

    /** Try to dispatch pending external warps into free slots. */
    void dispatchPending(Cycle now);

    /** Run one scheduling step for a warp. */
    void stepWarp(std::uint32_t warp_idx, Cycle now);

    /** Handle the lookup phase for the given warp members.
     *  @return true when at least one lookup was processed. */
    bool doLookups(Warp &warp, Cycle now);

    /** One traversal iteration for all ready rays of a warp.
     *  @return true when at least one ray issued or retired. */
    bool doTraversal(Warp &warp, Cycle now);

    /** Process a node fetched for a ray; returns post-test ready time. */
    Cycle processNode(RayEntry &entry, std::uint32_t node_idx,
                      Cycle data_ready);

    /** Checker probe: the stack stays inside its hardware window. */
    void checkStackWindow(const RayEntry &entry) const;

    /** Mark a ray complete; trains the predictor on hits. */
    void completeRay(std::uint32_t slot, Cycle now);

    /** Checker probe: flag/result consistency of a completing ray. */
    void checkCompletedRay(const RayEntry &e) const;

    /** Create a warp from collector ray IDs (repacked). */
    void dispatchRepacked(const std::vector<std::uint32_t> &slots,
                          Cycle now);

    /** Allocate a warp structure (reusing retired slots). */
    std::uint32_t allocWarp();

    /** Schedule (or reschedule) a warp's next event. */
    void scheduleWarp(std::uint32_t warp_idx, Cycle cycle);

    /** Schedule the collector timeout flush if needed. */
    void scheduleCollectorFlush();

    RtUnitConfig config_;
    const Bvh &bvh_;
    const std::vector<Triangle> &triangles_;
    MemorySystem &mem_;
    std::uint32_t smId_;
    RayPredictor *predictor_;

    RayBuffer buffer_;
    IntersectionUnit isect_;

    PartialWarpCollector collector_;
    std::vector<Warp> warps_;
    std::vector<std::uint32_t> freeWarpSlots_;
    std::uint32_t activeExternalWarps_ = 0;
    std::uint32_t activeWarps_ = 0;

    // Pending (not yet dispatched) rays.
    std::vector<Ray> pendingRays_;
    std::vector<std::uint32_t> pendingIds_;
    std::size_t pendingNext_ = 0;

    EventQueue events_;
    std::uint64_t dispatchCounter_ = 0;
    std::vector<Cycle> l1Ports_;
    Cycle completionCycle_ = 0;
    std::uint64_t remainingRays_ = 0;

    // Per-step scratch buffers, reused across steps so the steady state
    // performs no heap allocation.
    std::vector<std::uint32_t> predictedScratch_; //!< doLookups repack set
    std::vector<std::uint32_t> predNodesScratch_; //!< predictor lookup out
    std::vector<Issue> issueScratch_;             //!< doTraversal issues
    std::vector<std::pair<std::uint64_t, Cycle>>
        servedScratch_; //!< intra-warp request merge table (<= warpSize)

    std::vector<RayResult> results_;
    StatGroup stats_;
    ObserverPort *obs_ = nullptr;
    std::uint64_t issueActiveThreads_ = 0;
    std::uint64_t issueSlots_ = 0;

    // Telemetry accounting (distinct-cycle busy/stall counts). Plain
    // members, not StatGroup entries, so end-of-run stat output is
    // unchanged whether or not a sampler reads them. A cycle counts as
    // busy when >= 1 warp step issued work in it and as stalled when
    // >= 1 warp step found no ready ray; one cycle can be both (two
    // warps), and idle time is derived offline as elapsed - busy.
    std::uint64_t busyCycles_ = 0;
    std::uint64_t stallCycles_ = 0;
    Cycle lastBusyCycle_ = ~0ull;
    Cycle lastStallCycle_ = ~0ull;
};

} // namespace rtp
