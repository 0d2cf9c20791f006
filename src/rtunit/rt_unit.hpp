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
 * A traversal step walks its warp's members once: the gather that picks
 * each ready ray's next node also folds every waiting ray's ready cycle
 * into the warp's next event, and the issued rays are folded after
 * their fetches settled. Finished rays are retired only when the step
 * saw one finish. A lookup step, and a step during which one of this
 * SM's deferred fills was applied, rescan the warp instead.
 *
 * Under the sharded loop an L1 miss may come back with a deferred fill
 * (mem/memory_system.hpp): its ready cycle is only a lower bound. The
 * node is still tested at once; only the ray's readyAt waits, as a
 * pending fetch that fillApplied completes. A warp whose next event
 * depends on such a ray is parked, with no event queued, until then.
 *
 * A unit traces a share of the caller's batch in place: each warp
 * reads its chunk of rays from the batch at dispatch, and each
 * completed ray's result goes straight to its slot of the caller's
 * result array, so a run holds no per-unit copy of either.
 *
 * Running allocates nothing: warp slot lists, ray entries and their
 * traversal stacks, the event pool, pending fetches, the partial warp
 * collector's ring, and the scheduler's scratch buffers are sized when
 * the unit is built, on the thread that builds it, and reused.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
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
     * Submit this unit's share of a batch, replacing any earlier one:
     * the warp-sized chunks @p first_chunk, @p first_chunk +
     * @p chunk_stride, ... of @p rays, each traced as one warp. A ray is
     * read at dispatch, named by its position in @p rays, and its result
     * written to that position of @p results; both must outlive the run.
     * @throws std::invalid_argument if the views differ in size, the
     *         stride is 0, or a 32-bit ray id cannot name every ray.
     */
    void submit(std::span<const Ray> rays, std::uint32_t first_chunk,
                std::uint32_t chunk_stride, std::span<RayResult> results);

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

    /**
     * Sharded loop: this SM's deferred L1 fill @p done was applied
     * (fills arrive in sequence order). Completes the fetches that
     * waited on it, gives their rays exact ready cycles and schedules
     * the warps that were parked on them.
     */
    void fillApplied(const FillDone &done);

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
        std::uint32_t lookups = 0;        //!< members in RayPhase::Lookup
        bool repacked = false;
        bool notPredictedResidue = false; //!< residue after repacking
        /** No event queued: the next one waits on a pending fetch. */
        bool parked = false;
        Cycle parkFloor = 0; //!< earliest cycle of that next event

        /** Return to the pristine state, keeping slots' capacity. */
        void
        reset()
        {
            slots.clear();
            order = 0;
            dispatchedAt = 0;
            raysAtDispatch = 0;
            lookups = 0;
            repacked = false;
            notPredictedResidue = false;
            parked = false;
        }
    };

    /**
     * A warp's next event, folded over its live rays: the earliest
     * exact ready cycle, and the earliest lower bound of a ray whose
     * node data waits on a deferred fill. A traversal step folds each
     * member once, as it gathers or after it issued.
     */
    struct NextEvent
    {
        static constexpr Cycle kNever = ~Cycle{0};
        Cycle exact = kNever;
        Cycle bound = kNever;
        bool retired = false; //!< a member reached RayPhase::Done

        void
        fold(const RayEntry &e)
        {
            if (e.fetch == RayEntry::kNoFetch)
                exact = std::min(exact, e.readyAt);
            else
                bound = std::min(bound, e.readyAt);
        }
    };

    /** A memory request whose data waits on deferred L1 fills. */
    struct PendingFetch
    {
        Cycle ready = 0;         //!< max ready cycle of its known lines
        Cycle start = 0;         //!< issue cycle (fetch-latency sample)
        std::uint32_t holds = 0; //!< unapplied fills + 1 while issuing
        std::uint32_t warp = 0;  //!< warp of the rays that wait on it
        std::uint32_t rays = RayEntry::kNoFetch; //!< first waiting slot
    };

    /** One link of a deferred fill's list of waiting fetches. */
    struct FillWaiter
    {
        std::uint32_t fetch;
        std::uint32_t next;
    };

    /** A unique request of one warp step (intra-warp merge table). */
    struct Served
    {
        std::uint64_t addr;
        Cycle ready;         //!< exact, or a lower bound with `fetch`
        std::uint32_t fetch; //!< pending fetch, or RayEntry::kNoFetch
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

    /** Run one scheduling step for a warp: its lookups or one
     *  traversal iteration, retirement, and its next event. */
    void stepWarp(std::uint32_t warp_idx, Cycle now);

    /** Handle the lookup phase for the given warp members.
     *  @return true when at least one lookup was processed. */
    bool doLookups(Warp &warp, Cycle now);

    /**
     * One traversal iteration for all ready rays of a warp, in one pass
     * over its members: each ray that is not ready is folded into
     * @p next as it is skipped, each issued ray once its fetch settled.
     * @return true when at least one ray issued or retired.
     */
    bool doTraversal(std::uint32_t warp_idx, Cycle now, NextEvent &next);

    /** Open a pending fetch for warp @p warp_idx issued at @p start,
     *  holding it until releaseFetch. */
    std::uint32_t openFetch(std::uint32_t warp_idx, Cycle start);

    /** Make fetch @p fetch wait on this SM's deferred fill @p seq. */
    void waitOnFill(std::uint64_t seq, std::uint32_t fetch);

    /** Drop one hold on @p fetch; the last one completes it. */
    void releaseFetch(std::uint32_t fetch);

    /** Rescan the warp's members, then scheduleNext. */
    void scheduleOrPark(std::uint32_t warp_idx, Cycle floor);

    /**
     * Queue the warp's next event at @p next's earliest exact ready
     * cycle, but not before @p floor — or park it while a ray whose
     * ready cycle is still a lower bound could come first.
     */
    void scheduleNext(std::uint32_t warp_idx, const NextEvent &next,
                      Cycle floor);

    /** Checker probe: the warp's lookup count matches its members. */
    void checkLookupCount(const Warp &warp) const;

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
    void dispatchRepacked(std::span<const std::uint32_t> slots,
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

    // The submitted batch, its result array, and this unit's next
    // undispatched chunk (every chunkStride_-th warp-sized chunk).
    std::span<const Ray> rays_;
    std::span<RayResult> results_;
    std::size_t nextChunk_ = 0;
    std::uint32_t chunkStride_ = 1;

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
    std::vector<Served> servedScratch_; //!< merge table (<= warpSize)
    std::vector<std::uint32_t> repackScratch_;    //!< collector output

    // Pending fetches and the lists of them waiting on each deferred
    // fill, pooled. fillWaiters_ holds list heads indexed by fill
    // sequence number modulo its power-of-two size; it always spans
    // every unapplied fill a fetch waits on.
    std::vector<PendingFetch> fetches_;
    std::vector<std::uint32_t> freeFetches_;
    std::vector<FillWaiter> waiters_;
    std::uint32_t freeWaiter_ = RayEntry::kNoFetch;
    std::vector<std::uint32_t> fillWaiters_;
    std::uint64_t nextFillSeq_ = 0; //!< oldest unapplied fill

    StatGroup stats_;
    ObserverPort *obs_ = nullptr;
    std::uint64_t issueActiveThreads_ = 0;
    std::uint64_t issueSlots_ = 0;
};

} // namespace rtp
