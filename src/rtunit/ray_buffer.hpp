/**
 * @file
 * The RT unit's ray buffer (Section 5.1.1).
 *
 * Stores per-ray data for every ray resident in the RT unit, indexed by
 * ray ID. The baseline holds 8 warps x 32 rays = 256 slots; warp
 * repacking with additional warps enlarges it (Section 4.4.2). Repacking
 * moves only ray IDs between warps — the ray data never moves, which is
 * what makes repacking cheap relative to register-file shuffles.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "geometry/intersect.hpp"
#include "geometry/ray.hpp"
#include "mem/cache.hpp" // Cycle
#include "rtunit/traversal_stack.hpp"

namespace rtp {

class InvariantChecker;
class ObserverPort;

/** Traversal phase of a resident ray. */
enum class RayPhase : std::uint8_t
{
    Lookup,   //!< waiting for / performing the predictor lookup
    PredEval, //!< evaluating predicted nodes (verification traversal)
    Normal,   //!< regular traversal from the root
    Done,     //!< traversal finished
};

/** One ray buffer slot: ray data, status, and traversal bookkeeping. */
struct RayEntry
{
    // Read for every member by each warp step's one pass over its warp
    // (doTraversal's gather or doLookups), so they lead the entry and
    // share its first cache line with the ray.
    /** Sentinel for `fetch`: readyAt is exact. */
    static constexpr std::uint32_t kNoFetch = ~0u;

    Cycle readyAt = 0;          //!< next cycle this ray can issue
    RayPhase phase = RayPhase::Lookup;
    bool hit = false;           //!< result: a hit was found
    /**
     * The RT unit's pending fetch whose deferred L1 fill this ray's
     * node data waits on, or kNoFetch. While set, readyAt is a lower
     * bound and the exact value is the fetch's ready cycle plus
     * fetchLatency.
     */
    std::uint32_t fetch = kNoFetch;

    Ray ray;                    //!< current ray (tMax shrinks, GI trim)
    RayBoxPrecomp pre;          //!< safeInv reciprocal, cached at entry
    std::uint32_t globalId = 0; //!< position in the submitted batch
    TraversalStack stack;
    Cycle dispatchedAt = 0;     //!< cycle the ray entered the unit
    Cycle predEvalStart = 0;    //!< cycle the verification traversal began

    // Prediction bookkeeping (Section 3 terminology).
    bool predicted = false;
    bool verified = false;
    bool mispredicted = false;

    // Result.
    float hitT = 0.0f;
    std::uint32_t hitPrim = ~0u;
    std::uint32_t hitLeaf = ~0u;

    // Per-ray access counts (drive Figure 13 and Table 5).
    std::uint32_t nodeFetches = 0;    //!< interior node fetches
    std::uint32_t triFetches = 0;     //!< leaf/triangle fetches
    std::uint32_t predPhaseFetches = 0; //!< fetches while in PredEval

    std::uint32_t fetchLatency = 0; //!< node test cycles after `fetch`
    std::uint32_t nextWaiting = 0;  //!< next ray slot on `fetch`'s list
};

/** Slot manager for resident rays. */
class RayBuffer
{
  public:
    explicit RayBuffer(std::uint32_t capacity);

    /** @return true if at least @p n slots are free. */
    bool
    hasFree(std::uint32_t n) const
    {
        return freeList_.size() >= n;
    }

    std::uint32_t
    freeSlots() const
    {
        return static_cast<std::uint32_t>(freeList_.size());
    }

    std::uint32_t
    capacity() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

    /**
     * Allocate a slot for @p ray.
     * @throws std::logic_error when no slot is free — callers must
     *         check hasFree() first; allocating past capacity is a
     *         scheduling bug and must fail loudly rather than corrupt
     *         resident rays.
     */
    std::uint32_t allocate(const Ray &ray, std::uint32_t global_id,
                           std::uint32_t stack_entries);

    /** Give every slot's traversal stack room for @p entries nodes. */
    void reserveStacks(std::uint32_t entries);

    /** Release slot @p idx back to the free list. */
    void release(std::uint32_t idx);

    RayEntry &
    slot(std::uint32_t idx)
    {
        return slots_[idx];
    }

    const RayEntry &
    slot(std::uint32_t idx) const
    {
        return slots_[idx];
    }

    /**
     * Attach the owning SM's observer port (nullptr detaches). With a
     * checker attached every release() scans the free list for
     * double-frees and out-of-range slot indices — the two corruptions
     * that silently shrink or alias the resident-ray pool.
     */
    void
    setObserver(ObserverPort *obs)
    {
        obs_ = obs;
    }

    /**
     * End-of-run sweep: with all rays retired, every slot must be back
     * on the free list exactly once. Catches leaked slots that a run
     * with spare capacity would otherwise absorb without hanging.
     */
    void checkFinalState(InvariantChecker &check) const;

  private:
    std::vector<RayEntry> slots_;
    std::vector<std::uint32_t> freeList_;
    ObserverPort *obs_ = nullptr;
};

} // namespace rtp
