#include "rtunit/rt_unit.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "geometry/intersect.hpp"
#include "util/check.hpp"
#include "util/observer.hpp"
#include "util/telemetry.hpp"

namespace rtp {

namespace {

/** Attribution ray type of @p kind (closest-hit folds both kinds). */
ProfRayType
profRayType(RayKind kind)
{
    return kind == RayKind::Occlusion ? ProfRayType::Occlusion
                                      : ProfRayType::ClosestHit;
}

} // namespace

void
RtUnit::setObserver(ObserverPort *obs)
{
    obs_ = obs;
    buffer_.setObserver(obs);
    events_.setObserver(obs);
    collector_.setObserver(obs);
    if (predictor_)
        predictor_->setObserver(obs);
}

void
RtUnit::checkCompletedRay(const RayEntry &e) const
{
    obs_->require(!(e.verified && e.mispredicted), "RtUnit",
                  "a ray is never both verified and mispredicted",
                  [&] { return "global ray " +
                               std::to_string(e.globalId); });
    obs_->require(
        !(e.verified || e.mispredicted) || e.predicted, "RtUnit",
        "only a predicted ray can be verified or mispredicted",
        [&] { return "global ray " + std::to_string(e.globalId); });
    obs_->require(!e.hit || (e.hitPrim != ~0u && e.hitLeaf != ~0u),
                  "RtUnit",
                  "a hit ray names the primitive and leaf it hit",
                  [&] {
                      return "global ray " + std::to_string(e.globalId) +
                             ": prim " + std::to_string(e.hitPrim) +
                             ", leaf " + std::to_string(e.hitLeaf);
                  });
}

void
RtUnit::checkFinalState(InvariantChecker &check) const
{
    std::uint64_t predicted = stats_.get(StatId::RaysPredicted);
    std::uint64_t verified = stats_.get(StatId::RaysVerified);
    std::uint64_t mispredicted = stats_.get(StatId::RaysMispredicted);
    check.require(
        predicted == verified + mispredicted, "RtUnit",
        "every predicted ray resolves as verified or mispredicted",
        [&] {
            return "SM " + std::to_string(smId_) + ": predicted " +
                   std::to_string(predicted) + " != verified " +
                   std::to_string(verified) + " + mispredicted " +
                   std::to_string(mispredicted);
        });
    std::uint64_t dispatched = stats_.get(StatId::WarpsDispatched);
    std::uint64_t repacked = stats_.get(StatId::RepackedWarps);
    std::uint64_t retired = stats_.get(StatId::WarpsRetired);
    check.require(dispatched + repacked == retired, "RtUnit",
                  "every dispatched or repacked warp retires", [&] {
                      return "SM " + std::to_string(smId_) +
                             ": dispatched " + std::to_string(dispatched) +
                             " + repacked " + std::to_string(repacked) +
                             " != retired " + std::to_string(retired);
                  });
    check.require(activeWarps_ == 0, "RtUnit",
                  "no warp is active after the last ray completed",
                  [&] {
                      return "SM " + std::to_string(smId_) + ": " +
                             std::to_string(activeWarps_) +
                             " warps still active";
                  });
    buffer_.checkFinalState(check);
    collector_.checkFinalState(check);
    if (predictor_)
        predictor_->checkFinalState(check);
}

RtUnit::RtUnit(const RtUnitConfig &config, const Bvh &bvh,
               const std::vector<Triangle> &triangles, MemorySystem &mem,
               std::uint32_t sm_id, RayPredictor *predictor)
    : config_(config), bvh_(bvh), triangles_(triangles), mem_(mem),
      smId_(sm_id), predictor_(predictor),
      buffer_((config.maxWarps + config.additionalWarps) *
              config.warpSize),
      isect_(config.isect), collector_(config.repacker)
{
    l1Ports_.assign(std::max(1u, config_.l1PortsPerCycle), 0);
    // Concurrent warps are bounded by one warp per resident ray plus the
    // external warp limit; reserving up front keeps Warp& references
    // stable across allocWarp() calls.
    warps_.reserve(buffer_.capacity() + config_.maxWarps + 1);
    std::uint32_t warp = std::max(1u, config_.warpSize);
    predictedScratch_.reserve(warp);
    predNodesScratch_.reserve(8);
    issueScratch_.reserve(warp);
    servedScratch_.reserve(warp);
}

std::uint32_t
RtUnit::allocWarp()
{
    if (!freeWarpSlots_.empty()) {
        std::uint32_t idx = freeWarpSlots_.back();
        freeWarpSlots_.pop_back();
        return idx;
    }
    assert(warps_.size() < warps_.capacity());
    warps_.emplace_back();
    return static_cast<std::uint32_t>(warps_.size() - 1);
}

void
RtUnit::submit(std::vector<Ray> rays,
               std::vector<std::uint32_t> global_ids)
{
    assert(rays.size() == global_ids.size());
    pendingRays_ = std::move(rays);
    pendingIds_ = std::move(global_ids);
    pendingNext_ = 0;
    remainingRays_ = pendingRays_.size();
    results_.assign(pendingRays_.size(), RayResult{});
    dispatchPending(0);
}

bool
RtUnit::finished() const
{
    return remainingRays_ == 0;
}

Cycle
RtUnit::nextEventCycle() const
{
    if (events_.empty())
        throw std::logic_error(
            "RtUnit::nextEventCycle: empty event queue (SM " +
            std::to_string(smId_) + ")");
    return events_.nextCycle();
}

void
RtUnit::step()
{
    if (events_.empty())
        throw std::logic_error(
            "RtUnit::step: empty event queue (SM " +
            std::to_string(smId_) + ")");
    RtEvent ev = events_.pop();
    if (obs_)
        obs_->beginStep(ev.cycle);

    if (ev.kind == RtEventKind::CollectorFlush) {
        auto flushed = collector_.flushIfExpired(ev.cycle);
        if (!flushed.empty())
            dispatchRepacked(flushed, ev.cycle);
        scheduleCollectorFlush();
        if (obs_) {
            obs_->noteExec(CycleCat::RepackWait, ProfRayType::None);
            obs_->closeStep(ev.cycle, true,
                            collector_.pendingCount() > 0);
        }
        return;
    }

    stepWarp(ev.warp, ev.cycle);
}

void
RtUnit::dispatchPending(Cycle now)
{
    // External __traceray() warps are limited by the warp limit and by
    // ray buffer capacity (Section 5.1.1: 32 x 8 = 256 rays). Repacked
    // warps are "newly created" inside the unit and schedule freely --
    // they reuse resident rays, so the buffer is their only bound.
    // "Repack N" (Section 4.4.2) raises the limit by N warps to exploit
    // the under-utilisation repacking leaves behind.
    while (pendingNext_ < pendingRays_.size() &&
           activeExternalWarps_ <
               config_.maxWarps + config_.additionalWarps &&
           buffer_.hasFree(config_.warpSize)) {
        std::uint32_t warp_idx = allocWarp();
        Warp &w = warps_[warp_idx];
        w.reset();
        w.order = dispatchCounter_++;
        w.dispatchedAt = now + config_.queueLatency;
        std::size_t count =
            std::min<std::size_t>(config_.warpSize,
                                  pendingRays_.size() - pendingNext_);
        for (std::size_t i = 0; i < count; ++i) {
            std::uint32_t slot = buffer_.allocate(
                pendingRays_[pendingNext_ + i],
                pendingIds_[pendingNext_ + i], config_.stackEntries);
            RayEntry &e = buffer_.slot(slot);
            e.localId = static_cast<std::uint32_t>(pendingNext_ + i);
            e.readyAt = now + config_.queueLatency;
            e.dispatchedAt = now + config_.queueLatency;
            e.phase = RayPhase::Lookup;
            w.slots.push_back(slot);
        }
        w.raysAtDispatch = static_cast<std::uint32_t>(count);
        pendingNext_ += count;
        activeExternalWarps_++;
        activeWarps_++;
        stats_.inc(StatId::WarpsDispatched);
        if (obs_)
            obs_->event(TraceEventKind::WarpDispatch, w.dispatchedAt, 0,
                        0, w.order, count);
        scheduleWarp(warp_idx, now + config_.queueLatency);
    }
}

void
RtUnit::dispatchRepacked(const std::vector<std::uint32_t> &slots,
                         Cycle now)
{
    if (slots.empty())
        return;
    std::uint32_t warp_idx = allocWarp();
    Warp &w = warps_[warp_idx];
    w.reset();
    w.order = dispatchCounter_++;
    w.repacked = true;
    w.slots.assign(slots.begin(), slots.end());
    w.dispatchedAt = now;
    w.raysAtDispatch = static_cast<std::uint32_t>(slots.size());
    activeWarps_++;
    stats_.inc(StatId::RepackedWarps);
    if (obs_)
        obs_->event(TraceEventKind::WarpDispatch, now, 0, 1, w.order,
                    slots.size());
    scheduleWarp(warp_idx, now);
}

void
RtUnit::scheduleWarp(std::uint32_t warp_idx, Cycle cycle)
{
    events_.push(RtEvent{cycle, warps_[warp_idx].order,
                         RtEventKind::WarpStep, warp_idx});
}

void
RtUnit::scheduleCollectorFlush()
{
    if (collector_.pendingCount() == 0)
        return;
    events_.push(RtEvent{collector_.deadline(), ~0ull,
                         RtEventKind::CollectorFlush, 0});
}

void
RtUnit::stepWarp(std::uint32_t warp_idx, Cycle now)
{
    Warp &warp = warps_[warp_idx];
    if (warp.slots.empty()) {
        // Stale event for a retired warp: still a popped event, so the
        // profiler must close its cycle or attribution would leak.
        if (obs_)
            obs_->closeStep(now, false, collector_.pendingCount() > 0);
        return;
    }

    bool any_lookup = false;
    for (std::uint32_t s : warp.slots) {
        if (buffer_.slot(s).phase == RayPhase::Lookup) {
            any_lookup = true;
            break;
        }
    }

    bool did_work =
        any_lookup ? doLookups(warp, now) : doTraversal(warp, now);
    if (did_work) {
        if (now != lastBusyCycle_) {
            lastBusyCycle_ = now;
            busyCycles_++;
        }
    } else if (now != lastStallCycle_) {
        lastStallCycle_ = now;
        stallCycles_++;
    }
    if (obs_)
        obs_->closeStep(now, did_work, collector_.pendingCount() > 0);

    // Retire completed rays from the warp (in-place compaction).
    std::size_t live = 0;
    for (std::size_t i = 0; i < warp.slots.size(); ++i) {
        std::uint32_t s = warp.slots[i];
        if (buffer_.slot(s).phase == RayPhase::Done)
            completeRay(s, now);
        else
            warp.slots[live++] = s;
    }
    warp.slots.resize(live);

    if (warp.slots.empty()) {
        // Warp complete: free the slot and admit pending work.
        bool external = !warp.repacked;
        if (obs_)
            obs_->event(TraceEventKind::WarpComplete, warp.dispatchedAt,
                        now > warp.dispatchedAt
                            ? now - warp.dispatchedAt
                            : 0,
                        warp.repacked ? 1 : 0, warp.order,
                        warp.raysAtDispatch);
        warp.reset();
        freeWarpSlots_.push_back(warp_idx);
        activeWarps_--;
        if (external)
            activeExternalWarps_--;
        stats_.inc(StatId::WarpsRetired);
        dispatchPending(now);
        return;
    }

    // Next event: the earliest time any member ray can issue again.
    Cycle next = ~0ull;
    for (std::uint32_t s : warp.slots)
        next = std::min(next, buffer_.slot(s).readyAt);
    scheduleWarp(warp_idx, std::max(next, now + 1));
}

bool
RtUnit::doLookups(Warp &warp, Cycle now)
{
    predictedScratch_.clear();
    std::size_t keep = 0;
    bool processed = false;

    for (std::size_t i = 0; i < warp.slots.size(); ++i) {
        std::uint32_t s = warp.slots[i];
        RayEntry &e = buffer_.slot(s);
        if (e.phase != RayPhase::Lookup) {
            warp.slots[keep++] = s;
            continue;
        }
        if (e.readyAt > now) {
            warp.slots[keep++] = s;
            continue;
        }
        processed = true;
        if (obs_)
            obs_->noteExec(predictor_ ? CycleCat::PredLookup
                                      : CycleCat::WarpIssue,
                           profRayType(e.ray.kind));

        if (!predictor_) {
            e.phase = RayPhase::Normal;
            e.stack.push(kBvhRoot);
            e.readyAt = now;
            warp.slots[keep++] = s;
            continue;
        }

        Cycle ready;
        bool pred =
            predictor_->lookupInto(e.ray, now, ready, predNodesScratch_);
        e.readyAt = ready;
        if (pred) {
            e.predicted = true;
            e.phase = RayPhase::PredEval;
            e.predEvalStart = ready;
            // Push predicted nodes; top of stack is evaluated first.
            for (auto it = predNodesScratch_.rbegin();
                 it != predNodesScratch_.rend(); ++it)
                e.stack.push(*it);
            stats_.inc(StatId::RaysPredicted);
            if (config_.repackEnabled)
                predictedScratch_.push_back(s);
            else
                warp.slots[keep++] = s;
        } else {
            e.phase = RayPhase::Normal;
            e.stack.push(kBvhRoot);
            warp.slots[keep++] = s;
        }
    }

    warp.slots.resize(keep);

    if (!predictedScratch_.empty()) {
        // Repacking: predicted rays leave for the collector; the
        // not-predicted residue continues as a partial warp.
        auto full = collector_.add(predictedScratch_, now);
        for (auto &w : full)
            dispatchRepacked(w, now);
        scheduleCollectorFlush();
        if (!warp.notPredictedResidue) {
            warp.notPredictedResidue = true;
            stats_.inc(StatId::ResidueWarps);
        }
    }
    return processed;
}

void
RtUnit::checkStackWindow(const RayEntry &entry) const
{
    if (!obs_)
        return;
    obs_->require(
        entry.stack.hwResident() <= entry.stack.hwCapacity(), "RtUnit",
        "the traversal stack stays inside its hardware window", [&] {
            return "global ray " + std::to_string(entry.globalId) +
                   ": " + std::to_string(entry.stack.hwResident()) +
                   " resident entries, window " +
                   std::to_string(entry.stack.hwCapacity());
        });
}

Cycle
RtUnit::processNode(RayEntry &entry, std::uint32_t node_idx,
                    Cycle data_ready)
{
    const BvhNode &node = bvh_.node(node_idx);
    const RayBoxPrecomp &pre = entry.pre;
    bool any_hit_ray = entry.ray.kind == RayKind::Occlusion;
    Cycle done = data_ready;

    if (node.isLeaf()) {
        done += isect_.leafLatency(node.primCount);
        for (std::uint32_t i = 0; i < node.primCount; ++i) {
            std::uint32_t slot_idx = node.firstPrim + i;
            std::uint32_t tri = bvh_.primIndices()[slot_idx];
            HitRecord h;
            if (intersectRayTriangle(entry.ray, triangles_[tri], h)) {
                entry.hit = true;
                entry.hitT = h.t;
                entry.hitPrim = tri;
                entry.hitLeaf = node_idx;
                if (any_hit_ray)
                    break;
                // Closest-hit: shrink the interval and keep going.
                entry.ray.tMax = h.t;
            }
        }
    } else {
        done += isect_.boxPairLatency();
        auto l = static_cast<std::uint32_t>(node.left);
        auto r = static_cast<std::uint32_t>(node.right);
        float tl, tr;
        bool hit_l =
            intersectRayAabb(entry.ray, pre, bvh_.node(l).box, tl);
        bool hit_r =
            intersectRayAabb(entry.ray, pre, bvh_.node(r).box, tr);
        if (hit_l && hit_r) {
            if (tl <= tr) {
                entry.stack.push(r);
                entry.stack.push(l);
            } else {
                entry.stack.push(l);
                entry.stack.push(r);
            }
        } else if (hit_l) {
            entry.stack.push(l);
        } else if (hit_r) {
            entry.stack.push(r);
        }
    }
    checkStackWindow(entry);
    return done;
}

bool
RtUnit::doTraversal(Warp &warp, Cycle now)
{
    // Collect the next node of each ready ray; merge duplicate node
    // requests within the warp into a single memory access.
    issueScratch_.clear();
    bool retired = false;

    for (std::uint32_t s : warp.slots) {
        RayEntry &e = buffer_.slot(s);
        if (e.phase == RayPhase::Done)
            continue;
        if (e.readyAt > now)
            continue;

        // Any-hit rays stop as soon as a hit is known; closest-hit rays
        // continue until the stack drains.
        if (e.hit && e.ray.kind == RayKind::Occlusion) {
            e.phase = RayPhase::Done;
            retired = true;
            continue;
        }

        auto top = e.stack.pop();
        if (!top) {
            // Stack exhausted.
            if (e.phase == RayPhase::PredEval) {
                if (e.hit) {
                    // Occlusion rays would have terminated above; this
                    // handles GI rays whose prediction trimmed tMax.
                    e.verified = true;
                    stats_.inc(StatId::RaysVerified);
                    if (obs_)
                        obs_->event(TraceEventKind::PredictorVerify, now,
                                    0, 0, e.globalId, 0);
                    e.phase = RayPhase::Normal;
                    e.stack.push(kBvhRoot);
                } else {
                    e.mispredicted = true;
                    stats_.inc(StatId::RaysMispredicted);
                    stats_.addSample(HistId::MispredictRestartCycles,
                                     now - e.predEvalStart);
                    if (obs_)
                        obs_->event(TraceEventKind::PredictorMispredict,
                                    e.predEvalStart,
                                    now - e.predEvalStart, 0, e.globalId,
                                    e.predPhaseFetches);
                    e.phase = RayPhase::Normal;
                    e.stack.push(kBvhRoot);
                }
                top = e.stack.pop();
            } else {
                e.phase = RayPhase::Done;
                retired = true;
                continue;
            }
        }

        Issue is;
        is.slot = s;
        is.node = *top;
        is.isLeaf = bvh_.node(*top).isLeaf();
        if (obs_) {
            // First issue of the step decides the exec category.
            CycleCat cat;
            if (e.phase == RayPhase::PredEval)
                cat = CycleCat::PredVerify;
            else if (e.mispredicted)
                cat = CycleCat::MispredictRestart;
            else
                cat = is.isLeaf ? CycleCat::TriTest : CycleCat::BoxTest;
            obs_->noteExec(cat, profRayType(e.ray.kind));
        }
        is.extraLocalAccesses =
            e.stack.takeSpillEvents() + e.stack.takeRefillEvents();
        issueScratch_.push_back(is);
    }

    if (issueScratch_.empty())
        return retired;

    // SIMT efficiency: threads issuing work this step vs the warp width.
    issueActiveThreads_ += issueScratch_.size();
    issueSlots_ += config_.warpSize;

    // Issue memory requests: one per unique node (plus local-memory
    // traffic from stack spills), in thread order, one L1 port. The
    // merge table is a flat vector with linear lookup: a warp issues at
    // most warpSize requests, where that beats any hashed container.
    servedScratch_.clear();
    for (const Issue &is : issueScratch_) {
        RayEntry &e = buffer_.slot(is.slot);
        std::uint64_t addr;
        std::uint32_t bytes;
        if (is.isLeaf) {
            const BvhNode &n = bvh_.node(is.node);
            addr = bvh_.triangleAddress(n.firstPrim);
            bytes = n.primCount * kTriangleBytes;
        } else {
            addr = bvh_.nodeAddress(is.node);
            bytes = kBvhNodeBytes;
        }

        Cycle data_ready = 0;
        bool merged = false;
        for (const auto &kv : servedScratch_) {
            if (kv.first == addr) {
                data_ready = kv.second;
                merged = true;
                break;
            }
        }
        if (merged) {
            // Intra-warp duplicate: merged into the earlier request.
            stats_.inc(StatId::WarpMergedRequests);
            if (obs_)
                obs_->event(TraceEventKind::NodeFetchIssue, now, 0,
                            is.isLeaf ? 1 : 0, is.node, 0);
        } else {
            auto port = std::min_element(l1Ports_.begin(),
                                         l1Ports_.end());
            Cycle start = std::max(now, *port);
            *port = start + 1;
            // A request per cache line covered by the data.
            std::uint32_t line = mem_.config().l1.lineBytes;
            Cycle ready = 0;
            for (std::uint64_t a = addr; a < addr + bytes;
                 a += line) {
                MemAccess acc = mem_.access(smId_, a, start);
                ready = std::max(ready, acc.readyCycle);
            }
            data_ready = ready;
            servedScratch_.emplace_back(addr, data_ready);
            stats_.inc(is.isLeaf ? StatId::MemTriAccesses
                                 : StatId::MemNodeAccesses);
            if (e.phase == RayPhase::PredEval)
                stats_.inc(StatId::MemPredPhaseAccesses);
            stats_.addSample(HistId::NodeFetchCycles,
                             data_ready - start);
            if (obs_)
                obs_->event(TraceEventKind::NodeFetchReady, start,
                            data_ready > start ? data_ready - start : 0,
                            is.isLeaf ? 1 : 0, is.node,
                            data_ready - start);
        }

        // Local-memory traffic from stack spills/refills.
        for (std::uint32_t k = 0; k < is.extraLocalAccesses; ++k) {
            auto port = std::min_element(l1Ports_.begin(),
                                         l1Ports_.end());
            Cycle start = std::max(now, *port);
            *port = start + 1;
            mem_.access(smId_, 0xF0000000ULL + is.slot * 64, start);
            stats_.inc(StatId::MemStackAccesses);
        }

        if (is.isLeaf)
            e.triFetches++;
        else
            e.nodeFetches++;
        if (e.phase == RayPhase::PredEval)
            e.predPhaseFetches++;

        e.readyAt = processNode(e, is.node, data_ready);

        // Any-hit rays finish on the spot when a hit is found.
        if (e.hit && e.ray.kind == RayKind::Occlusion) {
            if (e.phase == RayPhase::PredEval) {
                e.verified = true;
                stats_.inc(StatId::RaysVerified);
                if (obs_)
                    obs_->event(TraceEventKind::PredictorVerify, now, 0,
                                0, e.globalId, 0);
            }
            e.phase = RayPhase::Done;
        }
    }
    return true;
}

void
RtUnit::completeRay(std::uint32_t slot, Cycle now)
{
    RayEntry &e = buffer_.slot(slot);
    if (obs_)
        checkCompletedRay(e);
    RayResult res;
    res.hit = e.hit;
    res.t = e.hitT;
    res.prim = e.hitPrim;
    res.predicted = e.predicted;
    res.verified = e.verified;
    res.mispredicted = e.mispredicted;
    results_[e.localId] = res;

    stats_.inc(StatId::RaysCompleted);
    stats_.addSample(HistId::RayLatencyCycles, now - e.dispatchedAt);
    if (e.hit)
        stats_.inc(StatId::RaysHit);
    stats_.inc(StatId::RayNodeFetches, e.nodeFetches);
    stats_.inc(StatId::RayTriFetches, e.triFetches);
    stats_.inc(StatId::RayPredPhaseFetches, e.predPhaseFetches);
    if (e.mispredicted)
        stats_.inc(StatId::WastedPredFetches, e.predPhaseFetches);
    stats_.inc(StatId::StackSpills, e.stack.totalSpills());

    // Train the predictor with the Go-Up-Level ancestor (Section 4.3).
    if (predictor_ && e.hit && e.hitLeaf != ~0u)
        predictor_->update(e.ray, e.hitLeaf, now);

    completionCycle_ = std::max(completionCycle_, now);
    buffer_.release(slot);
    remainingRays_--;

    if (remainingRays_ == 0) {
        // Drain the collector so nothing is left behind at the end.
        collector_.flushAll();
    }
}

double
RtUnit::simtEfficiency() const
{
    return issueSlots_ == 0
               ? 1.0
               : static_cast<double>(issueActiveThreads_) / issueSlots_;
}

void
RtUnit::snapshotInto(TelemetrySmSample &out) const
{
    out.busy_cycles = busyCycles_;
    out.stall_cycles = stallCycles_;
    out.active_warps = activeWarps_;
    out.resident_rays = buffer_.capacity() - buffer_.freeSlots();
    out.ray_buffer_capacity = buffer_.capacity();
    out.event_queue_depth = events_.size();
    out.warps_dispatched = stats_.get(StatId::WarpsDispatched);
    out.repacked_warps = stats_.get(StatId::RepackedWarps);
    out.warps_retired = stats_.get(StatId::WarpsRetired);
    out.rays_completed = stats_.get(StatId::RaysCompleted);
    out.rays_predicted = stats_.get(StatId::RaysPredicted);
    out.rays_verified = stats_.get(StatId::RaysVerified);
    out.rays_mispredicted = stats_.get(StatId::RaysMispredicted);
    collector_.snapshotInto(out);
    if (predictor_)
        predictor_->snapshotInto(out);
    mem_.l1(smId_).snapshotInto(out.l1_hits, out.l1_misses,
                                out.l1_mshr_merges);
}

} // namespace rtp
