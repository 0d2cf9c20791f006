#include "rtunit/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "util/check.hpp"
#include "util/observer.hpp"

namespace rtp {

void
EventQueue::checkPop(const RtEvent &ev)
{
    obs_->require(
        ev.cycle >= lastPopCycle_, "EventQueue",
        "popped event cycles are monotonically non-decreasing", [&] {
            return "popped cycle " + std::to_string(ev.cycle) +
                   " after cycle " + std::to_string(lastPopCycle_) +
                   " (order " + std::to_string(ev.order) + ", " +
                   std::to_string(size_) + " events remain)";
        });
    lastPopCycle_ = ev.cycle;
}

EventQueue::EventQueue(EventQueueImpl impl) : impl_(impl)
{
}

void
EventQueue::push(const RtEvent &ev)
{
    if (impl_ == EventQueueImpl::LegacyHeap) {
        heap_.push(ev);
        size_++;
        return;
    }

    if (size_ == 0) {
        // Empty queue: rebase the ring window onto this event for free
        // (ring and overflow are both empty, so no aliasing risk).
        base_ = ev.cycle;
    }
    if (cacheValid_ && ev.cycle < cachedMin_)
        cachedMin_ = ev.cycle;
    size_++;

    if (ev.cycle >= base_ && ev.cycle < base_ + kBuckets) {
        std::size_t idx =
            static_cast<std::size_t>(ev.cycle & kMask);
        buckets_[idx].push_back(ev);
        occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    } else {
        // Beyond the ring horizon — or, defensively, before its base
        // (no RT unit schedules into the past, but the queue must not
        // silently misorder if one ever does).
        overflow_.push_back(ev);
        overflowMin_ = std::min(overflowMin_, ev.cycle);
    }
}

std::size_t
EventQueue::firstOccupiedFrom(std::size_t start_idx) const
{
    std::size_t w = start_idx >> 6;
    std::size_t b = start_idx & 63;
    std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << b);
    if (word)
        return (w << 6) + std::countr_zero(word);
    // Wrap: at k == kWords this re-reads word w in full, covering the
    // bits below start_idx.
    for (std::size_t k = 1; k <= kWords; ++k) {
        std::size_t ww = (w + k) & (kWords - 1);
        if (occupied_[ww])
            return (ww << 6) + std::countr_zero(occupied_[ww]);
    }
    return kBuckets; // unreachable while the ring is non-empty
}

RtEvent
EventQueue::takeMinFrom(std::vector<RtEvent> &bucket)
{
    // Every event in one bucket shares one cycle (the window spans
    // exactly kBuckets cycles), so the minimum is by order alone.
    // Buckets are tiny — one event per live warp that happens to be
    // scheduled for this exact cycle — so a linear scan wins over any
    // ordered structure. Swap-remove may reorder equal-order events,
    // but only duplicate CollectorFlush entries can share an order and
    // those are bitwise identical.
    std::size_t mi = 0;
    for (std::size_t i = 1; i < bucket.size(); ++i) {
        if (bucket[i].order < bucket[mi].order)
            mi = i;
    }
    RtEvent ev = bucket[mi];
    bucket[mi] = bucket.back();
    bucket.pop_back();
    return ev;
}

void
EventQueue::migrateOverflow()
{
    // Move every overflow event that now fits the ring window into the
    // ring; each event migrates at most once. Events below base_ (the
    // defensive past-push case) stay put — popOverflow handles them.
    std::size_t keep = 0;
    overflowMin_ = ~0ull;
    for (std::size_t i = 0; i < overflow_.size(); ++i) {
        const RtEvent &ev = overflow_[i];
        if (ev.cycle >= base_ && ev.cycle < base_ + kBuckets) {
            std::size_t idx =
                static_cast<std::size_t>(ev.cycle & kMask);
            buckets_[idx].push_back(ev);
            occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
        } else {
            overflowMin_ = std::min(overflowMin_, ev.cycle);
            overflow_[keep++] = ev;
        }
    }
    overflow_.resize(keep);
}

Cycle
EventQueue::nextCycle() const
{
    if (impl_ == EventQueueImpl::LegacyHeap)
        return heap_.top().cycle;
    if (cacheValid_)
        return cachedMin_;
    Cycle best = ~0ull;
    if (size_ > overflow_.size()) {
        std::size_t idx = firstOccupiedFrom(
            static_cast<std::size_t>(base_ & kMask));
        best = buckets_[idx].front().cycle;
    }
    if (!overflow_.empty())
        best = std::min(best, overflowMin_);
    cachedMin_ = best;
    cacheValid_ = true;
    return best;
}

RtEvent
EventQueue::pop()
{
    if (impl_ == EventQueueImpl::LegacyHeap) {
        RtEvent ev = heap_.top();
        heap_.pop();
        size_--;
        if (obs_)
            checkPop(ev);
        return ev;
    }

    cacheValid_ = false;
    if (size_ == overflow_.size()) {
        // Ring empty: every pending event sits past the old horizon.
        // Rebase onto the earliest and migrate it (and any peers that
        // now fit) into the ring.
        base_ = overflowMin_;
        migrateOverflow();
    }

    std::size_t idx =
        firstOccupiedFrom(static_cast<std::size_t>(base_ & kMask));
    std::vector<RtEvent> &bucket = buckets_[idx];
    Cycle ring_cycle = bucket.front().cycle;

    if (!overflow_.empty() && overflowMin_ <= ring_cycle) {
        // An overflow event is due no later than the ring's earliest
        // (possible when the window advanced past an old horizon, or
        // after a defensive past-cycle push). Pop by global
        // (cycle, order) order across both stores.
        std::size_t mi = 0;
        for (std::size_t i = 1; i < overflow_.size(); ++i) {
            const RtEvent &a = overflow_[i];
            const RtEvent &b = overflow_[mi];
            if (a.cycle < b.cycle ||
                (a.cycle == b.cycle && a.order < b.order))
                mi = i;
        }
        std::uint64_t ring_order = ~0ull;
        for (const RtEvent &ev : bucket)
            ring_order = std::min(ring_order, ev.order);
        if (overflow_[mi].cycle < ring_cycle ||
            overflow_[mi].order < ring_order) {
            RtEvent ev = overflow_[mi];
            overflow_[mi] = overflow_.back();
            overflow_.pop_back();
            overflowMin_ = ~0ull;
            for (const RtEvent &rest : overflow_)
                overflowMin_ = std::min(overflowMin_, rest.cycle);
            if (ev.cycle > base_)
                base_ = ev.cycle; // still <= every remaining event
            size_--;
            if (obs_)
                checkPop(ev);
            return ev;
        }
    }

    base_ = ring_cycle;
    RtEvent ev = takeMinFrom(bucket);
    if (bucket.empty())
        occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    size_--;
    if (obs_)
        checkPop(ev);
    return ev;
}

} // namespace rtp
