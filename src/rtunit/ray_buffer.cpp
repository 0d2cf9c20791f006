#include "rtunit/ray_buffer.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/check.hpp"
#include "util/observer.hpp"

namespace rtp {

RayBuffer::RayBuffer(std::uint32_t capacity)
{
    slots_.resize(capacity);
    freeList_.reserve(capacity);
    for (std::uint32_t i = capacity; i > 0; --i)
        freeList_.push_back(i - 1);
}

std::uint32_t
RayBuffer::allocate(const Ray &ray, std::uint32_t global_id,
                    std::uint32_t stack_entries)
{
    // A caller that skipped the hasFree() guard would otherwise read
    // freeList_.back() on an empty vector — undefined behaviour that
    // hands out a garbage slot index and corrupts resident rays. Fail
    // loudly instead (same convention as RtUnit::step on an empty
    // event queue).
    if (freeList_.empty())
        throw std::logic_error(
            "RayBuffer::allocate: buffer exhausted (capacity " +
            std::to_string(slots_.size()) + ", global ray " +
            std::to_string(global_id) + ")");
    std::uint32_t idx = freeList_.back();
    freeList_.pop_back();
    // Field-wise reset instead of `e = RayEntry{}` so the slot's stack
    // keeps its capacity: resident-ray churn then causes no steady-state
    // heap traffic.
    RayEntry &e = slots_[idx];
    e.ray = ray;
    // The direction never changes while a ray is resident, so the slab
    // reciprocal is computed once here instead of per node visit.
    e.pre = RayBoxPrecomp(ray);
    e.globalId = global_id;
    e.phase = RayPhase::Lookup;
    e.stack.reset(stack_entries);
    e.readyAt = 0;
    e.dispatchedAt = 0;
    e.predEvalStart = 0;
    e.predicted = false;
    e.verified = false;
    e.mispredicted = false;
    e.hit = false;
    e.hitT = 0.0f;
    e.hitPrim = ~0u;
    e.hitLeaf = ~0u;
    e.nodeFetches = 0;
    e.triFetches = 0;
    e.predPhaseFetches = 0;
    return idx;
}

void
RayBuffer::release(std::uint32_t idx)
{
    if (obs_ && obs_->checking()) {
        obs_->require(idx < slots_.size(), "RayBuffer",
                      "released slot index is within capacity", [&] {
                          return "slot " + std::to_string(idx) +
                                 ", capacity " +
                                 std::to_string(slots_.size());
                      });
        obs_->require(
            std::find(freeList_.begin(), freeList_.end(), idx) ==
                freeList_.end(),
            "RayBuffer", "a slot is never released twice", [&] {
                return "slot " + std::to_string(idx) +
                       " already on the free list (" +
                       std::to_string(freeList_.size()) + " of " +
                       std::to_string(slots_.size()) + " slots free)";
            });
    }
    freeList_.push_back(idx);
}

void
RayBuffer::checkFinalState(InvariantChecker &check) const
{
    check.require(freeList_.size() == slots_.size(), "RayBuffer",
                  "all slots are free once every ray has retired", [&] {
                      return std::to_string(freeList_.size()) + " of " +
                             std::to_string(slots_.size()) +
                             " slots free (leaked slot = a ray that "
                             "completed without releasing its entry)";
                  });
    std::vector<std::uint32_t> sorted = freeList_;
    std::sort(sorted.begin(), sorted.end());
    bool unique_in_range = true;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (sorted[i] != i) {
            unique_in_range = false;
            break;
        }
    }
    check.require(unique_in_range, "RayBuffer",
                  "the free list holds each slot index exactly once",
                  [&] {
                      return "free list is not a permutation of [0, " +
                             std::to_string(slots_.size()) + ")";
                  });
}

} // namespace rtp
