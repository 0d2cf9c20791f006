/**
 * @file
 * One streaming multiprocessor: an RT unit plus its private predictor
 * (Figure 3 / Figure 10). The predictor table is per SM (Section 6.2.5),
 * which is why configurations with more SMs see fewer prediction
 * opportunities — rays are segregated across tables.
 */

#pragma once

#include <memory>
#include <vector>

#include "bvh/bvh.hpp"
#include "core/predictor.hpp"
#include "gpu/config.hpp"
#include "mem/memory_system.hpp"
#include "rtunit/rt_unit.hpp"

namespace rtp {

/** One SM: RT unit + predictor, sharing the chip-level memory system. */
class Sm
{
  public:
    Sm(const SimConfig &config, const Bvh &bvh,
       const std::vector<Triangle> &triangles, MemorySystem &mem,
       std::uint32_t sm_id);

    RtUnit &
    rtUnit()
    {
        return *rtUnit_;
    }

    const RtUnit &
    rtUnit() const
    {
        return *rtUnit_;
    }

    /** @return The SM's predictor, or nullptr when disabled. */
    RayPredictor *
    predictor()
    {
        return predictor_.get();
    }

    const RayPredictor *
    predictor() const
    {
        return predictor_.get();
    }

    std::uint32_t
    id() const
    {
        return id_;
    }

  private:
    std::uint32_t id_;
    std::unique_ptr<RayPredictor> predictor_;
    std::unique_ptr<RtUnit> rtUnit_;
};

} // namespace rtp
