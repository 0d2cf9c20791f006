#include "util/profile.hpp"

#include <ostream>
#include <sstream>

#include "util/check.hpp"
#include "util/schema.hpp"

namespace rtp {

const char *
cycleCatName(CycleCat cat)
{
    switch (cat) {
    case CycleCat::WarpIssue:
        return "warp_issue";
    case CycleCat::BoxTest:
        return "box_test";
    case CycleCat::TriTest:
        return "tri_test";
    case CycleCat::PredLookup:
        return "pred_lookup";
    case CycleCat::PredVerify:
        return "pred_verify";
    case CycleCat::MispredictRestart:
        return "mispredict_restart";
    case CycleCat::L1Stall:
        return "l1_stall";
    case CycleCat::L2Stall:
        return "l2_stall";
    case CycleCat::DramStall:
        return "dram_stall";
    case CycleCat::RepackWait:
        return "repack_wait";
    case CycleCat::IdleDrain:
        return "idle_drain";
    }
    return "unknown";
}

const char *
profRayTypeName(ProfRayType type)
{
    switch (type) {
    case ProfRayType::None:
        return "none";
    case ProfRayType::Occlusion:
        return "occlusion";
    case ProfRayType::ClosestHit:
        return "closest_hit";
    }
    return "unknown";
}

void
CycleProfiler::attach(std::uint32_t numSms)
{
    if (slices_.size() != numSms)
        slices_.resize(numSms);
    for (SmSlice &s : slices_) {
        s.cursor = 0;
        s.pendingWait = CycleCat::IdleDrain;
        s.pendingWaitType = ProfRayType::None;
        s.execCat = CycleCat::WarpIssue;
        s.execType = ProfRayType::None;
        s.execNoted = false;
        s.deepestLevel = 0;
    }
}

void
CycleProfiler::addSpan(SmSlice &s, CycleCat cat, ProfRayType type,
                       std::uint64_t n)
{
    s.cycles[static_cast<std::size_t>(cat)][static_cast<std::size_t>(type)] +=
        n;
}

void
CycleProfiler::onEvent(std::uint32_t sm, Cycle now)
{
    SmSlice &s = slices_[sm];
    if (now <= s.cursor)
        return; // same-cycle re-entry: the gap is already closed
    addSpan(s, s.pendingWait, s.pendingWaitType, now - s.cursor);
    s.cursor = now;
}

void
CycleProfiler::closeStep(std::uint32_t sm, Cycle now, bool didWork,
                         bool collectorPending)
{
    SmSlice &s = slices_[sm];
    // Category of the step's own cycle [now, now+1): productive steps
    // use the first-issue category noted during the step; workless
    // stall steps extend the reason the SM was already waiting for
    // (or repack wait, when the only open work is parked rays).
    CycleCat exec;
    ProfRayType type;
    if (didWork) {
        exec = s.execNoted ? s.execCat : CycleCat::WarpIssue;
        type = s.execNoted ? s.execType : ProfRayType::None;
    } else if (s.pendingWait == CycleCat::IdleDrain && collectorPending) {
        exec = CycleCat::RepackWait;
        type = ProfRayType::None;
    } else {
        exec = s.pendingWait;
        type = s.pendingWaitType;
    }
    if (now >= s.cursor) {
        addSpan(s, exec, type, 1);
        s.cursor = now + 1;
    }
    // Re-arm the wait category for the gap until the SM's next event.
    if (s.deepestLevel >= 3) {
        s.pendingWait = CycleCat::DramStall;
        s.pendingWaitType = type;
    } else if (s.deepestLevel == 2) {
        s.pendingWait = CycleCat::L2Stall;
        s.pendingWaitType = type;
    } else if (s.deepestLevel == 1) {
        s.pendingWait = CycleCat::L1Stall;
        s.pendingWaitType = type;
    } else if (didWork) {
        // No memory touched: the next gap is this step's compute
        // latency (box/tri pipeline, predictor probe, ...).
        s.pendingWait = exec;
        s.pendingWaitType = type;
    } else if (collectorPending) {
        s.pendingWait = CycleCat::RepackWait;
        s.pendingWaitType = ProfRayType::None;
    }
    // else: keep the previous wait reason — the stalled rays are still
    // waiting on whatever they were waiting on before.
    s.execNoted = false;
    s.deepestLevel = 0;
}

void
CycleProfiler::finish(Cycle endCycle)
{
    const Cycle end = endCycle + 1; // cycle endCycle is the last charged
    for (SmSlice &s : slices_) {
        if (end > s.cursor)
            addSpan(s, CycleCat::IdleDrain, ProfRayType::None,
                    end - s.cursor);
        s.cursor = end;
    }
    elapsed_ += end;
    ++runs_;
}

std::uint64_t
CycleProfiler::cycles(std::uint32_t sm, CycleCat cat, ProfRayType type) const
{
    return slices_[sm]
        .cycles[static_cast<std::size_t>(cat)][static_cast<std::size_t>(type)];
}

std::uint64_t
CycleProfiler::totalFor(CycleCat cat) const
{
    std::uint64_t total = 0;
    for (const SmSlice &s : slices_)
        for (std::size_t t = 0; t < kProfRayTypeCount; ++t)
            total += s.cycles[static_cast<std::size_t>(cat)][t];
    return total;
}

std::uint64_t
CycleProfiler::smTotal(std::uint32_t sm) const
{
    const SmSlice &s = slices_[sm];
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < kCycleCatCount; ++c)
        for (std::size_t t = 0; t < kProfRayTypeCount; ++t)
            total += s.cycles[c][t];
    return total;
}

void
CycleProfiler::checkConservation(InvariantChecker &check) const
{
    for (std::uint32_t sm = 0; sm < numSms(); ++sm) {
        const std::uint64_t total = smTotal(sm);
        check.require(total == elapsed_, "CycleProfiler",
                      "attribution categories sum to elapsed cycles",
                      [&] {
                          std::ostringstream os;
                          os << "sm=" << sm << " sum=" << total
                             << " elapsed=" << elapsed_;
                          return os.str();
                      });
    }
}

namespace {

void
writeCatTable(std::ostream &os,
              const std::uint64_t (&cycles)[kCycleCatCount]
                                           [kProfRayTypeCount])
{
    os << "{";
    for (std::size_t c = 0; c < kCycleCatCount; ++c) {
        if (c)
            os << ",";
        os << "\"" << cycleCatName(static_cast<CycleCat>(c)) << "\":{";
        std::uint64_t catTotal = 0;
        for (std::size_t t = 0; t < kProfRayTypeCount; ++t) {
            os << "\"" << profRayTypeName(static_cast<ProfRayType>(t))
               << "\":" << cycles[c][t] << ",";
            catTotal += cycles[c][t];
        }
        os << "\"total\":" << catTotal << "}";
    }
    os << "}";
}

} // namespace

void
CycleProfiler::writeJson(std::ostream &os) const
{
    os << "{\"schema_version\":" << kResultSchemaVersion
       << ",\"profile\":{\"num_sms\":" << numSms() << ",\"runs\":" << runs_
       << ",\"elapsed_cycles\":" << elapsed_ << ",\"categories\":[";
    for (std::size_t c = 0; c < kCycleCatCount; ++c) {
        if (c)
            os << ",";
        os << "\"" << cycleCatName(static_cast<CycleCat>(c)) << "\"";
    }
    os << "],\"ray_types\":[";
    for (std::size_t t = 0; t < kProfRayTypeCount; ++t) {
        if (t)
            os << ",";
        os << "\"" << profRayTypeName(static_cast<ProfRayType>(t)) << "\"";
    }
    os << "],\"sms\":[";
    std::uint64_t totals[kCycleCatCount][kProfRayTypeCount] = {};
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t predLookups = 0;
    std::uint64_t predHits = 0;
    std::uint64_t repackFlushes = 0;
    std::uint64_t repackRays = 0;
    for (std::uint32_t sm = 0; sm < numSms(); ++sm) {
        const SmSlice &s = slices_[sm];
        if (sm)
            os << ",";
        os << "{\"sm\":" << sm << ",\"total_cycles\":" << smTotal(sm)
           << ",\"cycles\":";
        writeCatTable(os, s.cycles);
        os << ",\"meta\":{\"l1_hits\":" << s.l1Hits
           << ",\"l1_misses\":" << s.l1Misses
           << ",\"pred_lookups\":" << s.predLookups
           << ",\"pred_hits\":" << s.predHits
           << ",\"repack_flushes\":" << s.repackFlushes
           << ",\"repack_rays\":" << s.repackRays << "}}";
        for (std::size_t c = 0; c < kCycleCatCount; ++c)
            for (std::size_t t = 0; t < kProfRayTypeCount; ++t)
                totals[c][t] += s.cycles[c][t];
        l1Hits += s.l1Hits;
        l1Misses += s.l1Misses;
        predLookups += s.predLookups;
        predHits += s.predHits;
        repackFlushes += s.repackFlushes;
        repackRays += s.repackRays;
    }
    os << "],\"total\":{\"cycles\":";
    writeCatTable(os, totals);
    os << ",\"meta\":{\"l1_hits\":" << l1Hits << ",\"l1_misses\":" << l1Misses
       << ",\"l2_hits\":" << l2Hits_ << ",\"l2_misses\":" << l2Misses_
       << ",\"dram_accesses\":" << dramAccesses_
       << ",\"dram_row_hits\":" << dramRowHits_
       << ",\"pred_lookups\":" << predLookups << ",\"pred_hits\":" << predHits
       << ",\"repack_flushes\":" << repackFlushes
       << ",\"repack_rays\":" << repackRays << "}}}}";
}

std::string
CycleProfiler::toJson() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

void
CycleProfiler::clear()
{
    slices_.clear();
    l2Hits_ = 0;
    l2Misses_ = 0;
    dramAccesses_ = 0;
    dramRowHits_ = 0;
    elapsed_ = 0;
    runs_ = 0;
}

} // namespace rtp
