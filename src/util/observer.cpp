#include "util/observer.hpp"

namespace rtp {

RunObservers::RunObservers(TraceSink *trace, CycleProfiler *profile,
                           InvariantChecker *check, std::uint32_t numSms)
    : profile_(profile), check_(check)
{
    if (!trace && !profile && !check)
        return;
    ports_.resize(numSms);
    for (std::uint32_t s = 0; s < numSms; ++s) {
        ObserverPort &p = ports_[s];
        p.trace_ = trace;
        p.profile_ = profile;
        p.check_ = check;
        p.sm_ = s;
    }
    if (profile)
        profile->attach(numSms);
}

void
RunObservers::finish(Cycle endCycle)
{
    if (profile_) {
        profile_->finish(endCycle);
        // Every simulated cycle of every SM was attributed to exactly
        // one category.
        if (check_)
            profile_->checkConservation(*check_);
    }
}

} // namespace rtp
