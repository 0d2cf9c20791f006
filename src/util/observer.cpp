#include "util/observer.hpp"

namespace rtp {

RunObservers::RunObservers(TraceSink *trace, CycleProfiler *profile,
                           InvariantChecker *check, std::uint32_t numSms,
                           bool sharded)
    : trace_(trace), profile_(profile), check_(check)
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
        p.sharded_ = sharded;
    }
    if (profile)
        profile->attach(numSms);
}

void
RunObservers::finish(Cycle endCycle)
{
    if (trace_) {
        // K-way merge of the per-SM buffers by (order key, SM). Each
        // buffer's keys never decrease (an SM's steps pop in cycle
        // order), and the sequential loop steps the earliest
        // (cycle, sm) first, so this reproduces its emission order
        // exactly, ring wrap and drop count included. Unsharded ports
        // have empty buffers.
        std::vector<std::size_t> cursor(ports_.size(), 0);
        while (true) {
            const ObserverPort::Keyed *best = nullptr;
            std::size_t best_sm = 0;
            for (std::size_t s = 0; s < ports_.size(); ++s) {
                const auto &buf = ports_[s].shard_;
                if (cursor[s] < buf.size() &&
                    (!best || buf[cursor[s]].key < best->key)) {
                    best = &buf[cursor[s]];
                    best_sm = s;
                }
            }
            if (!best)
                break;
            trace_->emit(best->event);
            cursor[best_sm]++;
        }
        for (ObserverPort &p : ports_)
            p.shard_.clear();
    }
    if (profile_) {
        profile_->finish(endCycle);
        // Every simulated cycle of every SM was attributed to exactly
        // one category.
        if (check_)
            profile_->checkConservation(*check_);
    }
}

} // namespace rtp
