#include "mem/cache.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "util/check.hpp"
#include "util/observer.hpp"

namespace rtp {

void
CacheModel::observe(ObserverPort &obs, TraceEventKind kind, Cycle cycle,
                    std::uint64_t addr, std::uint64_t arg,
                    const CacheAccess &res)
{
    if (level_ == 1)
        obs.event(kind, cycle, 0, level_, addr, arg);
    else
        obs.sharedEvent({cycle, 0, kind, 0, level_, addr, arg});
    if (!obs.checking())
        return;
    accessesChecked_++;
    obs.require(!(res.hit && res.merged), "CacheModel",
                "an access is never both a hit and an MSHR merge",
                [&] { return "cache " + config_.name; });
    obs.require(
        res.readyCycle >= cycle, "CacheModel",
        "data is never ready before the access issued", [&] {
            return "cache " + config_.name + ": issued at cycle " +
                   std::to_string(cycle) + ", ready at " +
                   std::to_string(res.readyCycle);
        });
}

void
CacheModel::checkFinalState(InvariantChecker &check) const
{
    std::uint64_t hits = stats_.get(StatId::Hits);
    std::uint64_t merges = stats_.get(StatId::MshrMerges);
    std::uint64_t misses = stats_.get(StatId::Misses);
    check.require(
        hits + merges + misses == accessesChecked_, "CacheModel",
        "every access is exactly one hit, MSHR merge, or miss", [&] {
            return "cache " + config_.name + ": hits " +
                   std::to_string(hits) + " + merges " +
                   std::to_string(merges) + " + misses " +
                   std::to_string(misses) + " != accesses " +
                   std::to_string(accessesChecked_);
        });
    std::uint64_t bypasses = stats_.get(StatId::InflightBypasses);
    std::uint64_t evictions = stats_.get(StatId::Evictions);
    check.require(bypasses + evictions <= misses, "CacheModel",
                  "bypasses and evictions are disjoint kinds of miss",
                  [&] {
                      return "cache " + config_.name + ": bypasses " +
                             std::to_string(bypasses) + " + evictions " +
                             std::to_string(evictions) + " > misses " +
                             std::to_string(misses);
                  });
}

CacheModel::LineIndex::LineIndex(std::uint32_t slots)
{
    std::size_t capacity =
        std::bit_ceil(std::max<std::size_t>(2, 2 * std::size_t{slots}));
    table_.resize(capacity);
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
}

void
CacheModel::LineIndex::insert(std::uint64_t line, std::uint32_t slot)
{
    std::size_t i = home(line);
    while (table_[i].slot != kNoSlot)
        i = (i + 1) & mask_;
    table_[i] = {line, slot};
}

void
CacheModel::LineIndex::erase(std::uint64_t line)
{
    std::size_t hole = home(line);
    while (table_[hole].line != line || table_[hole].slot == kNoSlot)
        hole = (hole + 1) & mask_;
    // Backward shift: pull each later entry of the probe run into the
    // hole when the hole lies between its home and its position, so
    // every remaining key stays reachable from its home without
    // tombstones.
    for (std::size_t i = (hole + 1) & mask_; table_[i].slot != kNoSlot;
         i = (i + 1) & mask_) {
        std::size_t dist = (i - home(table_[i].line)) & mask_;
        if (dist >= ((i - hole) & mask_)) {
            table_[hole] = table_[i];
            hole = i;
        }
    }
    table_[hole] = Entry{};
}

void
CacheModel::LineIndex::clear()
{
    std::fill(table_.begin(), table_.end(), Entry{});
}

CacheModel::CacheModel(CacheConfig config, std::uint16_t level)
    : config_(std::move(config)), level_(level)
{
    std::uint32_t num_lines =
        std::max(1u, config_.sizeBytes / config_.lineBytes);
    waysPerSet_ = config_.ways == 0 ? num_lines
                                    : std::min(config_.ways, num_lines);
    numSets_ = std::max(1u, num_lines / waysPerSet_);
    std::uint32_t slots = numSets_ * waysPerSet_;
    index_ = LineIndex(slots);
    lines_.resize(slots);
    prev_.resize(slots);
    next_.resize(slots);
    sets_.resize(numSets_);
    for (std::uint32_t s = 0; s < numSets_; ++s) {
        // Initial LRU order matches the original list model: way 0 at
        // the MRU end down to way N-1 at the LRU end.
        std::uint32_t first = s * waysPerSet_;
        std::uint32_t last = first + waysPerSet_ - 1;
        for (std::uint32_t w = first; w <= last; ++w) {
            prev_[w] = w == first ? kNoSlot : w - 1;
            next_[w] = w == last ? kNoSlot : w + 1;
        }
        sets_[s] = {first, last};
    }
}

void
CacheModel::unlink(LruEnds &set, std::uint32_t slot)
{
    if (prev_[slot] != kNoSlot)
        next_[prev_[slot]] = next_[slot];
    else
        set.head = next_[slot];
    if (next_[slot] != kNoSlot)
        prev_[next_[slot]] = prev_[slot];
    else
        set.tail = prev_[slot];
}

void
CacheModel::moveToFront(LruEnds &set, std::uint32_t slot)
{
    if (set.head == slot)
        return;
    unlink(set, slot);
    prev_[slot] = kNoSlot;
    next_[slot] = set.head;
    prev_[set.head] = slot;
    set.head = slot;
}

CacheAccess
CacheModel::access(std::uint64_t addr, Cycle cycle, FillRef fill,
                   ObserverPort *obs)
{
    std::uint64_t line = lineAddr(addr);
    LruEnds &set = sets_[line % numSets_];

    std::uint32_t found = index_.find(line);
    if (found != kNoSlot) {
        Line &l = lines_[found];
        // Promote to MRU.
        moveToFront(set, found);
        CacheAccess res;
        if (l.readyAt > cycle) {
            // Fill still in flight: merge into it (MSHR behaviour).
            res.merged = true;
            stats_.inc(StatId::MshrMerges);
            if (l.readyAt == kFillDeferred) {
                res.deferred = true;
                res.slot = found;
                return res;
            }
            res.readyCycle = l.readyAt + config_.hitLatency;
            if (obs)
                observe(*obs, TraceEventKind::CacheMshrMerge, cycle, addr,
                        l.readyAt - cycle, res);
        } else {
            res.hit = true;
            res.readyCycle = cycle + config_.hitLatency;
            stats_.inc(StatId::Hits);
            if (obs)
                observe(*obs, TraceEventKind::CacheHit, cycle, addr,
                        config_.hitLatency, res);
        }
        return res;
    }

    // Miss: allocate the least recently used way whose line is NOT an
    // in-flight fill. Overwriting an in-flight line would orphan the
    // MSHR accesses merged into it — their tag disappears mid-fill, so
    // a later access to that line starts a duplicate fetch for data
    // already on its way, and the line's ready time gets silently
    // replaced by the new fill's.
    stats_.inc(StatId::Misses);
    std::uint32_t victim = kNoSlot;
    bool skipped_inflight = false;
    for (std::uint32_t w = set.tail; w != kNoSlot; w = prev_[w]) {
        const Line &cand = lines_[w];
        if (cand.valid && cand.readyAt > cycle) {
            skipped_inflight = true;
            continue;
        }
        victim = w;
        break;
    }
    if (skipped_inflight)
        stats_.inc(StatId::InflightVictimSkips);

    if (victim == kNoSlot) {
        // Every way holds an in-flight fill: serve this request from
        // downstream without allocating (bypass), leaving the fills
        // and their merged waiters intact.
        stats_.inc(StatId::InflightBypasses);
        Cycle fill_ready = fill(line * config_.lineBytes, cycle);
        if (fill_ready == kFillDeferred) {
            CacheAccess res;
            res.deferred = true;
            return res;
        }
        stats_.addSample(HistId::MissLatency, fill_ready - cycle);
        CacheAccess res;
        res.readyCycle = fill_ready + config_.hitLatency;
        if (obs)
            observe(*obs, TraceEventKind::CacheInflightBypass, cycle,
                    addr, fill_ready - cycle, res);
        return res;
    }

    moveToFront(set, victim);
    Line &l = lines_[victim];
    if (l.valid) {
        stats_.inc(StatId::Evictions);
        index_.erase(l.tag);
    }
    l.valid = true;
    l.tag = line;
    index_.insert(line, victim);
    l.readyAt = fill(line * config_.lineBytes, cycle);
    CacheAccess res;
    if (l.readyAt == kFillDeferred) {
        res.deferred = true;
        res.slot = victim;
        return res;
    }
    stats_.addSample(HistId::MissLatency, l.readyAt - cycle);

    res.readyCycle = l.readyAt + config_.hitLatency;
    if (obs)
        observe(*obs, TraceEventKind::CacheMiss, cycle, addr,
                l.readyAt - cycle, res);
    return res;
}

void
CacheModel::settleFill(std::uint32_t slot, Cycle issued, Cycle ready)
{
    if (slot != kNoSlot)
        lines_[slot].readyAt = ready;
    stats_.addSample(HistId::MissLatency, ready - issued);
}

bool
CacheModel::contains(std::uint64_t addr) const
{
    return index_.find(lineAddr(addr)) != kNoSlot;
}

void
CacheModel::reset()
{
    // Invalidate contents but keep each set's LRU order, matching the
    // original model's reset() (which only cleared valid bits).
    for (auto &l : lines_)
        l.valid = false;
    index_.clear();
}

} // namespace rtp
