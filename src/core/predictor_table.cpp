#include "core/predictor_table.hpp"

#include <algorithm>
#include <cmath>

#include "core/hash.hpp"

namespace rtp {

namespace {

int
log2Floor(std::uint32_t v)
{
    int b = 0;
    while ((1u << (b + 1)) <= v)
        b++;
    return b;
}

} // namespace

PredictorTable::PredictorTable(const PredictorTableConfig &config,
                               int tag_bits)
    : config_(config), tagBits_(tag_bits),
      ways_(std::max(1u, config.ways)),
      historyCap_(std::max(1u, config.lruK))
{
    numSets_ = std::max(1u, config_.numEntries / ways_);
    indexBits_ = log2Floor(numSets_);
    entries_.resize(static_cast<std::size_t>(numSets_) * ways_);
    slots_.resize(entries_.size() * config_.nodesPerEntry);
    history_.resize(slots_.size() * historyCap_);
}

std::span<PredictorTable::Entry>
PredictorTable::ways(std::uint32_t set)
{
    return {entries_.data() + static_cast<std::size_t>(set) * ways_,
            ways_};
}

std::span<PredictorTable::NodeSlot>
PredictorTable::slots(const Entry &e)
{
    const std::size_t entry = &e - entries_.data();
    return {slots_.data() + entry * config_.nodesPerEntry, e.used};
}

std::uint64_t *
PredictorTable::history(const NodeSlot &slot)
{
    const std::size_t k = &slot - slots_.data();
    return history_.data() + k * historyCap_;
}

void
PredictorTable::record(NodeSlot &slot)
{
    // A slot keeps its last max(1, K) reference times.
    std::uint64_t *h = history(slot);
    if (slot.historyLen == historyCap_) {
        std::copy(h + 1, h + historyCap_, h);
        slot.historyLen--;
    }
    h[slot.historyLen++] = tick_;
}

PredictorTable::Entry *
PredictorTable::findEntry(std::uint32_t set, std::uint32_t tag)
{
    for (auto &e : ways(set)) {
        if (e.valid && e.tag == tag)
            return &e;
    }
    return nullptr;
}

void
PredictorTable::touchSlot(NodeSlot &slot)
{
    slot.lastUse = tick_;
    slot.useCount++;
    record(slot);
}

bool
PredictorTable::lookupInto(std::uint32_t hash,
                           std::vector<std::uint32_t> &out)
{
    out.clear();
    tick_++;
    stats_.inc(StatId::Lookups);
    std::uint32_t set = foldHash(hash, tagBits_, indexBits_);
    Entry *e = findEntry(set, hash);
    if (!e || e->used == 0) {
        stats_.inc(StatId::LookupMisses);
        return false;
    }
    stats_.inc(StatId::LookupHits);
    // Only the entry's recency moves here (it was referenced as a
    // whole). Per-slot recency/frequency/LRU-K history is deliberately
    // NOT touched: a lookup returns every slot, so bumping them all
    // would give the slots identical histories and reduce the
    // intra-entry LRU/LFU/LRU-K victim choice to "whichever slot
    // happens to be first". Slots are credited in confirm(), when a
    // specific predicted node is actually used.
    e->lastUse = tick_;
    out.reserve(e->used);
    for (const auto &slot : slots(*e))
        out.push_back(slot.node);
    return true;
}

std::optional<std::vector<std::uint32_t>>
PredictorTable::lookup(std::uint32_t hash)
{
    std::vector<std::uint32_t> nodes;
    if (!lookupInto(hash, nodes))
        return std::nullopt;
    return nodes;
}

void
PredictorTable::confirm(std::uint32_t hash, std::uint32_t node)
{
    tick_++;
    std::uint32_t set = foldHash(hash, tagBits_, indexBits_);
    Entry *e = findEntry(set, hash);
    if (!e)
        return;
    for (auto &slot : slots(*e)) {
        if (slot.node == node) {
            stats_.inc(StatId::Confirms);
            touchSlot(slot);
            return;
        }
    }
}

void
PredictorTable::update(std::uint32_t hash, std::uint32_t node)
{
    tick_++;
    stats_.inc(StatId::Updates);
    std::uint32_t set = foldHash(hash, tagBits_, indexBits_);
    Entry *e = findEntry(set, hash);

    if (!e) {
        // Allocate: invalid way if present, else LRU entry in the set.
        Entry *victim = nullptr;
        for (auto &cand : ways(set)) {
            if (!cand.valid) {
                victim = &cand;
                break;
            }
        }
        if (!victim) {
            victim = &ways(set)[0];
            for (auto &cand : ways(set)) {
                if (cand.lastUse < victim->lastUse)
                    victim = &cand;
            }
            stats_.inc(StatId::EntryEvictions);
        }
        victim->valid = true;
        victim->tag = hash;
        victim->lastUse = tick_;
        victim->used = 0;
        e = victim;
    }
    e->lastUse = tick_;

    // If the node is already present, training re-confirmed it: refresh
    // that slot's recency/frequency (same accounting as confirm()).
    for (auto &slot : slots(*e)) {
        if (slot.node == node) {
            touchSlot(slot);
            return;
        }
    }

    if (e->used < config_.nodesPerEntry) {
        NodeSlot &slot = slots(*e).data()[e->used];
        e->used++;
        slot.node = node;
        slot.lastUse = tick_;
        slot.useCount = 1;
        slot.historyLen = 0;
        record(slot);
        return;
    }

    // Entry full: evict a node slot per the configured policy.
    stats_.inc(StatId::NodeEvictions);
    NodeSlot *victim = &slots(*e)[0];
    switch (config_.nodeReplacement) {
      case NodeReplacement::LRU:
        for (auto &slot : slots(*e)) {
            if (slot.lastUse < victim->lastUse)
                victim = &slot;
        }
        break;
      case NodeReplacement::LFU:
        for (auto &slot : slots(*e)) {
            if (slot.useCount < victim->useCount)
                victim = &slot;
        }
        break;
      case NodeReplacement::LRUK:
        // Victim = slot with the oldest K-th most recent reference;
        // slots with fewer than K references are preferred victims
        // (treated as reference time 0), per O'Neil et al.
        {
            auto kth = [&](const NodeSlot &s) -> std::uint64_t {
                if (s.historyLen < config_.lruK)
                    return 0;
                return history(s)[0];
            };
            for (auto &slot : slots(*e)) {
                if (kth(slot) < kth(*victim))
                    victim = &slot;
            }
        }
        break;
    }
    victim->node = node;
    victim->lastUse = tick_;
    victim->useCount = 1;
    victim->historyLen = 0;
    record(*victim);
}

std::uint32_t
PredictorTable::bitsPerEntry() const
{
    return 1 + static_cast<std::uint32_t>(tagBits_) +
           config_.nodesPerEntry * config_.nodeBits;
}

double
PredictorTable::sizeBytes() const
{
    return static_cast<double>(numSets_) * ways_ * bitsPerEntry() / 8.0;
}

void
PredictorTable::reset()
{
    for (auto &e : entries_)
        e = Entry{};
}

std::size_t
PredictorTable::validEntries() const
{
    std::size_t valid = 0;
    for (const auto &e : entries_)
        valid += e.valid ? 1 : 0;
    return valid;
}

} // namespace rtp
