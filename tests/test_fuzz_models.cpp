/**
 * @file
 * Reference-model fuzz tests: long random operation sequences on the
 * timed/structured components, checked step-by-step against trivially
 * correct reference implementations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <vector>

#include "core/hash.hpp"
#include "core/predictor_table.hpp"
#include "mem/cache.hpp"
#include "rtunit/traversal_stack.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

// ---- cache vs reference LRU -------------------------------------------

/** Trivially correct fully-associative LRU over line addresses. */
class RefLru
{
  public:
    explicit RefLru(std::size_t lines) : capacity_(lines) {}

    /** @return true if resident (and refreshes recency). */
    bool
    access(std::uint64_t line)
    {
        auto it = std::find(order_.begin(), order_.end(), line);
        if (it != order_.end()) {
            order_.erase(it);
            order_.push_front(line);
            return true;
        }
        order_.push_front(line);
        if (order_.size() > capacity_)
            order_.pop_back();
        return false;
    }

  private:
    std::size_t capacity_;
    std::list<std::uint64_t> order_;
};

TEST(FuzzModels, FullyAssociativeCacheMatchesReferenceLru)
{
    const std::uint32_t lines = 16;
    CacheModel cache({lines * 128, 128, 0, 1, "fuzz"});
    RefLru ref(lines);
    Rng rng(91);
    Cycle cycle = 0;
    auto fill = [](std::uint64_t, Cycle c) { return c; }; // instant

    for (int i = 0; i < 20000; ++i) {
        // Skewed address distribution to get plenty of both hits and
        // conflict evictions.
        std::uint64_t line = rng.nextBounded(lines * 3);
        cycle += 2; // fills complete instantly, no in-flight merging
        CacheAccess a = cache.access(line * 128, cycle, fill);
        bool ref_hit = ref.access(line);
        ASSERT_EQ(ref_hit, a.hit) << "op " << i << " line " << line;
    }
}

TEST(FuzzModels, SetAssociativeCacheRespectsSetIsolation)
{
    // 2 sets x 2 ways: accesses to set 0 must never evict set 1 lines.
    CacheModel cache({512, 128, 2, 1, "fuzz"});
    auto fill = [](std::uint64_t, Cycle c) { return c; };
    Rng rng(92);
    cache.access(1 * 128, 0, fill); // set 1 resident
    cache.access(3 * 128, 1, fill); // set 1 resident
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t even_line = rng.nextBounded(64) * 2; // set 0 only
        cache.access(even_line * 128, 10 + i, fill);
        ASSERT_TRUE(cache.contains(1 * 128)) << "op " << i;
        ASSERT_TRUE(cache.contains(3 * 128)) << "op " << i;
    }
}

/**
 * Trivially correct timed set-associative LRU: per set, a recency-ordered
 * list (MRU first) of resident lines with their fill-ready cycles, plus
 * the cache model's MSHR-merge, in-flight-victim-skip, and bypass rules
 * spelled out directly. Unused ways are always the least recently used,
 * so a set below capacity allocates without evicting.
 */
class RefTimedCache
{
  public:
    RefTimedCache(std::uint32_t sets, std::uint32_t ways, Cycle hit_latency)
        : ways_(ways), hitLatency_(hit_latency), sets_(sets)
    {}

    struct Counts
    {
        std::uint64_t hits = 0, misses = 0, merges = 0, evictions = 0,
                      skips = 0, bypasses = 0, latencySum = 0;
    };

    CacheAccess
    access(std::uint64_t line, Cycle cycle,
           const std::function<Cycle(std::uint64_t, Cycle)> &fill)
    {
        auto &set = sets_[line % sets_.size()];
        CacheAccess res;
        auto it = std::find_if(set.begin(), set.end(),
                               [&](const Entry &e) { return e.line == line; });
        if (it != set.end()) {
            Entry e = *it;
            set.erase(it);
            set.insert(set.begin(), e);
            if (e.readyAt > cycle) {
                res.merged = true;
                res.readyCycle = e.readyAt + hitLatency_;
                counts.merges++;
            } else {
                res.hit = true;
                res.readyCycle = cycle + hitLatency_;
                counts.hits++;
            }
            return res;
        }
        counts.misses++;
        if (set.size() == ways_) {
            // Evict the least recent line whose fill has landed.
            auto victim = set.end();
            for (auto v = set.end(); v != set.begin();) {
                --v;
                if (v->readyAt <= cycle) {
                    victim = v;
                    break;
                }
            }
            bool skipped = victim == set.end() || victim + 1 != set.end();
            if (skipped)
                counts.skips++;
            if (victim == set.end()) {
                counts.bypasses++;
                Cycle ready = fill(line, cycle);
                counts.latencySum += ready - cycle;
                res.readyCycle = ready + hitLatency_;
                return res;
            }
            counts.evictions++;
            set.erase(victim);
        }
        Cycle ready = fill(line, cycle);
        counts.latencySum += ready - cycle;
        set.insert(set.begin(), Entry{line, ready});
        res.readyCycle = ready + hitLatency_;
        return res;
    }

    bool
    contains(std::uint64_t line) const
    {
        const auto &set = sets_[line % sets_.size()];
        return std::any_of(set.begin(), set.end(),
                           [&](const Entry &e) { return e.line == line; });
    }

    Counts counts;

  private:
    struct Entry
    {
        std::uint64_t line;
        Cycle readyAt;
    };

    std::size_t ways_;
    Cycle hitLatency_;
    std::vector<std::vector<Entry>> sets_;
};

/**
 * Drive a @p lines-line cache of @p ways ways (0: fully associative)
 * with @p ops random accesses whose fills take 1..~2000 cycles while
 * the clock advances 0..2 cycles per access, so fills overlap heavily:
 * merges, in-flight victim skips, bypasses, and eviction churn through
 * the line index all occur. Every access and the
 * final statistics must match the reference model.
 */
void
fuzzTimedCache(std::uint32_t lines, std::uint32_t ways, std::uint64_t seed,
               int ops)
{
    const std::uint32_t line_bytes = 128;
    const Cycle hit_latency = 3;
    CacheModel cache({lines * line_bytes, line_bytes, ways, hit_latency,
                      "fuzz"});
    std::uint32_t model_ways = ways == 0 ? lines : ways;
    RefTimedCache ref(lines / model_ways, model_ways, hit_latency);
    // Fill latency is a pure function of (line, cycle), so both models
    // see the same downstream timing for the same request.
    auto fill_latency = [](std::uint64_t line, Cycle cycle) {
        std::uint64_t h = (line * 0x9E3779B97F4A7C15ull) ^ (cycle + 0x51ED);
        h ^= h >> 29;
        h *= 0xBF58476D1CE4E5B9ull;
        h ^= h >> 32;
        return (h % 16 == 0) ? 1000 + h % 1000 : 1 + h % 300;
    };
    auto model_fill = [&](std::uint64_t addr, Cycle c) {
        return c + fill_latency(addr / line_bytes, c);
    };
    auto ref_fill = [&](std::uint64_t line, Cycle c) {
        return c + fill_latency(line, c);
    };

    std::uint32_t sets = lines / model_ways;
    Rng rng(seed);
    Cycle cycle = 0;
    for (int i = 0; i < ops; ++i) {
        // Every 2500 accesses, a 600-access burst with the clock frozen
        // piles up in-flight fills until whole sets are in flight; a
        // set-associative burst targets one set.
        bool burst = i % 2500 >= 1900;
        std::uint64_t line;
        if (burst && sets > 1) {
            line = (i / 2500 * 37) % sets +
                   std::uint64_t{sets} * rng.nextBounded(64);
        } else {
            if (!burst)
                cycle += rng.nextBounded(3);
            // A working set of 3x the capacity (constant eviction
            // churn), plus far line addresses whose low bits collide
            // with it to exercise hashing of large keys.
            line = rng.nextBounded(lines * 3);
            if (rng.nextBounded(8) == 0)
                line +=
                    std::uint64_t{rng.nextBounded(1u << 20)} * lines * 4;
        }
        CacheAccess got = cache.access(line * line_bytes, cycle, model_fill);
        CacheAccess want = ref.access(line, cycle, ref_fill);
        ASSERT_EQ(want.hit, got.hit) << "op " << i << " line " << line;
        ASSERT_EQ(want.merged, got.merged) << "op " << i << " line " << line;
        ASSERT_EQ(want.readyCycle, got.readyCycle)
            << "op " << i << " line " << line;
        std::uint64_t probe = rng.nextBounded(lines * 3);
        ASSERT_EQ(ref.contains(probe), cache.contains(probe * line_bytes))
            << "op " << i << " probe line " << probe;
    }

    const StatGroup &st = cache.stats();
    const auto &want = ref.counts;
    EXPECT_EQ(want.hits, st.get(StatId::Hits));
    EXPECT_EQ(want.misses, st.get(StatId::Misses));
    EXPECT_EQ(want.merges, st.get(StatId::MshrMerges));
    EXPECT_EQ(want.evictions, st.get(StatId::Evictions));
    EXPECT_EQ(want.skips, st.get(StatId::InflightVictimSkips));
    EXPECT_EQ(want.bypasses, st.get(StatId::InflightBypasses));
    const Histogram *lat = st.histogram("miss_latency");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(want.misses, lat->count());
    EXPECT_EQ(want.latencySum, lat->sum());
    // The sequence must actually reach every rule it claims to test.
    EXPECT_GT(want.hits, 0u);
    EXPECT_GT(want.merges, 0u);
    EXPECT_GT(want.evictions, std::uint64_t(ops) / 4);
    EXPECT_GT(want.skips, 0u);
    EXPECT_GT(want.bypasses, 0u);
}

TEST(FuzzModels, TimedL1FullyAssociativeMatchesReference)
{
    fuzzTimedCache(512, 0, 93, 120000); // the paper's 64 KB L1
}

TEST(FuzzModels, TimedL2SetAssociativeMatchesReference)
{
    fuzzTimedCache(8192, 16, 94, 200000); // the paper's 1 MB 16-way L2
}

// ---- predictor table vs reference map ----------------------------------

/** Reference model: per-set LRU map of tag -> node (1 node/entry). */
class RefTable
{
  public:
    RefTable(std::uint32_t sets, std::uint32_t ways, int tag_bits,
             int index_bits)
        : sets_(sets), ways_(ways), tagBits_(tag_bits),
          indexBits_(index_bits), entries_(sets)
    {}

    std::optional<std::uint32_t>
    lookup(std::uint32_t hash)
    {
        auto &set = entries_[foldHash(hash, tagBits_, indexBits_)];
        auto it = std::find_if(set.begin(), set.end(),
                               [&](auto &e) { return e.first == hash; });
        if (it == set.end())
            return std::nullopt;
        auto entry = *it;
        set.erase(it);
        set.push_front(entry); // refresh recency
        return entry.second;
    }

    void
    update(std::uint32_t hash, std::uint32_t node)
    {
        auto &set = entries_[foldHash(hash, tagBits_, indexBits_)];
        auto it = std::find_if(set.begin(), set.end(),
                               [&](auto &e) { return e.first == hash; });
        if (it != set.end())
            set.erase(it);
        set.push_front({hash, node});
        if (set.size() > ways_)
            set.pop_back();
    }

  private:
    std::uint32_t sets_;
    std::uint32_t ways_;
    int tagBits_;
    int indexBits_;
    std::vector<std::deque<std::pair<std::uint32_t, std::uint32_t>>>
        entries_;
};

TEST(FuzzModels, PredictorTableMatchesReferenceModel)
{
    PredictorTableConfig cfg;
    cfg.numEntries = 32;
    cfg.ways = 4;
    cfg.nodesPerEntry = 1;
    const int tag_bits = 10;
    PredictorTable table(cfg, tag_bits);
    RefTable ref(table.numSets(), cfg.ways, tag_bits,
                 table.indexBits());

    Rng rng(93);
    for (int i = 0; i < 30000; ++i) {
        std::uint32_t hash = rng.nextBounded(1 << tag_bits);
        if (rng.nextFloat() < 0.5f) {
            std::uint32_t node = rng.nextBounded(1000);
            table.update(hash, node);
            ref.update(hash, node);
        } else {
            auto got = table.lookup(hash);
            auto want = ref.lookup(hash);
            ASSERT_EQ(want.has_value(), got.has_value())
                << "op " << i << " hash " << hash;
            if (want) {
                ASSERT_EQ(got->size(), 1u);
                ASSERT_EQ(*want, (*got)[0]) << "op " << i;
            }
        }
    }
}

// ---- traversal stack vs std::vector -------------------------------------

TEST(FuzzModels, TraversalStackMatchesPlainStack)
{
    Rng rng(94);
    for (std::uint32_t hw : {2u, 4u, 8u}) {
        TraversalStack s(hw, 2);
        std::vector<std::uint32_t> ref;
        for (int i = 0; i < 20000; ++i) {
            if (ref.empty() || rng.nextFloat() < 0.55f) {
                std::uint32_t v = rng.nextU32();
                s.push(v);
                ref.push_back(v);
            } else {
                auto got = s.pop();
                ASSERT_TRUE(got.has_value());
                ASSERT_EQ(*got, ref.back()) << "op " << i;
                ref.pop_back();
            }
            ASSERT_EQ(s.size(), ref.size());
            ASSERT_EQ(s.empty(), ref.empty());
        }
        // Drain completely.
        while (!ref.empty()) {
            ASSERT_EQ(*s.pop(), ref.back());
            ref.pop_back();
        }
        ASSERT_FALSE(s.pop().has_value());
    }
}

// ---- fold hash properties -----------------------------------------------

TEST(FuzzModels, FoldHashStaysInRangeAndIsDeterministic)
{
    Rng rng(95);
    for (int i = 0; i < 20000; ++i) {
        std::uint32_t h = rng.nextU32() & 0x7fffffff;
        int n = 1 + static_cast<int>(rng.nextBounded(31));
        int m = 1 + static_cast<int>(rng.nextBounded(16));
        std::uint32_t folded =
            foldHash(h & ((n >= 31) ? ~0u : ((1u << n) - 1)), n, m);
        ASSERT_LT(folded, 1u << m);
        ASSERT_EQ(folded,
                  foldHash(h & ((n >= 31) ? ~0u : ((1u << n) - 1)), n,
                           m));
    }
}

} // namespace
} // namespace rtp
