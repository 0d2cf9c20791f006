/**
 * @file
 * ShardGate protocol tests (gpu/shard.hpp): which (cycle, sm) keys
 * pass waitTurn at once, which wait for whom, how an abort releases a
 * waiter, and how runWorkers (util/host.hpp) unwinds a failed thread
 * start. The FillDeferral tests cover the other half of the protocol:
 * L1-miss fills deferred within the lookahead (mem/memory_system.hpp)
 * and applied in gate order by concurrent owners.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <concepts>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "gpu/shard.hpp"
#include "mem/memory_system.hpp"
#include "util/host.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

using namespace std::chrono_literals;

/** Long enough for a wrongly released waiter to be seen as passed. */
constexpr auto kSettle = 20ms;

/**
 * A waitTurn call (or any gate-waiting body) on a helper thread.
 * Destruction aborts the gate before joining, so a failing test ends
 * instead of hanging on a waiter that was never released.
 */
class Waiter
{
  public:
    template <std::invocable Fn>
    Waiter(ShardGate &gate, Fn fn)
        : gate_(gate),
          done_(std::async(std::launch::async, std::move(fn)))
    {
    }

    Waiter(ShardGate &gate, std::uint32_t sm)
        : Waiter(gate, [&gate, sm] {
              gate.waitTurn(sm, gate.progress(sm));
          })
    {
    }

    ~Waiter() { gate_.requestAbort(); }

    Waiter(const Waiter &) = delete;
    Waiter &operator=(const Waiter &) = delete;

    /** True once the body has returned (or thrown). */
    bool
    passed(std::chrono::milliseconds within)
    {
        return done_.wait_for(within) == std::future_status::ready;
    }

    /** The body's outcome: rethrows what it threw. */
    void
    get()
    {
        done_.get();
    }

  private:
    ShardGate &gate_;
    std::future<void> done_;
};

TEST(ShardGate, GloballySmallestKeyPassesAtOnce)
{
    ShardGate gate(4);
    gate.setProgress(0, 5);
    gate.setProgress(1, 3);
    gate.setProgress(2, 7);
    gate.setProgress(3, 3);
    // (3, 1) is the smallest key: SM 3 ties on the cycle but has the
    // higher index, and every other SM is at a later cycle.
    Waiter w(gate, 1);
    ASSERT_TRUE(w.passed(5s));
    w.get();
}

TEST(ShardGate, WaiterPassesOnlyAfterEveryEarlierKeyPublishesPastIt)
{
    ShardGate gate(3);
    gate.setProgress(0, 10);
    gate.setProgress(1, 4);
    gate.setProgress(2, 6);
    Waiter w(gate, 0);
    EXPECT_FALSE(w.passed(kSettle));

    gate.setProgress(1, 12); // SM 1 is past; SM 2 still blocks
    EXPECT_FALSE(w.passed(kSettle));

    gate.setProgress(2, 9); // still earlier than 10
    EXPECT_FALSE(w.passed(kSettle));

    gate.setProgress(2, 10); // ties, and SM 2 > SM 0: done
    ASSERT_TRUE(w.passed(5s));
    w.get();
}

TEST(ShardGate, EqualCyclesLowerSmWins)
{
    ShardGate gate(2);
    gate.setProgress(0, 5);
    gate.setProgress(1, 5);

    Waiter low(gate, 0);
    ASSERT_TRUE(low.passed(5s));
    low.get();

    Waiter high(gate, 1);
    EXPECT_FALSE(high.passed(kSettle));
    gate.setProgress(0, 6);
    ASSERT_TRUE(high.passed(5s));
    high.get();
}

TEST(ShardGate, FinishedSmNeverBlocks)
{
    ShardGate gate(2);
    gate.setProgress(0, ShardGate::kDone);
    gate.setProgress(1, 1000);
    Waiter w(gate, 1);
    ASSERT_TRUE(w.passed(5s));
    w.get();
}

TEST(ShardGate, PassingWaiterSeesTheBlockersWrites)
{
    // The happens-before edge the shared L2/DRAM relies on: a plain
    // write made before setProgress is visible once the waiter passes
    // (ThreadSanitizer flags a race if the edge is missing).
    ShardGate gate(2);
    gate.setProgress(0, 1);
    gate.setProgress(1, 2);
    int shared = 0;
    int seen = 0;
    Waiter w(gate, [&] {
        gate.waitTurn(1, gate.progress(1));
        seen = shared;
    });
    EXPECT_FALSE(w.passed(kSettle));
    shared = 42;
    gate.setProgress(0, 3);
    ASSERT_TRUE(w.passed(5s));
    w.get();
    EXPECT_EQ(seen, 42);
}

TEST(ShardGate, AbortReleasesASpinningWaiter)
{
    ShardGate gate(2);
    gate.setProgress(0, 3);
    gate.setProgress(1, 1);
    Waiter w(gate, 0); // blocked on SM 1
    EXPECT_FALSE(w.passed(kSettle));
    EXPECT_FALSE(gate.aborted());
    gate.requestAbort();
    ASSERT_TRUE(w.passed(5s));
    EXPECT_THROW(w.get(), ShardAbort);
    EXPECT_TRUE(gate.aborted());
}

TEST(ShardGate, MayEnterAnswersWithoutWaiting)
{
    ShardGate gate(3);
    gate.setProgress(0, 10);
    gate.setProgress(1, 4);
    gate.setProgress(2, 6);
    EXPECT_TRUE(gate.mayEnter(1, 4));  // ties to the lower SM
    EXPECT_FALSE(gate.mayEnter(2, 4)); // SM 1 ties and is lower
    EXPECT_FALSE(gate.mayEnter(0, 5)); // SM 1 is still at 4
    gate.setProgress(1, 12);
    EXPECT_TRUE(gate.mayEnter(0, 5));
    EXPECT_TRUE(gate.mayEnter(0, 6));  // SM 2 ties and is higher
    EXPECT_FALSE(gate.mayEnter(0, 7)); // SM 2 is still at 6
}

/**
 * A worker body whose third copy throws: runWorkers copies its
 * callable before each start, so the third start fails the way it does
 * when the host has no thread left. Started workers run until stop().
 */
struct FlakyWorker
{
    struct Shared
    {
        std::atomic<int> copies{0};
        std::atomic<int> exits{0};
        std::atomic<bool> released{false};
    };
    std::shared_ptr<Shared> s;

    explicit FlakyWorker(std::shared_ptr<Shared> shared)
        : s(std::move(shared))
    {
    }
    FlakyWorker(const FlakyWorker &o) : s(o.s)
    {
        if (++s->copies == 3)
            throw std::system_error(std::make_error_code(
                std::errc::resource_unavailable_try_again));
    }
    FlakyWorker(FlakyWorker &&) = default;

    void
    operator()(std::uint32_t) const
    {
        while (!s->released.load())
            std::this_thread::yield();
        s->exits++;
    }
};

TEST(StartWorkers, FailedStartStopsAndJoinsTheStartedWorkers)
{
    auto shared = std::make_shared<FlakyWorker::Shared>();
    FlakyWorker fn(shared);
    int stops = 0;
    EXPECT_THROW(runWorkers(4, fn,
                            [&] {
                                stops++;
                                shared->released = true;
                            }),
                 std::system_error);
    EXPECT_EQ(stops, 1);
    // Two workers started; both were joined before the rethrow.
    EXPECT_EQ(shared->exits.load(), 2);
}

TEST(StartWorkers, StartsEveryWorkerWithItsIndex)
{
    std::atomic<unsigned> mask{0};
    auto fn = [&](std::uint32_t w) { mask |= 1u << w; };
    runWorkers(4, fn, [] { FAIL() << "no start failed"; });
    EXPECT_EQ(mask.load(), 0xFu);
}

/** Small caches and DRAM, so that order changes L2 and DRAM state. */
MemoryConfig
deferralConfig()
{
    MemoryConfig c;
    c.l1 = {1024, 128, 0, 2, "l1"};  // 8 lines, fully associative
    c.l2 = {4096, 128, 4, 3, "l2"};  // 32 lines
    c.l1ToL2Latency = 12;
    c.l2ToDramLatency = 20;
    c.dram.numBanks = 4;
    c.dram.rowMissLatency = 60;
    c.dram.rowHitLatency = 15;
    return c;
}

/** Applies a single-SM owner's due fills in queue order. */
struct ApplyingSettler final : FillSettler
{
    MemorySystem *mem = nullptr;
    std::vector<FillDone> done;
    int calls = 0;

    void
    settleDue(std::uint32_t sm, Cycle cycle) override
    {
        ++calls;
        while (mem->fillDue(sm, cycle))
            done.push_back(mem->applyOldestFill(sm));
    }
};

TEST(FillDeferral, MissAndMshrMergeShareOnePendingFill)
{
    const MemoryConfig cfg = deferralConfig();
    MemorySystem mem(cfg, 1);
    ApplyingSettler settler;
    settler.mem = &mem;
    mem.setFillSettler(&settler);

    mem.beginStep(0, 100);
    const MemAccess miss = mem.access(0, 0x4000, 100);
    const Cycle bound = 100 + cfg.minL1FillCycles() + cfg.l1.hitLatency;
    ASSERT_NE(miss.fill, MemAccess::kNoFill);
    EXPECT_EQ(miss.readyCycle, bound);
    EXPECT_TRUE(mem.hasDeferredFills(0));
    EXPECT_EQ(mem.oldestFillKey(0), 100u);
    EXPECT_FALSE(mem.fillDue(0, 100 + cfg.minL1FillCycles() - 1));
    EXPECT_TRUE(mem.fillDue(0, 100 + cfg.minL1FillCycles()));

    // A later access to the same line merges onto the queued fill.
    mem.beginStep(0, 104);
    const MemAccess merge = mem.access(0, 0x4000 + 64, 104);
    EXPECT_TRUE(merge.l1MshrMerged);
    EXPECT_EQ(merge.fill, miss.fill);
    EXPECT_EQ(merge.readyCycle, bound);
    EXPECT_EQ(settler.calls, 0);

    // Reference: the same accesses applied at issue.
    MemorySystem ref(cfg, 1);
    const Cycle want = ref.access(0, 0x4000, 100).readyCycle;
    ASSERT_EQ(ref.access(0, 0x4000 + 64, 104).readyCycle, want);

    const FillDone done = mem.applyOldestFill(0);
    EXPECT_EQ(done.seq, miss.fill);
    EXPECT_EQ(done.readyCycle, want);
    EXPECT_GE(done.readyCycle, bound);
    EXPECT_FALSE(mem.hasDeferredFills(0));
    // The line is now exact: an access while it is still in flight
    // merges with the applied ready cycle.
    const MemAccess after = mem.access(0, 0x4000, 105);
    EXPECT_EQ(after.fill, MemAccess::kNoFill);
    EXPECT_EQ(after.readyCycle, want);
    EXPECT_EQ(mem.aggregateStats().toJson(), [&] {
        ref.access(0, 0x4000, 105);
        return ref.aggregateStats().toJson();
    }());
    mem.setFillSettler(nullptr);
}

TEST(FillDeferral, AccessAtADueCycleSettlesFirstAndMatchesIssueOrder)
{
    // One SM's random stream: deferred and settled only when an access
    // reaches a fill's bound, it must leave every ready cycle and every
    // L1/L2/DRAM statistic exactly as applying each fill at issue does.
    const MemoryConfig cfg = deferralConfig();
    MemorySystem mem(cfg, 1);
    MemorySystem ref(cfg, 1);
    ApplyingSettler settler;
    settler.mem = &mem;
    mem.setFillSettler(&settler);

    Rng rng(7);
    Cycle cycle = 0;
    std::vector<Cycle> want;
    std::vector<MemAccess> got;
    for (int i = 0; i < 4000; ++i) {
        cycle += rng.nextBounded(4);
        const std::uint64_t addr = 128ull * rng.nextBounded(48);
        mem.beginStep(0, cycle);
        got.push_back(mem.access(0, addr, cycle));
        want.push_back(ref.access(0, addr, cycle).readyCycle);
    }
    while (mem.hasDeferredFills(0))
        settler.done.push_back(mem.applyOldestFill(0));
    EXPECT_GT(settler.calls, 0);

    std::map<std::uint64_t, Cycle> ready;
    for (const FillDone &d : settler.done)
        ready[d.seq] = d.readyCycle;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].fill == MemAccess::kNoFill) {
            EXPECT_EQ(got[i].readyCycle, want[i]) << i;
        } else {
            EXPECT_LE(got[i].readyCycle, want[i]) << i;
            EXPECT_EQ(ready.at(got[i].fill), want[i]) << i;
        }
    }
    EXPECT_EQ(mem.aggregateStats().toJson(), ref.aggregateStats().toJson());
    mem.setFillSettler(nullptr);
}

TEST(FillDeferral, ConcurrentOwnersApplyInCycleSmOrder)
{
    // Three SMs, each owned by its own thread, issue random accesses
    // and defer their misses. Each owner applies its fills when the
    // gate lets them pass (non-blocking after every access, blocking
    // when one falls due) and publishes min(current key, oldest fill
    // key) as its progress. The shared L2 and DRAM must end up exactly
    // as a single thread leaves them when it applies every access in
    // (cycle, sm) order — and ThreadSanitizer sees no race.
    constexpr std::uint32_t kSms = 3;
    const MemoryConfig cfg = deferralConfig();

    struct Access
    {
        Cycle cycle;
        std::uint64_t addr;
    };
    std::vector<std::vector<Access>> script(kSms);
    for (std::uint32_t sm = 0; sm < kSms; ++sm) {
        Rng rng(100 + sm);
        Cycle cycle = 0;
        for (int i = 0; i < 3000; ++i) {
            cycle += rng.nextBounded(5);
            script[sm].push_back({cycle, 128ull * rng.nextBounded(96)});
        }
    }

    MemorySystem ref(cfg, kSms);
    std::vector<std::vector<Cycle>> want(kSms);
    {
        std::vector<std::size_t> next(kSms, 0);
        while (true) {
            std::uint32_t sm = kSms;
            for (std::uint32_t s = 0; s < kSms; ++s)
                if (next[s] < script[s].size() &&
                    (sm == kSms ||
                     script[s][next[s]].cycle < script[sm][next[sm]].cycle))
                    sm = s;
            if (sm == kSms)
                break;
            const Access &a = script[sm][next[sm]++];
            want[sm].push_back(ref.access(sm, a.addr, a.cycle).readyCycle);
        }
    }

    MemorySystem mem(cfg, kSms);
    ShardGate gate(kSms);
    struct Owners final : FillSettler
    {
        MemorySystem *mem;
        ShardGate *gate;
        std::vector<Cycle> key = std::vector<Cycle>(kSms, 0);
        std::vector<std::map<std::uint64_t, Cycle>> ready =
            std::vector<std::map<std::uint64_t, Cycle>>(kSms);

        void
        publish(std::uint32_t sm)
        {
            gate->setProgress(sm,
                              std::min(key[sm], mem->oldestFillKey(sm)));
        }
        void
        apply(std::uint32_t sm)
        {
            const FillDone d = mem->applyOldestFill(sm);
            ready[sm][d.seq] = d.readyCycle;
            publish(sm);
        }
        void
        settleDue(std::uint32_t sm, Cycle cycle) override
        {
            while (mem->fillDue(sm, cycle)) {
                gate->waitTurn(sm, mem->oldestFillKey(sm));
                apply(sm);
            }
        }
    } owners;
    owners.mem = &mem;
    owners.gate = &gate;
    for (std::uint32_t sm = 0; sm < kSms; ++sm) {
        owners.key[sm] = script[sm].front().cycle;
        gate.setProgress(sm, owners.key[sm]);
    }
    mem.setFillSettler(&owners);

    std::vector<std::vector<MemAccess>> got(kSms);
    auto owner = [&](std::uint32_t sm) {
        for (std::size_t i = 0; i < script[sm].size(); ++i) {
            const Access &a = script[sm][i];
            owners.key[sm] = a.cycle;
            owners.publish(sm);
            mem.beginStep(sm, a.cycle);
            got[sm].push_back(mem.access(sm, a.addr, a.cycle));
            owners.key[sm] = i + 1 < script[sm].size()
                                 ? script[sm][i + 1].cycle
                                 : ShardGate::kDone;
            owners.publish(sm);
            while (mem.hasDeferredFills(sm) &&
                   gate.mayEnter(sm, mem.oldestFillKey(sm)))
                owners.apply(sm);
        }
        while (mem.hasDeferredFills(sm)) {
            gate.waitTurn(sm, mem.oldestFillKey(sm));
            owners.apply(sm);
        }
    };
    {
        std::vector<std::future<void>> threads;
        for (std::uint32_t sm = 0; sm < kSms; ++sm)
            threads.push_back(
                std::async(std::launch::async, owner, sm));
        for (auto &t : threads)
            ASSERT_EQ(t.wait_for(60s), std::future_status::ready);
        for (auto &t : threads)
            t.get();
    }
    mem.setFillSettler(nullptr);

    std::size_t deferred = 0;
    for (std::uint32_t sm = 0; sm < kSms; ++sm)
        for (std::size_t i = 0; i < got[sm].size(); ++i) {
            const MemAccess &g = got[sm][i];
            if (g.fill == MemAccess::kNoFill) {
                EXPECT_EQ(g.readyCycle, want[sm][i]) << sm << "/" << i;
                continue;
            }
            ++deferred;
            EXPECT_EQ(owners.ready[sm].at(g.fill), want[sm][i])
                << sm << "/" << i;
        }
    EXPECT_GT(deferred, 1000u);
    EXPECT_EQ(mem.aggregateStats().toJson(), ref.aggregateStats().toJson());
}

TEST(FillDeferral, ApplyThrowsWhenAFillBeatsItsBound)
{
    // The bound comes from MemoryConfig; an L2 model faster than its
    // configuration breaks it, and the apply step must say so rather
    // than hand back data that the SM may already have stepped past.
    MemoryConfig cfg = deferralConfig();
    MemorySystem mem(cfg, 1);
    CacheConfig fast = cfg.l2;
    fast.hitLatency = 0;
    mem.l2() = CacheModel(fast, 2);
    mem.l2().access(0x8000, 0, [](std::uint64_t, Cycle c) { return c; });
    ApplyingSettler settler;
    settler.mem = &mem;
    mem.setFillSettler(&settler);
    mem.beginStep(0, 50);
    ASSERT_NE(mem.access(0, 0x8000, 50).fill, MemAccess::kNoFill);
    EXPECT_THROW(mem.applyOldestFill(0), std::logic_error);
    mem.setFillSettler(nullptr);
}

} // namespace
} // namespace rtp
