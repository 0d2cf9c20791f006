/**
 * @file
 * ShardGate protocol tests (gpu/shard.hpp): which (cycle, sm) keys
 * pass waitTurn at once, which wait for whom, how an abort releases a
 * waiter, and how startWorkers unwinds a failed thread start.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <concepts>
#include <future>
#include <memory>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "gpu/shard.hpp"

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
        : Waiter(gate, [&gate, sm] { gate.waitTurn(sm); })
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
        gate.waitTurn(1);
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

/**
 * A worker body whose third copy throws: std::thread copies its
 * callable before starting, so the third start fails the way it does
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
    EXPECT_THROW(startWorkers(4, fn,
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
    std::vector<std::thread> threads =
        startWorkers(4, fn, [] { FAIL() << "no start failed"; });
    ASSERT_EQ(threads.size(), 4u);
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(mask.load(), 0xFu);
}

} // namespace
} // namespace rtp
