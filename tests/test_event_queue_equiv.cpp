/**
 * @file
 * Equivalence tests for the RT unit's calendar event queue against a
 * binary-heap reference.
 *
 * Two layers: (1) the queue in isolation against a std::priority_queue
 * reference model (the exact structure the RT unit used before the
 * calendar queue), driven by scripted adversarial scenarios and seeded
 * random schedules shaped like the simulator's access pattern; (2) three
 * whole workloads pinned to the cycle count and the FNV-1a digest of the
 * SimResult JSON — every cycle count and counter — that the heap-based
 * RT unit produced (the calendar queue produced the same bytes), so a
 * calendar regression also shows at workload level.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "bvh/builder.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "rtunit/event_queue.hpp"
#include "scene/registry.hpp"

namespace rtp {
namespace {

/** The pre-calendar implementation, verbatim: a min (cycle, order) heap. */
using ReferenceQueue =
    std::priority_queue<RtEvent, std::vector<RtEvent>,
                        std::greater<RtEvent>>;

/** Pop both queues to exhaustion, asserting identical sequences. */
void
drainAndCompare(EventQueue &q, ReferenceQueue &ref)
{
    while (!ref.empty()) {
        ASSERT_FALSE(q.empty());
        RtEvent want = ref.top();
        ref.pop();
        EXPECT_EQ(q.nextCycle(), want.cycle);
        RtEvent got = q.pop();
        ASSERT_EQ(got.cycle, want.cycle);
        ASSERT_EQ(got.order, want.order);
    }
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopsInCycleThenOrderSequence)
{
    EventQueue q;
    ReferenceQueue ref;
    // Same cycle, shuffled orders; then a later cycle.
    for (std::uint64_t ord : {5ull, 1ull, 3ull, 0ull, 4ull, 2ull}) {
        RtEvent ev{10, ord, RtEventKind::WarpStep,
                   static_cast<std::uint32_t>(ord)};
        q.push(ev);
        ref.push(ev);
    }
    RtEvent late{4000, 0, RtEventKind::WarpStep, 9};
    q.push(late);
    ref.push(late);
    drainAndCompare(q, ref);
}

TEST(EventQueue, OverflowEventCanComeDueBeforeRingEvents)
{
    // Regression scenario for the subtle case: an event parked in the
    // overflow store (scheduled > 1024 cycles ahead at push time) must
    // still pop BEFORE a ring event with a larger cycle that was pushed
    // later, once the window has advanced past it.
    EventQueue q;
    ReferenceQueue ref;
    std::uint64_t ord = 0;

    auto both = [&](Cycle c) {
        RtEvent ev{c, ord++, RtEventKind::WarpStep, 0};
        q.push(ev);
        ref.push(ev);
    };

    both(0);
    both(5000); // lands in overflow (0 + 1024 horizon)
    // March the window forward in sub-horizon hops to ~4990, so 5000 is
    // STILL in overflow while the window covers [4990, 6014).
    Cycle c = 0;
    while (c < 4990) {
        RtEvent got = q.pop();
        RtEvent want = ref.top();
        ref.pop();
        ASSERT_EQ(got.cycle, want.cycle);
        ASSERT_EQ(got.order, want.order);
        c = got.cycle + 997;
        if (c < 4990)
            both(c);
    }
    both(6000); // enters the RING, beyond the overflow event's 5000
    drainAndCompare(q, ref); // must yield ... 5000, 6000
}

TEST(EventQueue, DuplicateCollectorFlushOrdersAreHandled)
{
    EventQueue q;
    ReferenceQueue ref;
    // Duplicate CollectorFlush events are bitwise identical in the
    // simulator; the queue may return them in any relative order.
    for (int i = 0; i < 3; ++i) {
        RtEvent ev{50, ~0ull, RtEventKind::CollectorFlush, 0};
        q.push(ev);
        ref.push(ev);
    }
    RtEvent step{50, 7, RtEventKind::WarpStep, 1};
    q.push(step);
    ref.push(step);
    drainAndCompare(q, ref);
}

TEST(EventQueue, RandomizedSchedulesMatchReference)
{
    // Shaped like the simulator's pattern: pops are non-decreasing in
    // cycle, pushes are >= the current cycle, mostly near-future with a
    // tail of far-future (overflow) events.
    for (std::uint32_t seed : {1u, 2u, 3u, 4u, 5u}) {
        std::mt19937 rng(seed);
        EventQueue q;
        ReferenceQueue ref;
        std::uint64_t ord = 0;
        Cycle now = 0;

        auto push_at = [&](Cycle c) {
            RtEvent ev{c, ord++, RtEventKind::WarpStep,
                       static_cast<std::uint32_t>(rng() % 16)};
            q.push(ev);
            ref.push(ev);
        };
        for (int i = 0; i < 32; ++i)
            push_at(rng() % 64);

        for (int step = 0; step < 4000 && !ref.empty(); ++step) {
            ASSERT_EQ(q.size(), ref.size());
            RtEvent want = ref.top();
            ref.pop();
            RtEvent got = q.pop();
            ASSERT_EQ(got.cycle, want.cycle) << "seed " << seed;
            ASSERT_EQ(got.order, want.order) << "seed " << seed;
            now = got.cycle;

            // 0-2 new events, mostly near, sometimes far (overflow),
            // sometimes same-cycle (ties with unique orders).
            int n = static_cast<int>(rng() % 3);
            for (int k = 0; k < n; ++k) {
                std::uint32_t r = rng() % 100;
                Cycle c;
                if (r < 10)
                    c = now; // same-cycle reschedule
                else if (r < 85)
                    c = now + 1 + rng() % 600; // in-window
                else
                    c = now + 1500 + rng() % 8000; // overflow
                push_at(c);
            }
        }
        drainAndCompare(q, ref);
    }
}

// --- Whole-workload equivalence -----------------------------------------

struct EquivRig
{
    Scene scene;
    Bvh bvh;
    RayBatch ao;

    EquivRig()
        : scene(makeScene(SceneId::Sibenik, 0.06f))
    {
        bvh = BvhBuilder().build(scene.mesh.triangles());
        RayGenConfig cfg;
        cfg.width = 24;
        cfg.height = 24;
        cfg.samplesPerPixel = 2;
        cfg.viewportFraction = 0.4f;
        ao = generateAoRays(scene, bvh, cfg);
    }
};

EquivRig &
equivRig()
{
    static EquivRig r;
    return r;
}

/** 64-bit FNV-1a of @p bytes. */
std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Run one config; its cycles and result digest must equal what the
 * heap-based queue produced for the same workload.
 */
void
expectHeapResult(const SimConfig &cfg, Cycle cycles,
                 std::uint64_t digest)
{
    SimResult r = Simulation(cfg, equivRig().bvh,
                             equivRig().scene.mesh.triangles())
                      .run(equivRig().ao.rays);
    EXPECT_EQ(r.cycles, cycles);
    EXPECT_EQ(fnv1a64(r.toJson()), digest);
}

TEST(EventQueueEquivalence, BaselineWorkloadByteIdentical)
{
    expectHeapResult(SimConfig::baseline(), 9490, 0x4dc5cce4b415941aull);
}

TEST(EventQueueEquivalence, ProposedWorkloadByteIdentical)
{
    expectHeapResult(SimConfig::proposed(), 9496, 0xdcf28f5ba429185dull);
}

TEST(EventQueueEquivalence, RepackWithExtraWarpsByteIdentical)
{
    SimConfig cfg = SimConfig::proposed();
    cfg.rt.additionalWarps = 2; // exercises collector flush events
    expectHeapResult(cfg, 8795, 0xe259e179c6451eb3ull);
}

} // namespace
} // namespace rtp
