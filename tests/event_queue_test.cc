/**
 * @file
 * Unit tests for the deterministic event queue and FCFS resources.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace prism {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.eventsExecuted(), 3u);
}

TEST(EventQueue, TiesBreakInSchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayScheduleAtSameTick)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(7, [&] {
        eq.scheduleIn(0, [&] { ++fired; });
    });
    eq.runAll();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(21, [&] { ++fired; });
    eq.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunWhileStopsWhenPredicateHolds)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 1; t <= 100; ++t)
        eq.schedule(t, [&] { ++count; });
    bool done = eq.runWhile([&] { return count >= 42; });
    EXPECT_TRUE(done);
    EXPECT_EQ(count, 42);
}

TEST(EventQueue, RunWhileReportsDrainWithoutSatisfaction)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1, [&] { ++count; });
    EXPECT_FALSE(eq.runWhile([&] { return count >= 5; }));
    EXPECT_EQ(count, 1);
}

TEST(EventQueue, RunOneOnEmptyReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.runOne());
}

/**
 * Property/stress test for same-tick FIFO order: N interleaved
 * schedule/scheduleIn calls with heavy same-tick ties, plus callbacks
 * that schedule at the current tick.  The fired order must equal a
 * stable sort of (tick, scheduling order) — FIFO within a tick — and
 * the executed/pending accounting must stay exact.
 */
TEST(EventQueue, StressInterleavedTiesMatchReferenceOrder)
{
    constexpr int kSeeded = 3000;
    Rng rng(0xfeedULL);
    EventQueue eq;

    // Reference model: execution order must equal the global schedule
    // ordered by (tick, scheduling order).  `expected` records every
    // schedule call in call order — including callbacks scheduled
    // dynamically from inside other callbacks — so a stable sort by
    // tick reproduces the queue's (when, seq) tie-break exactly.
    std::vector<std::pair<Tick, int>> expected; // (when, id)
    std::vector<int> fired;
    int next_id = 0;

    for (int i = 0; i < kSeeded; ++i) {
        // Few distinct ticks -> many same-tick ties.
        const Tick when = eq.now() + rng.below(32);
        const int id = next_id++;
        const bool spawn = (id % 5 == 0);
        expected.emplace_back(when, id);
        auto cb = [&eq, &expected, &fired, &next_id, id, spawn] {
            fired.push_back(id);
            if (spawn) {
                // Child at the *current* tick: must run after every
                // event already queued for this tick.
                const int child = next_id++;
                expected.emplace_back(eq.now(), child);
                eq.scheduleIn(0,
                              [&fired, child] { fired.push_back(child); });
            }
        };
        if (id % 2 == 0)
            eq.schedule(when, cb);
        else
            eq.scheduleIn(when - eq.now(), cb);
        // Interleave scheduling with partial dispatch.
        if (id % 11 == 0)
            eq.runOne();
    }

    // Accounting mid-run: everything recorded is either fired or
    // still pending.
    EXPECT_EQ(eq.pending() + fired.size(), expected.size());
    EXPECT_EQ(eq.eventsExecuted(), fired.size());

    eq.runAll();

    EXPECT_EQ(eq.pending(), 0u);
    ASSERT_EQ(fired.size(), expected.size());
    EXPECT_EQ(eq.eventsExecuted(), fired.size());

    std::stable_sort(
        expected.begin(), expected.end(),
        [](const auto &a, const auto &b) { return a.first < b.first; });
    for (std::size_t i = 0; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], expected[i].second) << "position " << i;
}

/**
 * Deterministic replay: two queues fed the identical randomized
 * schedule/dispatch interleaving (including same-tick re-scheduling
 * from inside callbacks) must fire ids in the identical order.
 */
TEST(EventQueue, StressReplayIsDeterministic)
{
    auto drive = [](std::vector<int> &order) {
        Rng rng(0xabcdULL);
        EventQueue eq;
        int next_id = 0;
        for (int round = 0; round < 200; ++round) {
            // Burst of schedules at clustered ticks...
            const int burst = 1 + static_cast<int>(rng.below(8));
            for (int b = 0; b < burst; ++b) {
                const Tick d = rng.below(16);
                const int id = next_id++;
                eq.scheduleIn(d, [&order, &eq, id, d] {
                    order.push_back(id);
                    if (d % 3 == 0) {
                        // Re-schedule at the current tick.
                        eq.scheduleIn(0, [&order, id] {
                            order.push_back(-id);
                        });
                    }
                });
            }
            // ...interleaved with partial dispatch.
            for (std::uint64_t k = rng.below(4); k > 0; --k)
                eq.runOne();
        }
        eq.runAll();
        EXPECT_EQ(eq.pending(), 0u);
    };

    std::vector<int> a, b;
    drive(a);
    drive(b);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

/**
 * FIFO-within-tick across slot recycling: after the arena has been
 * through many occupy/release cycles, ties must still fire strictly
 * in scheduling order.
 */
TEST(EventQueue, TiesStayFifoAfterHeavyRecycling)
{
    EventQueue eq;
    // Churn the slot arena and the wheel buckets.
    for (int i = 0; i < 5000; ++i) {
        eq.scheduleIn(static_cast<Cycles>(i % 7), [] {});
        eq.runOne();
    }
    std::vector<int> order;
    const Tick t = eq.now() + 10;
    for (int i = 0; i < 100; ++i)
        eq.schedule(t, [&order, i] { order.push_back(i); });
    eq.runAll();
    ASSERT_EQ(order.size(), 100u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[i], i);
}

/**
 * Reference model for the timing wheel and its far heap.  The spec is
 * a single (tick, seq) order: schedule() takes the next non-negative
 * sequence number, scheduleFront() the next negative one counting
 * down.  Delays span four wheel turns, so events cross the wheel /
 * far-heap boundary in both directions; scheduleFront lands both
 * inside the wheel and in the far heap, several times at one far tick
 * (alongside normal events there) so migrated front events must keep
 * heap order; new events tie with pending ones wherever those wait;
 * runUntil jumps past the whole window while the wheel is
 * empty; and the clock runs many wheel turns, so bucket indices wrap.
 * Each callback checks, as it fires, that it is the model's earliest
 * event; pending() and nextEventTick() are checked after every step.
 */
TEST(EventQueue, WheelAndFarHeapMatchReferenceModel)
{
    constexpr Tick kW = EventQueue::kWheelTicks;
    struct Pending {
        Tick when;
        std::int64_t seq;
        int id;
    };
    Rng rng(0x77e1ULL);
    EventQueue eq;
    std::vector<Pending> model;
    std::int64_t next_seq = 0;
    std::int64_t front_seq = -1;
    int next_id = 0;
    std::uint64_t fired = 0;

    auto earliest = [&model] {
        return std::min_element(
            model.begin(), model.end(),
            [](const Pending &a, const Pending &b) {
                return a.when != b.when ? a.when < b.when : a.seq < b.seq;
            });
    };

    std::function<void(Tick, bool)> add;
    auto fire = [&](int id) {
        ASSERT_FALSE(model.empty());
        const auto it = earliest();
        ASSERT_EQ(it->id, id) << "fired out of (tick, seq) order";
        ASSERT_EQ(it->when, eq.now());
        model.erase(it);
        ++fired;
        ASSERT_EQ(eq.pending(), model.size());
        // Same-tick children: one behind and one ahead of the rest of
        // this tick's events.
        if (id % 7 == 0)
            add(eq.now(), false);
        if (id % 13 == 0)
            add(eq.now(), true);
    };
    add = [&](Tick when, bool front) {
        const int id = next_id++;
        model.push_back({when, front ? front_seq-- : next_seq++, id});
        if (front)
            eq.scheduleFront(when, [&fire, id] { fire(id); });
        else
            eq.schedule(when, [&fire, id] { fire(id); });
    };
    auto delay = [&rng, kW]() -> Tick {
        const std::uint64_t r = rng.below(10);
        if (r < 5)
            return rng.below(64);
        if (r < 8)
            return rng.below(kW);
        return kW + rng.below(3 * kW);
    };
    auto check = [&](int step) {
        ASSERT_EQ(eq.pending(), model.size()) << "step " << step;
        const Tick want = model.empty() ? kTickMax : earliest()->when;
        ASSERT_EQ(eq.nextEventTick(), want) << "step " << step;
    };

    for (int step = 0; step < 30000; ++step) {
        const std::uint64_t op = rng.below(100);
        if (op < 40) {
            add(eq.now() + delay(), false);
        } else if (op < 48) {
            add(eq.now() + delay(), true);
        } else if (op < 51) {
            // A far tick holding normal and front events, interleaved.
            const Tick t = eq.now() + kW + rng.below(2 * kW);
            for (int k = 0; k < 6; ++k)
                add(t, k % 2 == 1);
        } else if (op < 58) {
            // A tie with some pending event, wherever it now waits.
            if (!model.empty())
                add(model[rng.below(model.size())].when, rng.below(3) == 0);
        } else if (op < 90) {
            ASSERT_TRUE(eq.runOne() || model.empty());
        } else if (op < 97) {
            eq.runUntil(eq.now() + rng.below(kW / 2));
        } else if (op < 99) {
            // Leave only far events (or none), then jump past the
            // whole window while the wheel is empty.
            eq.runUntil(eq.now() + kW);
            if (rng.below(2) == 0)
                add(eq.now() + kW + rng.below(kW), rng.below(2) == 0);
            const Tick before = eq.now();
            eq.runUntil(before + 3 * kW + rng.below(kW));
            EXPECT_GE(eq.now(), before + 3 * kW);
        } else {
            eq.runAll();
        }
        if (HasFatalFailure())
            return;
        check(step);
        if (HasFatalFailure())
            return;
    }
    eq.runAll();
    check(-1);
    EXPECT_EQ(eq.eventsExecuted(), fired);
    EXPECT_EQ(fired, static_cast<std::uint64_t>(next_id));
    // The clock ran many wheel turns: bucket indices wrapped.
    EXPECT_GT(eq.now(), 50 * kW);
}

TEST(FcfsResource, UncontendedStartsImmediately)
{
    FcfsResource r;
    EXPECT_EQ(r.acquire(100, 10), 100u);
    EXPECT_EQ(r.nextFree(), 110u);
}

TEST(FcfsResource, BackToBackQueues)
{
    FcfsResource r;
    EXPECT_EQ(r.acquire(0, 10), 0u);
    EXPECT_EQ(r.acquire(0, 10), 10u);
    EXPECT_EQ(r.acquire(5, 10), 20u);
    EXPECT_EQ(r.busyCycles(), 30u);
    EXPECT_EQ(r.grants(), 3u);
}

TEST(FcfsResource, IdleGapThenService)
{
    FcfsResource r;
    r.acquire(0, 10);
    EXPECT_EQ(r.acquire(50, 5), 50u);
    EXPECT_EQ(r.nextFree(), 55u);
}

} // namespace
} // namespace prism
