/**
 * @file
 * Unit tests for the lock and barrier cost models, driven through
 * their apply calls with a grant that resumes each waiter in its own
 * queue (as Machine::applySync does).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/sync.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"

namespace prism {
namespace {

void
grant(const SyncWaiter &w, Tick at)
{
    w.q->schedule(at, [h = w.h] { h.resume(); });
}

/** co_await Acquire{lm, eq, id}: applyAcquire at the current tick. */
struct Acquire {
    LockManager &lm;
    EventQueue &eq;
    std::uint64_t id;

    bool await_ready() const { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        lm.applyAcquire(id, SyncWaiter{h, &eq}, eq.now(), grant);
    }

    void await_resume() const {}
};

void
release(LockManager &lm, EventQueue &eq, std::uint64_t id)
{
    lm.applyRelease(id, eq.now(), grant);
}

/** co_await Arrive{bm, eq, id}: suspends only if applyArrive says so. */
struct Arrive {
    BarrierManager &bm;
    EventQueue &eq;
    std::uint64_t id;

    bool await_ready() const { return false; }

    bool
    await_suspend(std::coroutine_handle<> h)
    {
        return bm.applyArrive(id, SyncWaiter{h, &eq}, eq.now(), grant);
    }

    void await_resume() const {}
};

TEST(LockManager, UncontendedAcquireChargesRoundTrip)
{
    EventQueue eq;
    LockManager lm(300, 140);
    Tick acquired = 0;
    auto w = [&]() -> FireAndForget {
        co_await Acquire{lm, eq, 7};
        acquired = eq.now();
        release(lm, eq, 7);
    };
    w();
    eq.runAll();
    EXPECT_EQ(acquired, 300u);
    EXPECT_EQ(lm.acquires(), 1u);
    EXPECT_EQ(lm.contended(), 0u);
}

TEST(LockManager, ContendedFifoHandoff)
{
    EventQueue eq;
    LockManager lm(300, 140);
    std::vector<std::pair<int, Tick>> log;
    auto w = [&](int id, Cycles hold) -> FireAndForget {
        co_await Acquire{lm, eq, 1};
        co_await DelayAwaiter(eq, hold);
        log.emplace_back(id, eq.now());
        release(lm, eq, 1);
    };
    w(1, 50);
    w(2, 50);
    w(3, 50);
    eq.runAll();
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0].first, 1);
    EXPECT_EQ(log[0].second, 350u); // 300 acquire + 50 hold
    EXPECT_EQ(log[1].first, 2);
    EXPECT_EQ(log[1].second, 540u); // +140 handoff + 50 hold
    EXPECT_EQ(log[2].first, 3);
    EXPECT_EQ(log[2].second, 730u);
    EXPECT_EQ(lm.contended(), 2u);
}

TEST(LockManager, IndependentLockIds)
{
    EventQueue eq;
    LockManager lm(10, 5);
    int running = 0, max_running = 0;
    auto w = [&](std::uint64_t id) -> FireAndForget {
        co_await Acquire{lm, eq, id};
        ++running;
        max_running = std::max(max_running, running);
        co_await DelayAwaiter(eq, 100);
        --running;
        release(lm, eq, id);
    };
    w(1);
    w(2);
    w(3);
    eq.runAll();
    EXPECT_EQ(max_running, 3); // no false contention
}

TEST(BarrierManager, ReleasesAllTogether)
{
    EventQueue eq;
    BarrierManager bm(3, 400);
    std::vector<Tick> out;
    auto w = [&](Cycles arrive_at) -> FireAndForget {
        co_await DelayAwaiter(eq, arrive_at);
        co_await Arrive{bm, eq, 0};
        out.push_back(eq.now());
    };
    w(10);
    w(200);
    w(35);
    eq.runAll();
    ASSERT_EQ(out.size(), 3u);
    // Everyone leaves at the last arrival plus the barrier cost.
    for (Tick t : out)
        EXPECT_EQ(t, 600u);
    EXPECT_EQ(bm.episodes(), 1u);
}

TEST(BarrierManager, EpisodesAutoAdvanceOnSameId)
{
    EventQueue eq;
    BarrierManager bm(2, 10);
    int rounds_done = 0;
    auto w = [&]() -> FireAndForget {
        for (int r = 0; r < 5; ++r)
            co_await Arrive{bm, eq, 0};
        ++rounds_done;
    };
    w();
    w();
    eq.runAll();
    EXPECT_EQ(rounds_done, 2);
    EXPECT_EQ(bm.episodes(), 5u);
}

TEST(BarrierManager, SingleParticipantPassesThrough)
{
    EventQueue eq;
    BarrierManager bm(1, 10);
    bool done = false;
    auto w = [&]() -> FireAndForget {
        co_await Arrive{bm, eq, 3};
        done = true;
    };
    w();
    // No suspension, no cost, no episode: done before the queue runs.
    EXPECT_TRUE(done);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(bm.episodes(), 0u);
}

} // namespace
} // namespace prism
