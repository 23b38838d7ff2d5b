/**
 * @file
 * Verifies the event hot path performs zero heap allocations.
 *
 * - Event queue: InlineCallback exists so that scheduling and
 *   dispatching events never calls operator new, for every capture
 *   size used in src/ (the largest is Machine::route's 24-byte
 *   delivery closure; tests and benches go up to 40 bytes).
 * - Coroutine frames: CoTask and FireAndForget frames come from
 *   CoroFrameCache, so once warm, creating, running and destroying
 *   coroutines allocates nothing either; frames freed on another
 *   thread are reclaimed, and oversize frames fall through to
 *   operator new.
 *
 * Global operator new/delete are replaced with counting versions, and
 * the hot loops are run after the queue's up-front reserve so vector
 * growth cannot contribute.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>

#include "sim/event_queue.hh"
#include "sim/task.hh"

namespace {

std::atomic<std::uint64_t> g_news{0};

} // namespace

void *
operator new(std::size_t n)
{
    ++g_news;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    ++g_news;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace prism {
namespace {

static_assert(EventQueue::Callback::kCapacity >= 40,
              "the capture sizes exercised below must stay inline");

TEST(EventQueueAlloc, ScheduleDispatchAllocatesNothing)
{
    EventQueue eq;
    std::uint64_t sink = 0;

    // Capture shapes used across src/: a coroutine handle (8B), the
    // route() delivery closure (24B), and padded variants up to 40B.
    struct Cap16 {
        std::uint64_t *p;
        std::uint64_t a;
    };
    struct Cap24 {
        std::uint64_t *p;
        std::uint64_t a, b;
    };
    struct Cap40 {
        std::uint64_t *p;
        std::uint64_t a, b, c, d;
    };
    Cap16 c16{&sink, 1};
    Cap24 c24{&sink, 1, 2};
    Cap40 c40{&sink, 1, 2, 3, 4};

    const std::uint64_t before = g_news.load();
    for (int i = 0; i < 10000; ++i) {
        eq.scheduleIn(1, [&sink] { ++sink; });
        eq.scheduleIn(2, [c16] { *c16.p += c16.a; });
        eq.scheduleIn(3, [c24] { *c24.p += c24.a + c24.b; });
        eq.scheduleIn(4, [c40] { *c40.p += c40.a + c40.d; });
        while (eq.runOne()) {
        }
    }
    EXPECT_EQ(g_news.load(), before)
        << "event scheduling/dispatch must not allocate";
    EXPECT_GT(sink, 0u);
}

TEST(EventQueueAlloc, StandingPopulationWithinReserveAllocatesNothing)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    // Warm the arena/heap up to a standing population once...
    for (int i = 0; i < 512; ++i)
        eq.scheduleIn(1 + static_cast<Cycles>(i % 97),
                      [&sink] { ++sink; });
    const std::uint64_t before = g_news.load();
    // ...then steady-state churn with the population held.
    for (int i = 0; i < 20000; ++i) {
        eq.scheduleIn(1 + static_cast<Cycles>(i % 97),
                      [&sink] { ++sink; });
        eq.runOne();
    }
    EXPECT_EQ(g_news.load(), before);
    eq.runAll();
    EXPECT_EQ(eq.pending(), 0u);
}

// --- Coroutine frames ---------------------------------------------------

/** A leaf awaited by midTask: the smallest frame. */
CoTask
leafTask(EventQueue &eq, std::uint64_t &sink)
{
    co_await DelayAwaiter(eq, 1);
    ++sink;
}

/** Keeps a few hundred bytes live across its awaits. */
CoTask
midTask(EventQueue &eq, std::uint64_t &sink)
{
    std::array<std::uint64_t, 40> live{};
    live[sink % live.size()] = sink;
    co_await leafTask(eq, sink);
    co_await DelayAwaiter(eq, 3);
    sink += live[sink % live.size()];
}

/** A self-destroying handler whose frame is over a kilobyte. */
FireAndForget
bigHandler(EventQueue &eq, std::uint64_t &sink)
{
    std::array<std::uint64_t, 160> live{};
    live[sink % live.size()] = sink;
    co_await DelayAwaiter(eq, 2);
    sink += live[sink % live.size()] + 1;
}

/** A frame larger than CoroFrameCache::kMaxFrameBytes. */
CoTask
oversizeTask(std::uint64_t &sink)
{
    std::array<std::uint64_t, 2 * CoroFrameCache::kMaxFrameBytes / 8> live{};
    live[sink % live.size()] = sink;
    co_await std::suspend_always{};
    sink += live[sink % live.size()];
}

/** Runs without suspending: one frame created and destroyed. */
CoTask
bump(std::uint64_t &sink)
{
    ++sink;
    co_return;
}

TEST(CoroFrameCache, WarmCreateRunDestroyAllocatesNothing)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    auto cycle = [&] {
        CoTask root = midTask(eq, sink);
        root.start();
        bigHandler(eq, sink);
        eq.runAll();
        EXPECT_TRUE(root.done());
    };
    for (int i = 0; i < 4; ++i)
        cycle();
    const std::uint64_t before = g_news.load();
    for (int i = 0; i < 10000; ++i)
        cycle();
    EXPECT_EQ(g_news.load(), before)
        << "warm coroutine frames must come from the cache";
    EXPECT_GT(sink, 0u);
}

TEST(CoroFrameCache, FrameFreedOnAnotherThreadIsReclaimed)
{
    std::uint64_t sink = 0;
    CoTask made;
    std::thread maker([&] { made = bump(sink); });
    maker.join();

    bool reused = false;
    std::thread other([&] {
        // Constructed before this thread's first cached free, so it is
        // destroyed after the exit drain: its frame must then go
        // straight to operator delete.
        static thread_local CoTask late;
        const std::uint64_t before = g_news.load();
        made = CoTask{}; // a frame from `maker`, freed here
        CoTask again = bump(sink);
        reused = g_news.load() == before;
        again.start();
        late = bump(sink);
        late.start();
    });
    other.join();
    EXPECT_TRUE(reused) << "the freed frame should serve the next "
                           "same-size frame on the freeing thread";
    EXPECT_EQ(sink, 2u);
}

TEST(CoroFrameCache, OversizeFrameFallsThroughToOperatorNew)
{
    std::uint64_t sink = 1;
    for (int i = 0; i < 3; ++i) {
        const std::uint64_t before = g_news.load();
        CoTask t = oversizeTask(sink);
        t.start();
        EXPECT_EQ(g_news.load(), before + 1)
            << "an oversize frame is never cached";
    }
}

} // namespace
} // namespace prism
