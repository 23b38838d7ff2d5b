/**
 * @file
 * Processor-model tests: fast-path cache behaviour, intra-node
 * cache-to-cache transfers, local upgrades, and run-ahead bounding.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

constexpr std::uint64_t kKey = 0x9C;

struct Rig {
    Rig() : m(makeCfg())
    {
        gsid = m.shmget(kKey, 16 * kPageBytes);
        m.shmatAll(kSharedVsid, gsid);
    }

    static MachineConfig
    makeCfg()
    {
        MachineConfig cfg;
        cfg.numNodes = 2;
        cfg.procsPerNode = 4;
        return cfg;
    }

    VAddr
    va(std::uint64_t pnum, std::uint64_t off = 0) const
    {
        return makeVAddr(kSharedVsid, pnum, off);
    }

    Machine m;
    std::uint64_t gsid = 0;
};

TEST(Proc, FastPathHitsGenerateNoEvents)
{
    Rig rig;
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() != 0)
                co_return;
            co_await pp.write(r.va(0)); // fault + miss
            const std::uint64_t events_before =
                r.m.eventQueue().eventsExecuted();
            // 100 L1 hits: pure local accounting.
            for (int i = 0; i < 100; ++i)
                co_await pp.read(r.va(0));
            EXPECT_EQ(r.m.eventQueue().eventsExecuted(), events_before);
            EXPECT_GE(pp.stats().l1Hits, 100u);
        }(p, rig);
    });
}

TEST(Proc, WriteToExclusiveIsSilent)
{
    Rig rig;
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() != 0)
                co_return;
            co_await pp.read(r.va(0)); // E grant at home
            const std::uint64_t misses = pp.stats().l2Misses;
            co_await pp.write(r.va(0)); // E -> M, no bus activity
            EXPECT_EQ(pp.stats().l2Misses, misses);
            EXPECT_EQ(pp.l1().lookup((pp.tlb().lookup(r.va(0).page())
                                      << kPageShift)),
                      Mesi::Modified);
        }(p, rig);
    });
}

TEST(Proc, PeerSupplyWithinNode)
{
    Rig rig;
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            // Proc 0 dirties a line; proc 1 (same node) reads it.
            if (pp.id() == 0)
                co_await pp.write(r.va(0));
            co_await pp.barrier(1);
            if (pp.id() == 1) {
                const std::uint64_t remote_before =
                    r.m.node(0).controller().stats().remoteMisses;
                co_await pp.read(r.va(0));
                // Served by the peer cache, not the network.
                EXPECT_EQ(
                    r.m.node(0).controller().stats().remoteMisses,
                    remote_before);
                FrameNum f = pp.tlb().lookup(r.va(0).page());
                EXPECT_EQ(pp.l2().lookup(f << kPageShift),
                          Mesi::Shared);
            }
        }(p, rig);
    });
    // Both copies are now Shared (M was downgraded).
    Proc &p0 = rig.m.node(0).proc(0);
    FrameNum f = p0.tlb().lookup(rig.va(0).page());
    ASSERT_NE(f, kInvalidFrame);
    EXPECT_EQ(p0.l2().lookup(f << kPageShift), Mesi::Shared);
}

TEST(Proc, WriteTakesPeerCopyWithinNode)
{
    Rig rig;
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 0)
                co_await pp.write(r.va(0));
            co_await pp.barrier(1);
            if (pp.id() == 1)
                co_await pp.write(r.va(0)); // c2c + invalidate peer
        }(p, rig);
    });
    Proc &p0 = rig.m.node(0).proc(0);
    Proc &p1 = rig.m.node(0).proc(1);
    FrameNum f = p1.tlb().lookup(rig.va(0).page());
    ASSERT_NE(f, kInvalidFrame);
    EXPECT_EQ(p1.l2().lookup(f << kPageShift), Mesi::Modified);
    EXPECT_EQ(p0.l2().lookup(f << kPageShift), Mesi::Invalid);
}

TEST(Proc, SecondMissToALineRetriesUntilTheFirstFills)
{
    Rig rig;
    // Map page 0 on node 1 and fill its line 0 only.
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 4)
                co_await pp.read(r.va(0));
        }(p, rig);
    });
    Node &node = rig.m.node(1);
    const Pte *pte = node.kernel().pageTable().lookup(rig.va(0).page());
    ASSERT_NE(pte, nullptr);
    const FrameNum f = pte->frame;
    const std::uint64_t line1 = (f << kPageShift) | rig.m.config().lineBytes;
    Proc &first = node.proc(0);
    Proc &second = node.proc(1);
    ASSERT_EQ(first.lineState(line1), Mesi::Invalid);
    EXPECT_FALSE(node.anyBusPending(f));

    // Both processors miss line 1; the second retries on the bus
    // until the first's transaction has filled.
    CoTask a = node.memAccess(first, f, 1, false, Mesi::Invalid);
    CoTask b = node.memAccess(second, f, 1, false, Mesi::Invalid);
    a.start();
    b.start();
    EventQueue &eq = rig.m.eventQueue();
    while (!a.done()) {
        EXPECT_TRUE(node.anyBusPending(f));
        EXPECT_FALSE(b.done());
        ASSERT_TRUE(eq.runOne());
    }
    EXPECT_NE(first.lineState(line1), Mesi::Invalid);
    EXPECT_EQ(second.lineState(line1), Mesi::Invalid);
    EXPECT_FALSE(b.done());
    while (!b.done())
        ASSERT_TRUE(eq.runOne());
    EXPECT_NE(second.lineState(line1), Mesi::Invalid);
    EXPECT_FALSE(node.anyBusPending(f));
}

TEST(Proc, RunAheadIsBounded)
{
    Rig rig;
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() != 0)
                co_return;
            co_await pp.write(r.va(0));
            // A long pure-compute stretch must not let local time run
            // arbitrarily far ahead of the global clock.
            for (int i = 0; i < 100; ++i) {
                pp.compute(100);
                co_await pp.read(r.va(0)); // L1 hits
            }
            EXPECT_LE(pp.pendingCycles(),
                      r.m.config().runAheadQuantum + 200);
        }(p, rig);
    });
}

// On a 1x1 machine a barrier has no one to wait for: barrier()
// returns without suspending and charges no cycles.
TEST(Proc, LoneBarrierPassesThrough)
{
    MachineConfig cfg;
    cfg.numNodes = 1;
    cfg.procsPerNode = 1;
    Machine m(cfg);
    bool checked = false;
    m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Machine &mm, bool &ok) -> CoTask {
            const Tick t0 = pp.localNow();
            const std::uint64_t events = mm.eventQueue().eventsExecuted();
            co_await pp.barrier(0);
            EXPECT_EQ(pp.localNow(), t0);
            EXPECT_EQ(mm.eventQueue().eventsExecuted(), events);
            ok = true;
        }(p, m, checked);
    });
    EXPECT_TRUE(checked);
}

TEST(Proc, ComputeAccumulatesStats)
{
    Rig rig;
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp) -> CoTask {
            pp.compute(123);
            pp.compute(77);
            co_return;
        }(p);
    });
    EXPECT_EQ(rig.m.node(0).proc(0).stats().computeCycles, 200u);
}

TEST(Proc, LoadsAndStoresCounted)
{
    Rig rig;
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() != 0)
                co_return;
            for (int i = 0; i < 10; ++i)
                co_await pp.read(r.va(0, i * 8));
            for (int i = 0; i < 7; ++i)
                co_await pp.write(r.va(0, i * 8));
        }(p, rig);
    });
    const ProcStats &s = rig.m.node(0).proc(0).stats();
    EXPECT_EQ(s.loads, 10u);
    EXPECT_EQ(s.stores, 7u);
    EXPECT_EQ(s.pageFaults, 1u);
}

} // namespace
} // namespace prism
