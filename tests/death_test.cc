/**
 * @file
 * Death tests: internal-invariant violations must panic loudly
 * (gem5-style panic = abort), and user errors must be caught.
 */

#include <gtest/gtest.h>

#include "coherence/directory.hh"
#include "coherence/msg.hh"
#include "coherence/pit.hh"
#include "core/machine.hh"
#include "core/sync.hh"
#include "os/frame_pool.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

TEST(Death, SchedulingInThePastPanics)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            eq.schedule(10, [] {});
            eq.runOne();
            eq.schedule(5, [] {});
        },
        "scheduled in the past");
}

TEST(Death, ReleasingUnheldLockPanics)
{
    EXPECT_DEATH(
        {
            LockManager lm(1, 1);
            lm.applyRelease(42, 0, [](const SyncWaiter &, Tick) {});
        },
        "unheld lock");
}

TEST(Death, GlobalArenaExhaustionPanics)
{
    EXPECT_DEATH(
        {
            MachineConfig cfg;
            cfg.numNodes = 2;
            cfg.procsPerNode = 1;
            Machine m(cfg);
            GlobalArena arena(m, 1, 2 * kPageBytes);
            arena.alloc(kPageBytes);
            arena.alloc(kPageBytes);
            arena.alloc(1); // over the segment size
        },
        "arena exhausted");
}

TEST(Death, EmptyCoTaskStartPanics)
{
    EXPECT_DEATH(
        {
            CoTask t;
            t.start();
        },
        "empty CoTask");
}

#ifdef PRISM_ASAN
/** Stores the awaiting coroutine's handle and suspends. */
struct GrabHandle {
    std::coroutine_handle<> *out;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept { *out = h; }
    void await_resume() const noexcept {}
};

CoTask
suspendOnce(std::coroutine_handle<> *out)
{
    co_await GrabHandle{out};
}
#endif

/**
 * Coroutine frames are recycled, not freed; under AddressSanitizer a
 * cached frame is poisoned, so resuming a destroyed coroutine must
 * still be reported.
 */
TEST(Death, ResumingDestroyedCoTaskIsReportedUnderAsan)
{
#ifndef PRISM_ASAN
    GTEST_SKIP() << "needs -DPRISM_SANITIZE=address";
#else
    EXPECT_DEATH(
        {
            std::coroutine_handle<> h;
            {
                CoTask t = suspendOnce(&h);
                t.start();
            }
            h.resume();
        },
        "AddressSanitizer: (use-after-poison|heap-use-after-free)");
#endif
}

TEST(Death, FramePoolDoubleReleasePanics)
{
    EXPECT_DEATH(
        {
            FramePool p(0);
            p.release(0); // nothing was allocated
        },
        "empty pool");
}

TEST(Death, PitDoubleInstallPanics)
{
    EXPECT_DEATH(
        {
            Pit pit(1, 1);
            pit.installLocal(3, 64);
            pit.installLocal(3, 64); // frame 3 is already mapped
        },
        "PIT entry already present");
}

TEST(Death, PitAbsentRemovePanics)
{
    EXPECT_DEATH(
        {
            Pit pit(1, 1);
            pit.remove(7); // never installed
        },
        "removing absent PIT entry");
}

TEST(Death, PitRealFrameInImaginaryRangePanics)
{
    EXPECT_DEATH(
        {
            Pit pit(1, 1);
            pit.install(kImaginaryFrameBase + 2, 0x100, 0, 0, 0,
                        PageMode::Scoma, 64, FgTag::Invalid);
        },
        "real \\(s-coma\\) frame 16777218 is at or above the imaginary "
        "frame base 16777216");
}

/**
 * A removed PIT slot is poisoned under AddressSanitizer, so reading an
 * entry through a reference held across its removal is reported even
 * when another frame's entry was installed meanwhile (a LA-NUMA
 * mapping retired for a migrated-in home page).
 */
TEST(Death, StalePitEntryAfterRemoveIsReportedUnderAsan)
{
#ifndef PRISM_ASAN
    GTEST_SKIP() << "needs -DPRISM_SANITIZE=address";
#else
    EXPECT_DEATH(
        {
            Pit pit(1, 1);
            const FrameNum imag = kImaginaryFrameBase + 1;
            PitEntry &stale = pit.install(imag, 0x100, 0, 1, 5,
                                          PageMode::LaNuma, 64,
                                          FgTag::Invalid);
            pit.remove(imag);
            pit.install(5, 0x100, 0, 0, 5, PageMode::Scoma, 64,
                        FgTag::Exclusive);
            volatile NodeId home = stale.dynHome;
            (void)home;
        },
        "AddressSanitizer: use-after-poison");
#endif
}

TEST(Death, SecondBusTransactionFromOneProcPanics)
{
    // A processor stalls on its miss, so the node's bus MSHR keeps one
    // slot per processor; a second transaction from one must panic
    // rather than overwrite the first's slot.
    EXPECT_DEATH(
        {
            MachineConfig cfg;
            cfg.numNodes = 1;
            cfg.procsPerNode = 2;
            Machine m(cfg);
            Node &node = m.node(0);
            CoTask a = node.memAccess(node.proc(1), 0, 0, false,
                                      Mesi::Invalid);
            CoTask b = node.memAccess(node.proc(1), 0, 1, false,
                                      Mesi::Invalid);
            a.start(); // holds its slot through the address phase
            b.start();
        },
        "proc 1 starts a bus transaction with one in flight");
}

TEST(Death, PitRecencyDoubleLinkPanics)
{
    EXPECT_DEATH(
        {
            Pit pit(1, 1);
            PitEntry &e = pit.install(3, 0x100, 0, 1, 0, PageMode::Scoma,
                                      64, FgTag::Invalid);
            pit.linkRecency(e);
            pit.linkRecency(e); // frame 3 is already linked
        },
        "already in the recency list");
}

TEST(Death, PitRecencyUnlinkUnlinkedPanics)
{
    EXPECT_DEATH(
        {
            Pit pit(1, 1);
            PitEntry &e = pit.install(3, 0x100, 0, 1, 0, PageMode::Scoma,
                                      64, FgTag::Invalid);
            pit.linkRecency(e);
            pit.unlinkRecency(e);
            pit.unlinkRecency(e); // no longer linked
        },
        "not in the recency list");
}

TEST(Death, PitRecencyTouchBackInTimePanics)
{
    EXPECT_DEATH(
        {
            Pit pit(1, 1);
            PitEntry &a = pit.install(3, 0x100, 0, 1, 0, PageMode::Scoma,
                                      64, FgTag::Invalid);
            PitEntry &b = pit.install(4, 0x200, 0, 1, 0, PageMode::Scoma,
                                      64, FgTag::Invalid);
            pit.linkRecency(a);
            pit.linkRecency(b);
            pit.touch(a, 10);
            pit.touch(b, 5); // the node's clock never goes back
        },
        "before the newest");
}

TEST(Death, DirectoryAdoptPresentPagePanics)
{
    EXPECT_DEATH(
        {
            Directory dir(8, 2, 22, 64, 8);
            dir.createPage(0x42, DirState::Uncached, kInvalidNode);
            dir.adoptPage(0x42, std::vector<DirEntry>(64));
        },
        "adopting an already-present page");
}

TEST(Death, DirectoryReleaseAbsentPagePanics)
{
    EXPECT_DEATH(
        {
            Directory dir(8, 2, 22, 64, 8);
            dir.releasePage(0x42); // never created
        },
        "releasing an absent page");
}

TEST(Death, RegistryPointingAtSelfPanics)
{
    // A static home whose registry names itself as dynamic home while
    // its directory lacks the page would forward the request back to
    // itself forever; the controller must panic instead.
    EXPECT_DEATH(
        {
            MachineConfig cfg;
            cfg.numNodes = 1;
            cfg.procsPerNode = 1;
            Machine m(cfg);
            const std::uint64_t gsid = m.shmget(1, kPageBytes);
            m.shmatAll(kSharedVsid, gsid);
            const GPage gp = gsid << kPageNumBits;
            auto &ctrl = m.node(0).controller();
            ctrl.installHomeMapping(1, gp); // registry names self
            ctrl.directory().removePage(gp);
            Msg req;
            req.type = MsgType::ReqS;
            req.src = 0;
            req.dst = 0;
            req.requester = 0;
            req.gpage = gp;
            req.lineIdx = 0;
            ctrl.onMessage(std::move(req));
            m.eventQueue().runAll();
        },
        "registry points at");
}

TEST(Death, PageOfUnboundSegmentPanics)
{
    // A page record lookup must name the segment it could not find
    // rather than read past the per-segment index.
    EXPECT_DEATH(
        {
            MachineConfig cfg;
            cfg.numNodes = 2;
            cfg.procsPerNode = 1;
            Machine m(cfg);
            const std::uint64_t gsid = m.shmget(1, kPageBytes);
            m.shmatAll(kSharedVsid, gsid);
            m.node(0).controller().registryLookup((gsid + 1)
                                                  << kPageNumBits);
        },
        "gpage 0x2000000: segment gsid 2 is not bound");
}

TEST(Death, PagePastSegmentEndPanics)
{
    EXPECT_DEATH(
        {
            MachineConfig cfg;
            cfg.numNodes = 2;
            cfg.procsPerNode = 1;
            Machine m(cfg);
            const std::uint64_t gsid = m.shmget(1, 3 * kPageBytes);
            m.shmatAll(kSharedVsid, gsid);
            m.node(1).controller().registryLookup((gsid << kPageNumBits) |
                                                  3);
        },
        "gpage 0x1000003: page 3 is past the 3 pages of segment gsid 1");
}

TEST(Death, TooManyNodesIsFatal)
{
    // The fatal must name the limit and where it lives so the user
    // can find the knob instead of guessing.
    EXPECT_DEATH(
        {
            MachineConfig cfg;
            cfg.numNodes = kMaxNodes + 1;
            Machine m(cfg);
        },
        "kMaxNodes");
}

TEST(Death, ZeroProcsPerNodeIsFatal)
{
    EXPECT_DEATH(
        {
            MachineConfig cfg;
            cfg.procsPerNode = 0;
            Machine m(cfg);
        },
        "procsPerNode");
}

TEST(Death, TooManyProcsIsFatal)
{
    EXPECT_DEATH(
        {
            MachineConfig cfg;
            cfg.numNodes = 1024;
            cfg.procsPerNode = 512; // 512K procs > kMaxProcs
            Machine m(cfg);
        },
        "processor");
}

} // namespace
} // namespace prism
