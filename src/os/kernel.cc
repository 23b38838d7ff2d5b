#include "os/kernel.hh"

#include <algorithm>
#include <utility>

#include "obs/trace_sink.hh"
#include "policy/page_policy.hh"
#include "sim/stats.hh"

namespace prism {

Kernel::Kernel(NodeId self, const MachineConfig &cfg, EventQueue &eq,
               IpcServer &ipc, NodeHost &host)
    : self_(self), cfg_(cfg), eq_(eq), ipc_(ipc), host_(host)
{
}

void
Kernel::send(Msg &&m)
{
    m.src = self_;
    host_.send(std::move(m));
}

CoMutex &
Kernel::privateLock(VPage vp)
{
    return pLocks_.try_emplace(vp, eq_).first->second;
}

bool
Kernel::pageBusy(GPage gp) const
{
    const PageRec *r = findRec(gp);
    return r && r->lock.held();
}

// ---------------------------------------------------------------------
// Global naming and binding
// ---------------------------------------------------------------------

void
Kernel::bindSegment(std::uint64_t vsid, std::uint64_t gsid)
{
    prism_assert(ipc_.segment(gsid) != nullptr,
                 "binding to a non-existent global segment");
    vsidToGsid_[vsid] = gsid;
    gsidToVsid_[gsid] = vsid;
    ipc_.shmatAttach(gsid);
    ctrl_->pages().attach(gsid, ipc_.segment(gsid)->pages);
}

bool
Kernel::globalPageOf(VPage vp, GPage *gp) const
{
    const std::uint64_t vsid = vp >> kPageNumBits;
    auto it = vsidToGsid_.find(vsid);
    if (it == vsidToGsid_.end())
        return false;
    const std::uint64_t pnum = vp & ((1ULL << kPageNumBits) - 1);
    *gp = (it->second << kPageNumBits) | pnum;
    return true;
}

VPage
Kernel::vpageOf(GPage gp) const
{
    const std::uint64_t gsid = gp >> kPageNumBits;
    auto it = gsidToVsid_.find(gsid);
    prism_assert(it != gsidToVsid_.end(), "vpageOf on unbound segment");
    const std::uint64_t pnum = gp & ((1ULL << kPageNumBits) - 1);
    return (it->second << kPageNumBits) | pnum;
}

NodeId
Kernel::homeRoute(GPage gp) const
{
    if (ctrl_->isDynHome(gp))
        return kInvalidNode;
    if (cfg_.staticHomeOf(gp) != self_)
        return cfg_.staticHomeOf(gp);
    // Static home: the registry names where the page migrated; with no
    // entry (first mapping or paged out) this node becomes the home.
    const NodeId reg = ctrl_->registryLookup(gp);
    return reg == self_ ? kInvalidNode : reg;
}

// ---------------------------------------------------------------------
// Fault path
// ---------------------------------------------------------------------

CoTask
Kernel::handleFault(VPage vp, FrameNum *out_frame)
{
    ++stats_.faults;
    eq_.snapNote(SnapKind::Fault);
    GPage gp = kInvalidGPage;
    const bool global = globalPageOf(vp, &gp);

    CoMutex &lk = global ? rec(gp).lock : privateLock(vp);
    co_await lk.acquire();
    // Another local processor may have completed the fault meanwhile.
    if (const Pte *pte = pt_.lookup(vp)) {
        *out_frame = pte->frame;
        lk.release();
        co_return;
    }

    co_await delay(cfg_.faultKernelCycles);

    if (!global) {
        FrameNum f = realPool_.alloc();
        prism_assert(f != kInvalidFrame, "out of private frames");
        ctrl_->installLocalMapping(f);
        co_await delay(cfg_.pitCommandCycles);
        pt_.map(vp, f, PageMode::Local);
        *out_frame = f;
        ++stats_.faultsPrivate;
        lk.release();
        co_return;
    }

    // Am I (still) the page's dynamic home, or should I become it?
    const NodeId home = homeRoute(gp);
    if (home == kInvalidNode) {
        co_await homeMapIn(gp);
        FrameNum hf = ctrl_->pit().frameOf(gp);
        prism_assert(hf != kInvalidFrame, "home map-in left no frame");
        co_await delay(cfg_.pitCommandCycles);
        pt_.map(vp, hf, PageMode::Scoma);
        *out_frame = hf;
        ++stats_.faultsHome;
        lk.release();
        co_return;
    }

    // ----- Client fault -------------------------------------------------
    PageRec &r = rec(gp);
    if (!r.cachedHome) {
        // Ensure the page is paged-in at home and learn the home frame.
        const Tick pi0 = eq_.now();
        CoEvent replied(eq_);
        r.pageIn = &replied;
        send(Msg{.type = MsgType::PageInReq, .dst = home, .gpage = gp});
        co_await replied.wait();
        r.pageIn = nullptr;
        r.cachedHome = true;
        latency_.pageIn.sample(eq_.now() - pi0);
        if (trace_) {
            trace_->span("pageIn", "paging",
                         static_cast<std::int32_t>(self_), 0, pi0,
                         eq_.now());
        }
    } else {
        // Home-page-status flag is set: no page-in request needed.
        ++stats_.faultsCachedHome;
    }
    // Read the flag's home now: the policy below may suspend, and the
    // flag may be reset meanwhile.
    const NodeId dyn_home = r.cachedDynHome;
    const FrameNum home_frame = r.cachedHomeFrame;

    PageMode mode = PageMode::Scoma;
    co_await chooseClientMode(*this, gp, &mode);

    FrameNum f;
    if (mode == PageMode::Scoma) {
        f = realPool_.alloc();
        prism_assert(f != kInvalidFrame, "out of real frames");
    } else {
        f = imagPool_.alloc();
        laNumaMapped_.push_back(gp);
    }

    PitEntry &e = ctrl_->installClientMapping(
        f, gp, cfg_.staticHomeOf(gp), dyn_home, home_frame, mode);
    if (mode == PageMode::Scoma) {
        ctrl_->pit().linkRecency(e);
        clientScomaPeak_ = std::max(clientScomaPeak_, clientScomaCount());
    }
    co_await delay(cfg_.pitCommandCycles);
    pt_.map(vp, f, mode);
    *out_frame = f;
    ++stats_.faultsClient;
    lk.release();
}

CoTask
Kernel::homeMapIn(GPage gp)
{
    if (ctrl_->isDynHome(gp))
        co_return;
    FrameNum f = realPool_.alloc();
    prism_assert(f != kInvalidFrame, "out of frames for home page");
    PageRec &r = rec(gp);
    if (r.home && r.home->onDisk) {
        co_await delay(cfg_.diskLatency);
        r.home->onDisk = false;
    }
    ctrl_->installHomeMapping(f, gp);
}

// ---------------------------------------------------------------------
// Page-outs
// ---------------------------------------------------------------------

void
Kernel::archiveUtilization(FrameNum f)
{
    if (f >= kImaginaryFrameBase)
        return; // imaginary frames consume no memory
    const PitEntry *e = ctrl_->pit().entry(f);
    if (!e || !e->accessed)
        return;
    utilArchivedLines_ += e->accessed->popcount();
    ++utilArchivedFrames_;
}

CoTask
Kernel::pageOutClient(GPage gp, bool convert_to_lanuma)
{
    const Tick t0 = eq_.now();
    CoMutex &lk = rec(gp).lock;
    co_await lk.acquire();

    FrameNum f = ctrl_->pit().frameOf(gp);
    if (f == kInvalidFrame) {
        lk.release();
        co_return; // already paged out
    }
    if (ctrl_->isDynHome(gp)) {
        // The page migrated TO us while it was being selected as a
        // victim: our client frame was promoted to the home frame.
        // Home frames are never client-paged-out.
        lk.release();
        co_return;
    }
    PitEntry *e = ctrl_->pit().entry(f);
    prism_assert(e->mode != PageMode::Local, "pageOutClient on local page");
    const PageMode mode = e->mode;
    const NodeId dyn_home = e->dynHome;

    // Unmap and shoot down local TLBs (node-local only).
    VPage vp = vpageOf(gp);
    pt_.unmap(vp);
    host_.shootdownTlb(vp);
    co_await delay(static_cast<Cycles>(cfg_.tlbShootdownCycles) *
                   cfg_.procsPerNode);

    // Flush: write modified lines back to the home.  A stale
    // translation may still start an access while we flush, so loop
    // until the page is verifiably quiet, then remove the mapping in
    // the same event — after that, late accesses bounce (BadFrame)
    // and re-fault.
    for (;;) {
        co_await ctrl_->flushClientPage(f, nullptr);
        if (ctrl_->isDynHome(gp)) {
            // A migration promoted our frame to home mid-flush; the
            // flush's writebacks were absorbed by our own (adopted)
            // directory.  Abandon the page-out; local processors
            // refault and remap the home frame.
            lk.release();
            co_return;
        }
        if (ctrl_->clientPageQuiescent(f))
            break;
        co_await delay(cfg_.retryDelay);
    }
    archiveUtilization(f);
    ctrl_->removeClientMapping(f);
    if (mode == PageMode::Scoma)
        ++scomaAwaitingAck_;

    // Tell the home we no longer cache the page.
    PageRec &r = rec(gp);
    CoEvent acked(eq_);
    r.noticeAck = &acked;
    send(Msg{.type = MsgType::PageOutNotice, .dst = dyn_home, .gpage = gp});
    co_await acked.wait();
    r.noticeAck = nullptr;

    // Only recycle the frame number once the home has acknowledged.
    if (mode == PageMode::Scoma) {
        --scomaAwaitingAck_;
        realPool_.release(f);
    } else {
        imagPool_.release(f);
    }

    if (convert_to_lanuma) {
        r.modeOverride = PageMode::LaNuma;
        ++stats_.conversionsToLaNuma;
    }
    ++stats_.clientPageOuts;
    eq_.snapNote(SnapKind::ClientPageOut);
    co_await delay(cfg_.pageOutKernelCycles);
    latency_.pageOut.sample(eq_.now() - t0);
    if (trace_) {
        trace_->span("pageOut", "paging",
                     static_cast<std::int32_t>(self_), 0, t0, eq_.now());
    }
    lk.release();
}

CoTask
Kernel::pageOutHome(GPage gp)
{
    const Tick t0 = eq_.now();
    CoMutex &lk = rec(gp).lock;
    co_await lk.acquire();
    if (!ctrl_->isDynHome(gp)) {
        lk.release();
        co_return;
    }
    HomePageRec &home = *rec(gp).home;
    home.dying = true;

    const SharerSet clients = home.clients;
    CoLatch latch(eq_);
    home.pageOutAcks = &latch;
    std::uint32_t n = 0;
    for (NodeId c = clients.first(); c != kInvalidNode;
         c = clients.next(c)) {
        send(Msg{.type = MsgType::HomePageOutReq, .dst = c, .gpage = gp});
        ++n;
    }
    latch.expect(n);
    latch.arm();
    co_await latch.wait();
    home.pageOutAcks = nullptr;

    // Wait until no protocol handler is mid-transaction on the page's
    // lines, then collect local processor copies and write to disk.
    while (!ctrl_->homePageQuiescent(gp))
        co_await delay(cfg_.retryDelay);
    FrameNum hf = ctrl_->pit().frameOf(gp);
    prism_assert(hf != kInvalidFrame, "home page without frame");
    host_.flushFrameCaches(hf);
    co_await delay(cfg_.diskLatency);

    VPage vp = vpageOf(gp);
    pt_.unmap(vp);
    host_.shootdownTlb(vp);
    co_await delay(static_cast<Cycles>(cfg_.tlbShootdownCycles) *
                   cfg_.procsPerNode);

    archiveUtilization(hf);
    ctrl_->removeHomeMapping(hf, gp);
    realPool_.release(hf);
    home.clients = SharerSet();
    home.onDisk = true;
    home.dying = false;
    ++stats_.homePageOuts;
    latency_.pageOut.sample(eq_.now() - t0);
    if (trace_) {
        trace_->span("homePageOut", "paging",
                     static_cast<std::int32_t>(self_), 0, t0, eq_.now());
    }
    lk.release();

    // Serve page-in requests that arrived while the page was dying.
    for (Msg &dm : std::exchange(home.deferredPageIns, {}))
        receive(std::move(dm));
}

// ---------------------------------------------------------------------
// Policy support
// ---------------------------------------------------------------------

std::uint64_t
Kernel::clientCap() const
{
    if (!cfg_.clientFrameCapPerNode.empty())
        return cfg_.clientFrameCapPerNode[self_];
    return cfg_.clientFrameCap;
}

bool
Kernel::clientCacheFull() const
{
    const std::uint64_t cap = clientCap();
    return cap != 0 && clientScomaCount() >= cap;
}

GPage
Kernel::lruClientPage() const
{
    // Busy: mid-fault or mid-pageout.
    return lruClientVictim(ctrl_->pit(),
                           [this](GPage gp) { return pageBusy(gp); });
}

GPage
Kernel::mostInvalidClientPage() const
{
    return mostInvalidClientVictim(ctrl_->pit());
}

void
Kernel::setModeOverride(GPage gp, PageMode m)
{
    rec(gp).modeOverride = m;
}

PageMode
Kernel::modeOverride(GPage gp) const
{
    const PageRec *r = findRec(gp);
    return r ? r->modeOverride : PageMode::Scoma;
}

CoTask
Kernel::reconsiderLaNumaPages(std::uint64_t threshold,
                              std::uint32_t max_scan)
{
    const Pit &pit = ctrl_->pit();
    std::uint32_t scanned = 0;
    while (scanned < max_scan && !laNumaMapped_.empty()) {
        if (reconsiderCursor_ >= laNumaMapped_.size())
            reconsiderCursor_ = 0;
        GPage gp = laNumaMapped_[reconsiderCursor_];
        FrameNum f = pit.frameOf(gp);
        const PitEntry *e =
            (f == kInvalidFrame) ? nullptr : pit.entry(f);
        if (!e || e->mode == PageMode::Scoma) {
            // Stale entry (paged out or converted); drop from the list.
            laNumaMapped_[reconsiderCursor_] = laNumaMapped_.back();
            laNumaMapped_.pop_back();
            ++scanned;
            continue;
        }
        if (e->remoteFetches >= threshold && !pageBusy(gp)) {
            laNumaMapped_[reconsiderCursor_] = laNumaMapped_.back();
            laNumaMapped_.pop_back();
            rec(gp).modeOverride = PageMode::Scoma;
            ++stats_.conversionsToScoma;
            co_await pageOutClient(gp, false);
        } else {
            ++reconsiderCursor_;
        }
        ++scanned;
    }
}

// ---------------------------------------------------------------------
// Kernel message handling
// ---------------------------------------------------------------------

void
Kernel::receive(Msg &&m)
{
    switch (m.type) {
      case MsgType::PageInReq:
        onPageInReq(std::move(m));
        return;
      case MsgType::PageInRep: {
        PageRec *r = ctrl_->pages().find(m.gpage);
        prism_assert(r && r->pageIn, "PageInRep without a waiting fault");
        r->cachedDynHome = m.dynHome;
        r->cachedHomeFrame = m.homeFrame;
        r->pageIn->signal();
        return;
      }
      case MsgType::PageOutNotice:
        onPageOutNotice(std::move(m));
        return;
      case MsgType::PageOutNoticeAck: {
        const PageRec *r = findRec(m.gpage);
        prism_assert(r && r->noticeAck, "PageOutNoticeAck without a waiter");
        r->noticeAck->signal();
        return;
      }
      case MsgType::HomePageOutReq:
        onHomePageOutReq(std::move(m));
        return;
      case MsgType::HomePageOutAck: {
        const PageRec *r = findRec(m.gpage);
        prism_assert(r && r->home && r->home->pageOutAcks,
                     "HomePageOutAck without a waiter");
        r->home->pageOutAcks->arrive();
        return;
      }
      default:
        panic("coherence message %s delivered to kernel",
              msgTypeName(m.type));
    }
}

FireAndForget
Kernel::onPageInReq(Msg m)
{
    const GPage gp = m.gpage;
    // Forwarded requests carry the original client in `requester`.
    const NodeId client =
        m.requester != kInvalidNode ? m.requester : m.src;
    m.requester = client;
    if (const NodeId home = homeRoute(gp); home != kInvalidNode) {
        m.dst = home; // stale arrival or migrated page: re-route
        send(std::move(m));
        co_return;
    }
    PageRec &page = rec(gp);
    if (page.home && page.home->dying) {
        page.home->deferredPageIns.push_back(std::move(m));
        co_return;
    }
    CoMutex &lk = rec(gp).lock;
    co_await lk.acquire();
    co_await homeMapIn(gp);
    page.home->clients.add(client);
    co_await delay(cfg_.homePageInService);
    ++stats_.pageInRequestsServed;

    send(Msg{.type = MsgType::PageInRep,
             .dst = client,
             .gpage = gp,
             .homeFrame = ctrl_->pit().frameOf(gp),
             .dynHome = self_});
    lk.release();
}

FireAndForget
Kernel::onPageOutNotice(Msg m)
{
    const GPage gp = m.gpage;
    const NodeId client =
        m.requester != kInvalidNode ? m.requester : m.src;
    m.requester = client;
    if (const NodeId home = homeRoute(gp); home != kInvalidNode) {
        // Stale dynamic-home knowledge at the client: re-route.
        m.dst = home;
        send(std::move(m));
        co_return;
    }
    prism_assert(ctrl_->isDynHome(gp), "page-out notice for an unmapped page");
    rec(gp).home->clients.remove(client);
    Cycles c = ctrl_->homeRemoveClient(gp, client);
    co_await delay(c);

    send(Msg{.type = MsgType::PageOutNoticeAck, .dst = client, .gpage = gp});
}

FireAndForget
Kernel::onHomePageOutReq(Msg m)
{
    const GPage gp = m.gpage;
    // Reset the home-page-status flag (paper Section 3.3).
    if (PageRec *r = ctrl_->pages().find(gp))
        r->cachedHome = false;
    if (!pageBusy(gp) && ctrl_->pit().frameOf(gp) != kInvalidFrame &&
        !ctrl_->isDynHome(gp)) {
        co_await pageOutClient(gp, false);
    }
    // If the page is mid-fault or mid-pageout locally, the in-flight
    // operation resolves the copy (its own notice covers us).
    send(Msg{.type = MsgType::HomePageOutAck, .dst = m.src, .gpage = gp});
}

// ---------------------------------------------------------------------
// Migration cooperation
// ---------------------------------------------------------------------

FrameNum
Kernel::migrationAllocFrame(GPage)
{
    FrameNum f = realPool_.alloc();
    prism_assert(f != kInvalidFrame, "migration frame alloc failed");
    return f;
}

void
Kernel::migrationFreeFrame(FrameNum f, GPage gp)
{
    VPage vp = vpageOf(gp);
    if (pt_.mapped(vp))
        pt_.unmap(vp);
    host_.shootdownTlb(vp);
    host_.flushFrameCaches(f);
    archiveUtilization(f);
    if (f >= kImaginaryFrameBase) {
        imagPool_.release(f);
    } else {
        // A freed client S-COMA frame leaves the client page cache.
        PitEntry *e = ctrl_->pit().entry(f);
        if (e && e->recencyLinked)
            ctrl_->pit().unlinkRecency(*e);
        realPool_.release(f);
    }
}

// ---------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------

double
Kernel::averageUtilization() const
{
    std::uint64_t lines = utilArchivedLines_;
    std::uint64_t frames = utilArchivedFrames_;
    std::uint32_t lines_per_page = 0;
    const Pit &pit = ctrl_->pit();
    for (FrameNum f : pit.allFrames()) {
        if (f >= kImaginaryFrameBase)
            continue;
        const PitEntry *e = pit.entry(f);
        if (!e || !e->accessed)
            continue;
        lines += e->accessed->popcount();
        lines_per_page = e->accessed->lines();
        ++frames;
    }
    if (!lines_per_page)
        lines_per_page = static_cast<std::uint32_t>(kPageBytes) /
                         cfg_.lineBytes;
    if (!frames)
        return 0.0;
    return static_cast<double>(lines) /
           (static_cast<double>(frames) * lines_per_page);
}

void
Kernel::registerMetrics(MetricRegistry &reg)
{
    const std::int32_t n = static_cast<std::int32_t>(self_);
    auto counter = [&](const char *name, ScopedCounter &c,
                       const char *desc) {
        reg.bind(MetricLabels{"kernel", n, name, "count"}, &c, desc);
    };
    counter("faults", stats_.faults, "page faults handled");
    counter("faultsPrivate", stats_.faultsPrivate, "");
    counter("faultsHome", stats_.faultsHome, "");
    counter("faultsClient", stats_.faultsClient, "");
    counter("faultsCachedHome", stats_.faultsCachedHome,
            "client faults served without contacting the home");
    counter("clientPageOuts", stats_.clientPageOuts, "");
    counter("homePageOuts", stats_.homePageOuts, "");
    counter("conversionsToLaNuma", stats_.conversionsToLaNuma, "");
    counter("conversionsToScoma", stats_.conversionsToScoma, "");
    counter("pageInRequestsServed", stats_.pageInRequestsServed, "");

    reg.bind(MetricLabels{"kernel", n, "latency.pageIn", "cycles"},
             &latency_.pageIn, "client page-in round-trip latency");
    reg.bind(MetricLabels{"kernel", n, "latency.pageOut", "cycles"},
             &latency_.pageOut, "page-out flush-to-completion latency");

    // Frame accounting is derived state (pool peaks, PIT utilization
    // scans), so it is exposed as sampled gauges rather than counters.
    reg.bind(MetricLabels{"kernel", n, "realFramesPeak", "frames"},
             &gaugeFramesPeak_,
             [this] { return static_cast<double>(realFramesPeak()); },
             "peak real page frames allocated");
    reg.bind(
        MetricLabels{"kernel", n, "realFramesCumulative", "frames"},
        &gaugeFramesCumulative_,
        [this] { return static_cast<double>(realFramesCumulative()); },
        "cumulative real-frame allocations");
    reg.bind(MetricLabels{"kernel", n, "clientScomaPeak", "frames"},
             &gaugeScomaPeak_,
             [this] { return static_cast<double>(clientScomaPeak()); },
             "peak client S-COMA frames");
    reg.bind(MetricLabels{"kernel", n, "avgUtilization", "fraction"},
             &gaugeAvgUtil_, [this] { return averageUtilization(); },
             "average fraction of lines accessed per real frame");
}

} // namespace prism
