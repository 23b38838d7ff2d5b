#include "coherence/controller.hh"

#include <utility>

#include "check/oracle.hh"
#include "core/env.hh"
#include "obs/trace_sink.hh"
#include "sim/stats.hh"
#include <cstdlib>

namespace prism {

namespace {
// Trace filter from the environment, read once.  The function-local
// statics are const after their (thread-safe, C++11 magic-static)
// initialization, so concurrent Machines may call this freely.
bool traceMatch(GPage gp, std::uint32_t li) {
    static const char *const env = resolveEnv("PRISM_TRACE_GPAGE");
    static const unsigned long long g = env ? strtoull(env, nullptr, 16) : 0;
    static const char *const env2 = resolveEnv("PRISM_TRACE_LI");
    static const unsigned long long l =
        env2 ? strtoull(env2, nullptr, 10) : ~0ULL;
    return env && gp == g && (l == ~0ULL || li == l);
}
#define TRC(gp, li, ...) do { if (traceMatch(gp, li)) { ::prism::warn(__VA_ARGS__); } } while (0)
}


CoherenceController::CoherenceController(
    NodeId self, const MachineConfig &cfg, EventQueue &eq, Dram &dram,
    NodeHost &host)
    : self_(self), cfg_(cfg), eq_(eq), dram_(dram), host_(host),
      geo_(cfg.lineBytes),
      pit_(cfg.pitLatency, cfg.pitHashExtra),
      dir_(cfg.dirCacheEntries, cfg.dirCacheHit, cfg.dirCacheMiss,
           geo_.linesPerPage(), cfg.numNodes),
      pages_(eq, geo_.linesPerPage()),
      mutationBudget_(cfg.mutationSkipInvals)
{
}

DelayAwaiter
CoherenceController::occupy(Cycles c)
{
    Tick start = ctrlRes_.acquire(eq_.now(), c);
    return DelayAwaiter(eq_, start + c - eq_.now());
}

DelayAwaiter
CoherenceController::dramAccess()
{
    Tick done = dram_.access(eq_.now());
    return DelayAwaiter(eq_, done - eq_.now());
}

void
CoherenceController::send(Msg &&m)
{
    m.src = self_;
    host_.send(std::move(m));
}

void
CoherenceController::sendToHome(MsgType type, const PitEntry &e,
                                 std::uint32_t line_idx, bool dirty,
                                 bool keep_shared)
{
    ++(type == MsgType::Writeback ? stats_.writebacksSent
                                  : stats_.replaceHintsSent);
    send(Msg{.type = type,
             .dst = e.dynHome,
             .gpage = e.gpage,
             .lineIdx = line_idx,
             .requester = self_,
             .dstFrameHint = e.homeFrameHint,
             .dirty = dirty,
             .keepShared = keep_shared});
}

void
CoherenceController::forward(Msg &&m)
{
    ++stats_.forwards;
    NodeId target;
    const PageRec *r = pages_.find(m.gpage);
    if (r && r->movedTo != kInvalidNode) {
        target = r->movedTo;
    } else if (cfg_.staticHomeOf(m.gpage) == self_) {
        prism_assert(r && r->registry != kInvalidNode,
                     "static home has no registry entry for forwarded msg");
        target = r->registry;
        prism_assert(target != self_, "registry points at a node "
                     "without the directory page");
    } else {
        target = cfg_.staticHomeOf(m.gpage);
    }
    m.dst = target;
    send(std::move(m));
}

LineSlot *
CoherenceController::lineSlot(GPage gpage, std::uint32_t line_idx)
{
    PageRec *r = pages_.find(gpage);
    return r && r->lines ? &r->lines[line_idx] : nullptr;
}

HomeMeta *
CoherenceController::homeMeta(GPage gpage)
{
    PageRec *r = pages_.find(gpage);
    return r && r->home && r->home->meta ? &*r->home->meta : nullptr;
}

std::uint32_t
CoherenceController::clientLinesOpen(GPage gpage) const
{
    const PageRec *r = pages_.find(gpage);
    return r ? r->clientLines : 0;
}

void
CoherenceController::poisonLine(GPage gpage, std::uint32_t line_idx)
{
    LineSlot *s = lineSlot(gpage, line_idx);
    if (!s)
        return;
    if (s->txn)
        s->txn->invalidatedMidFlight = true;
    if (s->fill != FillToken::None)
        s->fill = FillToken::Invalidated;
}

bool
CoherenceController::homePageQuiescent(GPage gpage) const
{
    const PageRec *r = pages_.find(gpage);
    if (!r)
        return true;
    if (r->home) {
        for (const CoMutex &l : r->home->locks) {
            if (l.held())
                return false;
        }
    }
    return r->homeWaits == 0;
}

NodeId
CoherenceController::registryLookup(GPage gpage) const
{
    const PageRec *r = pages_.find(gpage);
    return r ? r->registry : kInvalidNode;
}

// ---------------------------------------------------------------------
// Processor side
// ---------------------------------------------------------------------

CoTask
CoherenceController::serviceMiss(FrameNum frame, std::uint32_t line_idx,
                                 bool for_write, bool local_copy,
                                 MissResult *out)
{
    PitEntry *e = pit_.entry(frame);
    if (!e) {
        // The mapping was paged out between the requester's address
        // translation and this point; bounce so it re-translates
        // (and re-faults) with fresh state.
        out->source = MissSource::BadFrame;
        co_return;
    }
    pit_.touch(*e, eq_.now());
    e->accessed->set(line_idx);

    switch (e->mode) {
      case PageMode::Local: {
        // The controller takes no action; local memory services the
        // line under the bus protocol.
        co_await dramAccess();
        ++stats_.localMemHits;
        out->source = MissSource::LocalMem;
        out->exclusive = true;
        co_return;
      }
      case PageMode::Scoma: {
        co_await delay(pit_.forwardCycles()); // consult mode + tags
        FgTag tag = e->tags->get(line_idx);
        if (tag == FgTag::Transit) {
            ++stats_.retries;
            out->source = MissSource::Retry;
            co_return;
        }
        if (tag == FgTag::Exclusive ||
            (tag == FgTag::Shared && !for_write)) {
            TRC(e->gpage, line_idx, "n%u localmem w=%d tag=%s t=%llu",
                self_, (int)for_write, fgTagName(tag),
                (unsigned long long)eq_.now());
            // Page cache supplies the line locally.
            co_await dramAccess();
            ++stats_.localMemHits;
            out->source = MissSource::LocalMem;
            out->exclusive = (tag == FgTag::Exclusive);
            co_return;
        }
        const LineSlot *ls = lineSlot(e->gpage, line_idx);
        if (ls && ls->txn) {
            ++stats_.retries;
            out->source = MissSource::Retry;
            co_return;
        }
        // Shared+write upgrades (data already local); Invalid fetches.
        MsgType mt = for_write
                         ? (tag == FgTag::Shared ? MsgType::Upgrade
                                                 : MsgType::ReqX)
                         : MsgType::ReqS;
        TRC(e->gpage, line_idx, "n%u scoma txn %s tag=%s t=%llu", self_,
            msgTypeName(mt), fgTagName(tag),
            (unsigned long long)eq_.now());
        e->tags->set(line_idx, FgTag::Transit);
        bool poisoned = false;
        co_await runClientTxn(mt, *e, frame, line_idx, out, &poisoned);
        if (poisoned) {
            TRC(e->gpage, line_idx, "n%u scoma txn poisoned t=%llu", self_,
                (unsigned long long)eq_.now());
            // A racing invalidation voided the shared grant.
            e->tags->set(line_idx, FgTag::Invalid);
            ++stats_.retries;
            out->source = MissSource::Retry;
            co_return;
        }
        TRC(e->gpage, line_idx, "n%u scoma txn done excl=%d t=%llu", self_,
            (int)out->exclusive, (unsigned long long)eq_.now());
        e->tags->set(line_idx,
                     out->exclusive ? FgTag::Exclusive : FgTag::Shared);
        co_return;
      }
      case PageMode::LaNuma:
      case PageMode::CcNuma: {
        if (e->mode == PageMode::LaNuma)
            co_await delay(pit_.forwardCycles());
        const GPage gpage = e->gpage; // e may be stale after the txn
        const LineSlot *ls = lineSlot(gpage, line_idx);
        if (ls && ls->txn) {
            ++stats_.retries;
            out->source = MissSource::Retry;
            co_return;
        }
        if (ls && ls->fill != FillToken::None) {
            // Granted to another local processor; its fill is still in
            // flight on the bus.
            ++stats_.retries;
            out->source = MissSource::Retry;
            co_return;
        }
        MsgType mt = for_write ? (local_copy ? MsgType::Upgrade
                                             : MsgType::ReqX)
                               : MsgType::ReqS;
        TRC(gpage, line_idx, "n%u lanuma txn %s t=%llu", self_,
            msgTypeName(mt), (unsigned long long)eq_.now());
        bool poisoned = false;
        co_await runClientTxn(mt, *e, frame, line_idx, out, &poisoned);
        if (poisoned) {
            ++stats_.retries;
            out->source = MissSource::Retry;
            co_return;
        }
        // Hold a fill token until the bus fill completes so no second
        // transaction (or stale fill) can slip into the window.
        PageRec &r = pages_.at(gpage);
        LineSlot &slot = pages_.openLine(r, line_idx);
        if (slot.fill == FillToken::None) {
            slot.fill = FillToken::Held;
            ++r.clientLines;
        }
        co_return;
      }
      case PageMode::Command:
        panic("serviceMiss on a command-mode frame");
    }
}

CoTask
CoherenceController::runClientTxn(MsgType mt, PitEntry &e, FrameNum frame,
                                  std::uint32_t line_idx, MissResult *out,
                                  bool *poisoned)
{
    ClientTxn txn(eq_);
    PageRec &r = pages_.at(e.gpage);
    pages_.openLine(r, line_idx).txn = &txn;
    ++r.clientLines;

    const Tick t0 = eq_.now();
    co_await occupy(cfg_.ctrlOverhead); // compose request, dispatch

    send(Msg{.type = mt,
             .dst = e.dynHome,
             .gpage = e.gpage,
             .lineIdx = line_idx,
             .requester = self_,
             .requesterFrame = frame,
             .dstFrameHint = e.homeFrameHint});

    const GPage gpage = e.gpage;
    co_await txn.latch.wait();
    r.lines[line_idx].txn = nullptr;
    --r.clientLines;
    pages_.closeLines(r);

    // `e` may be stale: while the transaction was in flight the page
    // can migrate TO this node, and adopting a LA-NUMA mapping retires
    // its imaginary frame (handleMigrateData removes the PIT entry).
    // Re-translate and only update hints if the same mapping is still
    // installed; the hints are advisory, so skipping them is safe.
    PitEntry *cur = pit_.entry(frame);
    if (cur && cur->gpage != gpage)
        cur = nullptr;
    if (cur) {
        if (txn.dynHome != kInvalidNode)
            cur->dynHome = txn.dynHome;
        if (txn.homeFrame != kInvalidFrame)
            cur->homeFrameHint = txn.homeFrame;
    }

    const char *txn_kind;
    if (txn.dataFetched) {
        ++stats_.remoteMisses;
        eq_.snapNote(SnapKind::RemoteMiss);
        ScopedHistogram &h =
            txn.threeParty ? latency_.read3 : latency_.read2;
        h.sample(eq_.now() - t0);
        txn_kind = txn.threeParty ? "read3" : "read2";
        if (cur) {
            ++cur->remoteFetches;
            if (cur->mode == PageMode::Scoma)
                dram_.access(eq_.now()); // copy into the page cache
        }
    } else {
        ++stats_.upgrades;
        eq_.snapNote(SnapKind::Upgrade);
        latency_.upgrade.sample(eq_.now() - t0);
        txn_kind = "upgrade";
    }
    if (trace_) {
        trace_->span(txn_kind, "coherence", static_cast<std::int32_t>(self_),
                     static_cast<std::int32_t>(line_idx), t0, eq_.now());
    }
    out->source = MissSource::Remote;
    out->exclusive = txn.exclusive;
    // An exclusive grant supersedes any invalidation of the old copy;
    // a shared grant raced by an invalidation is void.
    *poisoned = txn.invalidatedMidFlight && !txn.exclusive;
}

bool
CoherenceController::finishFill(FrameNum frame, std::uint32_t line_idx,
                                Mesi intended)
{
    PitEntry *e = pit_.entry(frame);
    if (!e)
        return false;
    switch (e->mode) {
      case PageMode::Local:
      case PageMode::Command:
        return true;
      case PageMode::Scoma: {
        const FgTag tag = e->tags->get(line_idx);
        TRC(e->gpage, line_idx, "n%u finishFill want=%s tag=%s t=%llu",
            self_, mesiName(intended), fgTagName(tag),
            (unsigned long long)eq_.now());
        if (ownerClass(intended))
            return tag == FgTag::Exclusive;
        return tag != FgTag::Invalid;
      }
      case PageMode::LaNuma:
      case PageMode::CcNuma: {
        PageRec *r = pages_.find(e->gpage);
        LineSlot *ls = r && r->lines ? &r->lines[line_idx] : nullptr;
        if (!ls || ls->fill == FillToken::None)
            return true; // peer-supplied fill; validated by the caller
        const bool ok = ls->fill != FillToken::Invalidated;
        ls->fill = FillToken::None;
        --r->clientLines;
        pages_.closeLines(*r);
        return ok;
      }
    }
    return true;
}

void
CoherenceController::evictLine(FrameNum frame, std::uint32_t line_idx,
                               Mesi victim_state)
{
    PitEntry *e = pit_.entry(frame);
    if (!e)
        return; // frame being torn down
    switch (e->mode) {
      case PageMode::Local:
      case PageMode::Scoma:
      case PageMode::Command:
        if (dirtyLine(victim_state))
            dram_.access(eq_.now()); // write back into local memory
        return;
      case PageMode::LaNuma:
      case PageMode::CcNuma:
        TRC(e->gpage, line_idx, "n%u evict %s t=%llu", self_,
            mesiName(victim_state), (unsigned long long)eq_.now());
        if (dirtyLine(victim_state)) {
            // An evicted Owned line may leave peer Shared copies
            // behind on this node's bus: the node stays a sharer.
            sendToHome(MsgType::Writeback, *e, line_idx, true,
                       victim_state == Mesi::Owned &&
                           host_.lineCached(frame, line_idx));
        } else if (victim_state == Mesi::Exclusive) {
            // A silent clean-exclusive drop would leave the full-map
            // directory believing we still own the line.
            sendToHome(MsgType::ReplaceHint, *e, line_idx, false, false);
        }
        return;
    }
}

void
CoherenceController::reflectDowngrade(FrameNum frame, std::uint32_t line_idx,
                                      bool dirty)
{
    PitEntry *e = pit_.entry(frame);
    if (!e)
        return;
    if (e->mode == PageMode::LaNuma || e->mode == PageMode::CcNuma) {
        TRC(e->gpage, line_idx, "n%u reflectDowngrade dirty=%d t=%llu",
            self_, (int)dirty, (unsigned long long)eq_.now());
        sendToHome(MsgType::Writeback, *e, line_idx, dirty, true);
    } else if (dirty) {
        dram_.access(eq_.now()); // reflect into local memory
    }
}

// ---------------------------------------------------------------------
// Kernel command interface
// ---------------------------------------------------------------------

void
CoherenceController::installLocalMapping(FrameNum frame)
{
    pit_.installLocal(frame, geo_.linesPerPage());
}

PitEntry &
CoherenceController::installClientMapping(FrameNum frame, GPage gpage,
                                          NodeId static_home,
                                          NodeId dyn_home,
                                          FrameNum home_frame, PageMode mode)
{
    prism_assert(mode == PageMode::Scoma || mode == PageMode::LaNuma ||
                     mode == PageMode::CcNuma,
                 "client mapping must be a global mode");
    return pit_.install(frame, gpage, static_home, dyn_home, home_frame,
                        mode, geo_.linesPerPage(), FgTag::Invalid);
}

void
CoherenceController::installHomeMapping(FrameNum frame, GPage gpage)
{
    pit_.install(frame, gpage, cfg_.staticHomeOf(gpage), self_, frame,
                 PageMode::Scoma, geo_.linesPerPage(), FgTag::Exclusive);
    dir_.createPage(gpage, DirState::Owned, self_);
    PageRec &r = pages_.at(gpage);
    pages_.home(r).meta.emplace().accessesByNode.assign(cfg_.numNodes, 0);
    if (cfg_.staticHomeOf(gpage) == self_)
        r.registry = self_;
    r.movedTo = kInvalidNode;
    if (oracle_)
        oracle_->onHomeInstall(self_, gpage);
}

CoTask
CoherenceController::flushClientPage(FrameNum frame, std::uint64_t *wb_lines)
{
    PitEntry *e = pit_.entry(frame);
    prism_assert(e && e->gpage != kInvalidGPage,
                 "flushing a frame that maps no global page");

    // Wait for outstanding transactions on this page to settle:
    // controller-level (Transit tags, client transactions, pending
    // fills) and bus-level (in-flight node transactions, including
    // cache-to-cache fills that never reach the controller).
    for (;;) {
        const bool busy = (e->tags && e->tags->anyTransit()) ||
                          host_.anyBusPending(frame) ||
                          clientLinesOpen(e->gpage) != 0;
        if (!busy)
            break;
        co_await delay(cfg_.retryDelay);
    }

    std::uint64_t wrote = 0;
    for (std::uint32_t i = 0; i < geo_.linesPerPage(); ++i) {
        if (e->mode == PageMode::Scoma) {
            FgTag tag = e->tags->get(i);
            TRC(e->gpage, i, "n%u flush line tag=%s t=%llu", self_,
                fgTagName(tag), (unsigned long long)eq_.now());
            if (tag == FgTag::Invalid)
                continue;
            auto r = host_.intervene(frame, i, true, eq_.now());
            e->tags->set(i, FgTag::Invalid);
            co_await until(r.done);
            if (r.dirty)
                dram_.access(eq_.now()); // collect into the page cache
            if (tag == FgTag::Exclusive) {
                co_await dramAccess(); // read the line for writeback
                ++wrote;
                sendToHome(MsgType::Writeback, *e, i, true, false);
            }
        } else {
            auto r = host_.intervene(frame, i, true, eq_.now());
            co_await until(r.done);
            if (!r.found)
                continue;
            if (r.dirty) {
                ++wrote;
                sendToHome(MsgType::Writeback, *e, i, true, false);
            } else if (r.exclusive) {
                sendToHome(MsgType::ReplaceHint, *e, i, false, false);
            }
        }
    }
    if (wb_lines)
        *wb_lines = wrote;
}

void
CoherenceController::removeClientMapping(FrameNum frame)
{
    pit_.remove(frame);
}

bool
CoherenceController::clientPageQuiescent(FrameNum frame) const
{
    const PitEntry *e = pit_.entry(frame);
    if (!e)
        return true;
    if (host_.anyBusPending(frame) || host_.anyCachedCopy(frame))
        return false;
    if (e->tags && (e->tags->count(FgTag::Invalid) != e->tags->lines()))
        return false;
    return clientLinesOpen(e->gpage) == 0;
}

Cycles
CoherenceController::homeRemoveClient(GPage gpage, NodeId client)
{
    auto pg = dir_.page(gpage);
    prism_assert(pg, "homeRemoveClient on absent page");
    Cycles c = 0;
    for (std::uint32_t i = 0; i < pg.size(); ++i) {
        auto d = pg.line(i);
        c += cfg_.dirCacheHit; // sequential page walk mostly hits
        if (d.state() == DirState::Shared) {
            d.removeSharer(client);
            if (d.noSharers()) {
                d.setState(DirState::Uncached);
            }
        }
        // Owned(client) lines are left alone: the client's page-out
        // flush put a Writeback (or ReplaceHint) in flight before the
        // PageOutNotice, and pairwise-FIFO delivery means it is
        // already in our pipeline — it performs the Owned->Uncached
        // transition and carries the data.  Resetting the line here
        // instead would let a racing request read stale home memory
        // while the writeback is still paying its occupancy delays
        // (silent loss of the owner's last writes).  Until the
        // writeback lands, requests take the 3-party path and retry
        // on FetchNack.
    }
    return c;
}

void
CoherenceController::removeHomeMapping(FrameNum frame, GPage gpage)
{
    prism_assert(dir_.hasPage(gpage), "removeHomeMapping without dir page");
    if (oracle_) {
        // The kernel has flushed processor copies into the frame, so
        // lines we owned leave with the frame (= memory) current.
        auto pg = dir_.page(gpage);
        for (std::uint32_t i = 0; i < pg.size(); ++i) {
            auto d = pg.line(i);
            if (d.state() == DirState::Owned && d.owner() == self_)
                oracle_->onMigrateFlush(self_, gpage, i);
        }
    }
    dir_.removePage(gpage);
    PageRec &r = pages_.at(gpage);
    r.home->meta.reset();
    pit_.remove(frame);
    if (cfg_.staticHomeOf(gpage) == self_) {
        r.registry = kInvalidNode;
    } else {
        send(Msg{.type = MsgType::MigrateDone,
                 .dst = cfg_.staticHomeOf(gpage),
                 .gpage = gpage,
                 .aux = 1}); // erase-registry sentinel
    }
}

// ---------------------------------------------------------------------
// Network side
// ---------------------------------------------------------------------

void
CoherenceController::onMessage(Msg &&m)
{
    switch (m.type) {
      case MsgType::ReqS:
      case MsgType::ReqX:
      case MsgType::Upgrade:
        handleHomeRequest(std::move(m));
        return;
      case MsgType::Writeback:
      case MsgType::ReplaceHint:
        handleWriteback(std::move(m));
        return;
      case MsgType::XferNotice:
      case MsgType::FetchNack: {
        LineSlot *ls = lineSlot(m.gpage, m.lineIdx);
        prism_assert(ls && ls->wait,
                     "%s without a waiting home transaction",
                     msgTypeName(m.type));
        if (m.type == MsgType::FetchNack)
            ls->wait->nacked = true;
        else
            ls->wait->dirty = m.dirty;
        ls->wait->event.signal();
        return;
      }
      case MsgType::Data:
      case MsgType::UpgAck:
      case MsgType::DataFwd:
      case MsgType::InvAck:
        handleClientReply(std::move(m));
        return;
      case MsgType::Inv:
        handleClientInv(std::move(m));
        return;
      case MsgType::Fetch:
        handleClientFetch(std::move(m));
        return;
      case MsgType::MigrateReq: {
        const NodeId home = registryLookup(m.gpage);
        if (home == kInvalidNode)
            return; // page gone; drop
        NodeId target = static_cast<NodeId>(m.aux);
        if (home == target)
            return;
        send(Msg{.type = MsgType::MigratePrep,
                 .dst = home,
                 .gpage = m.gpage,
                 .aux = m.aux});
        return;
      }
      case MsgType::MigratePrep:
        handleMigratePrep(std::move(m));
        return;
      case MsgType::MigrateData:
        handleMigrateData(std::move(m));
        return;
      case MsgType::MigrateDone:
        pages_.at(m.gpage).registry = m.aux == 1 ? kInvalidNode : m.src;
        return;
      default:
        panic("kernel message %s delivered to controller",
              msgTypeName(m.type));
    }
}

FireAndForget
CoherenceController::handleHomeRequest(Msg m)
{
    co_await occupy(cfg_.ctrlOverhead);
    if (!dir_.hasPage(m.gpage)) {
        forward(std::move(m));
        co_return;
    }
    ++stats_.homeRequests;
    noteHomeAccess(m.gpage, m.requester);
    if (cfg_.dirClientFrameHints &&
        m.requesterFrame != kInvalidFrame) {
        if (HomeMeta *hm = homeMeta(m.gpage)) {
            if (hm->clientFrames.empty())
                hm->clientFrames.assign(cfg_.numNodes, kInvalidFrame);
            hm->clientFrames[m.requester] = m.requesterFrame;
        }
    }

    bool hash = false;
    FrameNum hf = pit_.reverse(m.gpage, m.dstFrameHint, hash);
    prism_assert(hf != kInvalidFrame, "home has dir page but no PIT entry");
    co_await delay(pit_.reverseCycles(hash));
    PitEntry *he = nullptr;

    const std::uint32_t li = m.lineIdx;
    const GLine gl = geo_.lineOf(m.gpage, li);
    CoMutex &lk = pages_.home(pages_.at(m.gpage)).locks[li];
    co_await lk.acquire();

    // The page may have migrated away while we queued on the lock.
    if (!dir_.hasPage(m.gpage)) {
        lk.release();
        forward(std::move(m));
        co_return;
    }
    // Refresh the home-frame entry: paging activity while we queued
    // may have moved it.
    hf = pit_.frameOf(m.gpage);
    prism_assert(hf != kInvalidFrame, "home page lost its frame");
    he = pit_.entry(hf);
    // Remote requests touch the home frame's data: count the line as
    // accessed for the utilization statistics (Table 3).
    if (he->accessed)
        he->accessed->set(li);

    co_await delay(dir_.access(gl));
    auto d = dir_.line(m.gpage, li);
    const NodeId req = m.requester;
    const bool for_write = (m.type != MsgType::ReqS);
    // A Data grant of the line to the requester.
    auto data_reply = [&](bool exclusive, std::uint32_t acks) {
        return Msg{.type = MsgType::Data,
                   .dst = req,
                   .gpage = m.gpage,
                   .lineIdx = li,
                   .requester = req,
                   .dstFrameHint = m.requesterFrame,
                   .homeFrame = hf,
                   .dynHome = self_,
                   .ackCount = acks,
                   .exclusive = exclusive};
    };
    TRC(m.gpage, li, "home%u req %s from n%u state=%s owner=%u sh=%s t=%llu",
        self_, msgTypeName(m.type), req, dirStateName(d.state()), d.owner(),
        d.sharers().toString().c_str(), (unsigned long long)eq_.now());

    for (;;) {
        if (d.state() == DirState::Uncached) {
            co_await dramAccess();
            d.setState(DirState::Owned);
            d.setOwner(req);
            d.clearSharers();
            if (oracle_)
                oracle_->onHomeGrantFromMemory(self_, m.gpage, li, req);
            send(data_reply(true, 0));
            break;
        }
        if (d.state() == DirState::Shared) {
            if (!for_write) {
                co_await dramAccess();
                d.addSharer(req);
                if (oracle_)
                    oracle_->onHomeGrantFromMemory(self_, m.gpage, li,
                                                   req);
                send(data_reply(false, 0));
                break;
            }
            // Write to a shared line: invalidate the other sharers.
            const bool req_was_sharer = d.isSharer(req);
            if (d.isSharer(self_) && self_ != req) {
                // Home's own copy is invalidated inline; mirror
                // handleClientInv and poison any racing local
                // transaction or pending fill for the line.
                poisonLine(m.gpage, li);
                // State changes are synchronous with the snoop; only
                // the timing is awaited afterwards.
                auto r = host_.intervene(hf, li, true, eq_.now());
                if (he->tags &&
                    he->tags->get(li) != FgTag::Transit) {
                    he->tags->set(li, FgTag::Invalid);
                }
                d.removeSharer(self_);
                if (oracle_)
                    oracle_->onInvalidate(self_, m.gpage, li);
                co_await until(r.done);
            }
            std::uint32_t acks = 0;
            // Snapshot the fan-out targets before the first suspension
            // point; members are visited in ascending node order, as
            // the old bitmask probe loop did.
            SharerSet rest = SharerSet::fromRef(d.sharers());
            rest.remove(req);
            rest.remove(self_);
            for (NodeId n = rest.first(); n != kInvalidNode;
                 n = rest.next(n)) {
                if (mutationBudget_ > 0) {
                    // Fault injection (oracle self-test): silently
                    // skip this invalidation.  The requester is told
                    // to expect one fewer ack, so the protocol
                    // proceeds with a stale sharer left behind.
                    --mutationBudget_;
                    continue;
                }
                // Serialized sends: the controller occupancy per
                // invalidation yields the paper's +80n latency slope.
                co_await occupy(cfg_.ctrlOverhead);
                Msg inv{.type = MsgType::Inv,
                        .dst = n,
                        .gpage = m.gpage,
                        .lineIdx = li,
                        .requester = req};
                if (cfg_.dirClientFrameHints) {
                    const HomeMeta *hm = homeMeta(m.gpage);
                    if (hm && !hm->clientFrames.empty())
                        inv.dstFrameHint = hm->clientFrames[n];
                }
                ++acks;
                ++stats_.invalsSent;
                eq_.snapNote(SnapKind::InvalSent);
                send(std::move(inv));
            }
            if (m.type == MsgType::Upgrade && req_was_sharer) {
                if (oracle_)
                    oracle_->onHomeUpgradeGrant(self_, m.gpage, li, req);
                send(Msg{.type = MsgType::UpgAck,
                         .dst = req,
                         .gpage = m.gpage,
                         .lineIdx = li,
                         .requester = req,
                         .homeFrame = hf,
                         .dynHome = self_,
                         .ackCount = acks,
                         .exclusive = true});
            } else {
                co_await dramAccess();
                if (oracle_)
                    oracle_->onHomeGrantFromMemory(self_, m.gpage, li,
                                                   req);
                send(data_reply(true, acks));
            }
            d.setState(DirState::Owned);
            d.setOwner(req);
            d.clearSharers();
            break;
        }
        // Owned.
        if (d.owner() == req) {
            warn("owner==req: msg=%s req=%u home=%u gpage=%llx li=%u "
                 "sharers=%s",
                 msgTypeName(m.type), req, self_,
                 static_cast<unsigned long long>(m.gpage), li,
                 d.sharers().toString().c_str());
        }
        prism_assert(d.owner() != req,
                     "owner node re-requesting a line it owns");
        if (d.owner() == self_) {
            // If our own exclusive grant for this line is still in
            // flight (loopback reply not yet consumed), wait for it to
            // land — the remote-owner equivalent is the FetchNack
            // retry loop.  The grantee's reply needs no line lock, so
            // waiting here cannot deadlock.
            for (;;) {
                const LineSlot *ls = lineSlot(m.gpage, li);
                if (!ls || (!ls->txn && ls->fill == FillToken::None))
                    break;
                co_await delay(cfg_.retryDelay);
            }
            TRC(m.gpage, li, "home%u self-own intervene w=%d tag=%s t=%llu",
                self_, (int)for_write,
                he->tags ? fgTagName(he->tags->get(li)) : "-",
                (unsigned long long)eq_.now());
            // 2-party transaction with the home's own copy.  Tag and
            // directory changes are synchronous with the snoop.
            auto r = host_.intervene(hf, li, for_write, eq_.now());
            if (he->tags && he->tags->get(li) != FgTag::Transit) {
                he->tags->set(li,
                              for_write ? FgTag::Invalid : FgTag::Shared);
            }
            co_await until(r.done);
            if (r.dirty)
                dram_.access(eq_.now()); // collect into memory
            co_await dramAccess(); // read for the reply
            if (for_write) {
                d.setState(DirState::Owned);
                d.setOwner(req);
                d.clearSharers();
            } else {
                d.setState(DirState::Shared);
                d.clearSharers();
                d.addSharer(self_);
                d.addSharer(req);
                d.setOwner(kInvalidNode);
            }
            if (oracle_)
                oracle_->onHomeServeSelfOwned(self_, m.gpage, li, req,
                                              for_write);
            send(data_reply(for_write, 0));
            break;
        }
        // 3-party transaction: intervene at the remote owner.
        const NodeId owner = d.owner();
        HomeWait wait(eq_);
        PageRec &r = pages_.at(m.gpage);
        pages_.openLine(r, li).wait = &wait;
        ++r.homeWaits;
        send(Msg{.type = MsgType::Fetch,
                 .dst = owner,
                 .gpage = m.gpage,
                 .lineIdx = li,
                 .requester = req,
                 .requesterFrame = m.requesterFrame,
                 .homeFrame = hf,
                 .dynHome = self_,
                 .forWrite = for_write});
        co_await wait.event.wait();
        r.lines[li].wait = nullptr;
        --r.homeWaits;
        pages_.closeLines(r);
        if (wait.nacked) {
            // The owner's writeback or replacement hint arrived before
            // the nack (FIFO links) and already updated the directory;
            // re-dispatch against the fresh state.
            co_await delay(dir_.access(gl));
            continue;
        }
        if (wait.dirty)
            dram_.access(eq_.now()); // sharing writeback into memory
        if (for_write) {
            d.setState(DirState::Owned);
            d.setOwner(req);
            d.clearSharers();
        } else {
            d.setState(DirState::Shared);
            d.clearSharers();
            d.addSharer(owner);
            d.addSharer(req);
            d.setOwner(kInvalidNode);
        }
        break;
    }
    lk.release();
    maybeTriggerMigration(m.gpage);
}

FireAndForget
CoherenceController::handleWriteback(Msg m)
{
    const Tick t0 = eq_.now();
    co_await occupy(cfg_.ctrlOverhead);
    if (!dir_.hasPage(m.gpage)) {
        forward(std::move(m));
        co_return;
    }
    bool hash = false;
    FrameNum hf = pit_.reverse(m.gpage, m.dstFrameHint, hash);
    co_await delay(pit_.reverseCycles(hash));
    // Forwarded writebacks (lazy migration) carry the owner identity
    // in `requester`.
    const NodeId owner_id =
        m.requester != kInvalidNode ? m.requester : m.src;
    // Memory firewall: a write-class action from a remote node is
    // checked against the PIT capability list (Section 3.2).
    if (hf != kInvalidFrame && owner_id != self_ &&
        !pit_.writeAllowed(hf, owner_id)) {
        pit_.noteRejectedWrite();
        ++stats_.firewallRejects;
        co_return;
    }
    if (!dir_.hasPage(m.gpage)) {
        // The page was paged out / migrated during the lookup delay.
        forward(std::move(m));
        co_return;
    }
    auto d = dir_.line(m.gpage, m.lineIdx);
    TRC(m.gpage, m.lineIdx, "home%u wb from n%u keepS=%d state=%s owner=%u t=%llu",
        self_, m.src, (int)m.keepShared, dirStateName(d.state()), d.owner(),
        (unsigned long long)eq_.now());
    if (d.state() == DirState::Owned && d.owner() == owner_id) {
        if (m.keepShared) {
            d.setState(DirState::Shared);
            d.clearSharers();
            d.addSharer(owner_id);
            d.setOwner(kInvalidNode);
        } else {
            d.setState(DirState::Uncached);
            d.setOwner(kInvalidNode);
            d.clearSharers();
        }
        if (m.dirty)
            dram_.access(eq_.now());
        if (oracle_)
            oracle_->onWritebackAccepted(self_, m.gpage, m.lineIdx,
                                         owner_id, m.dirty, m.keepShared);
    } else if (d.state() == DirState::Uncached && m.dirty) {
        // The owner's page-out flush races its own PageOutNotice: the
        // writeback is delivered first (pairwise FIFO) but pays the
        // controller occupancy and PIT-reverse delays before reading
        // the directory, while the kernel's homeRemoveClient runs at
        // notice delivery and has already reset the line to Uncached.
        // The data is still the latest value — collect it.  (A truly
        // stale writeback finds the line re-Owned by the next owner
        // and is dropped below: ownership can only move through this
        // serialized controller.)
        dram_.access(eq_.now());
        if (oracle_)
            oracle_->onWritebackAccepted(self_, m.gpage, m.lineIdx,
                                         owner_id, true, false);
    }
    // Otherwise the writeback is stale (ownership already moved); drop.
    latency_.writeback.sample(eq_.now() - t0);
    if (trace_) {
        trace_->span("writeback", "coherence",
                     static_cast<std::int32_t>(self_),
                     static_cast<std::int32_t>(m.lineIdx), t0, eq_.now());
    }
}

FireAndForget
CoherenceController::handleClientInv(Msg m)
{
    co_await occupy(cfg_.ctrlOverhead);
    ++stats_.invalsReceived;
    TRC(m.gpage, m.lineIdx, "n%u inv t=%llu", self_,
        (unsigned long long)eq_.now());
    poisonLine(m.gpage, m.lineIdx);
    // In the paper's evaluated configuration the directory does not
    // cache client frame numbers (Section 4.1), so invalidations
    // reverse-translate via the hash path; with the Section 4.3
    // dirClientFrameHints option the message carries a hint.
    bool hash = false;
    FrameNum f = pit_.reverse(m.gpage, m.dstFrameHint, hash);
    co_await delay(pit_.reverseCycles(hash));
    // Re-validate: the mapping may have been paged out (and the frame
    // even reused) during the lookup delay.
    PitEntry *e = (f == kInvalidFrame) ? nullptr : pit_.entry(f);
    if (e && e->gpage == m.gpage) {
        auto r = host_.intervene(f, m.lineIdx, true, eq_.now());
        if (e->tags && e->tags->get(m.lineIdx) != FgTag::Transit)
            e->tags->set(m.lineIdx, FgTag::Invalid);
        if (oracle_)
            oracle_->onInvalidate(self_, m.gpage, m.lineIdx);
        co_await until(r.done);
    }
    send(Msg{.type = MsgType::InvAck,
             .dst = m.requester,
             .gpage = m.gpage,
             .lineIdx = m.lineIdx,
             .requester = m.requester});
}

FireAndForget
CoherenceController::handleClientFetch(Msg m)
{
    co_await occupy(cfg_.ctrlOverhead);
    const NodeId home = m.src;
    bool hash = false;
    FrameNum f = pit_.reverse(m.gpage, kInvalidFrame, hash);
    co_await delay(pit_.reverseCycles(hash));

    bool have = false;
    bool dirty_to_home = false;
    PitEntry *e = (f == kInvalidFrame) ? nullptr : pit_.entry(f);
    if (e && e->gpage != m.gpage)
        e = nullptr; // frame was recycled during the lookup delay
    if (e) {
        if (e->mode == PageMode::Scoma) {
            FgTag tag = e->tags->get(m.lineIdx);
            TRC(m.gpage, m.lineIdx, "n%u fetch-scoma tag=%s t=%llu", self_,
                fgTagName(tag), (unsigned long long)eq_.now());
            if (tag == FgTag::Exclusive) {
                have = true;
                auto r = host_.intervene(f, m.lineIdx, m.forWrite,
                                         eq_.now());
                e->tags->set(m.lineIdx,
                             m.forWrite ? FgTag::Invalid : FgTag::Shared);
                co_await until(r.done);
                if (r.dirty)
                    dram_.access(eq_.now()); // into the page cache
                co_await dramAccess(); // read line for forwarding
                // The home memory is stale while we owned the line, so
                // a read downgrade must carry data home.
                dirty_to_home = !m.forWrite;
            }
        } else {
            auto r = host_.intervene(f, m.lineIdx, m.forWrite, eq_.now());
            // Ownership requires an E/M copy.  A mere S copy means the
            // node was downgraded (writeback in flight) or its own
            // exclusive grant has not landed yet; nack and let the
            // home retry against fresh state.
            if (r.found && r.exclusive) {
                have = true;
                co_await until(r.done);
                dirty_to_home = !m.forWrite && r.dirty;
            }
        }
    }

    TRC(m.gpage, m.lineIdx, "n%u fetch forW=%d have=%d t=%llu", self_,
        (int)m.forWrite, (int)have, (unsigned long long)eq_.now());
    if (!have) {
        ++stats_.nacksSent;
        send(Msg{.type = MsgType::FetchNack,
                 .dst = home,
                 .gpage = m.gpage,
                 .lineIdx = m.lineIdx});
        co_return;
    }

    ++stats_.fetchesServed;
    if (oracle_)
        oracle_->onOwnerServe(self_, m.gpage, m.lineIdx, m.requester,
                              m.forWrite);
    send(Msg{.type = MsgType::DataFwd,
             .dst = m.requester,
             .gpage = m.gpage,
             .lineIdx = m.lineIdx,
             .requester = m.requester,
             .dstFrameHint = m.requesterFrame,
             .homeFrame = m.homeFrame,
             .dynHome = m.dynHome,
             .exclusive = m.forWrite});

    send(Msg{.type = MsgType::XferNotice,
             .dst = home,
             .gpage = m.gpage,
             .lineIdx = m.lineIdx,
             .dirty = dirty_to_home,
             .keepShared = !m.forWrite});
}

FireAndForget
CoherenceController::handleClientReply(Msg m)
{
    if (m.type == MsgType::InvAck) {
        LineSlot *ls = lineSlot(m.gpage, m.lineIdx);
        prism_assert(ls && ls->txn, "InvAck without a transaction");
        ls->txn->latch.arrive();
        co_return;
    }
    co_await occupy(cfg_.ctrlOverhead);
    LineSlot *ls = lineSlot(m.gpage, m.lineIdx);
    prism_assert(ls && ls->txn, "%s reply without a transaction",
                 msgTypeName(m.type));
    ClientTxn *t = ls->txn;
    t->exclusive = m.exclusive;
    t->dataFetched = (m.type != MsgType::UpgAck) && (m.src != self_);
    t->threeParty = (m.type == MsgType::DataFwd);
    if (m.dynHome != kInvalidNode)
        t->dynHome = m.dynHome;
    if (m.homeFrame != kInvalidFrame)
        t->homeFrame = m.homeFrame;
    t->latch.expect(m.ackCount);
    t->latch.arm();
}

// ---------------------------------------------------------------------
// Lazy page migration
// ---------------------------------------------------------------------

void
CoherenceController::requestMigration(GPage gpage, NodeId new_home)
{
    send(Msg{.type = MsgType::MigrateReq,
             .dst = cfg_.staticHomeOf(gpage),
             .gpage = gpage,
             .aux = new_home});
}

void
CoherenceController::noteHomeAccess(GPage gpage, NodeId requester)
{
    HomeMeta *hm = homeMeta(gpage);
    if (!hm)
        return;
    ++hm->accessesByNode[requester];
    ++hm->totalAccesses;
}

void
CoherenceController::maybeTriggerMigration(GPage gpage)
{
    if (!cfg_.migrationEnabled)
        return;
    HomeMeta *hmp = homeMeta(gpage);
    if (!hmp || hmp->migrating)
        return;
    HomeMeta &hm = *hmp;
    if (hm.totalAccesses < cfg_.migrationThreshold)
        return;
    NodeId best = self_;
    std::uint32_t best_count = 0;
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        if (n != self_ && hm.accessesByNode[n] > best_count) {
            best = n;
            best_count = hm.accessesByNode[n];
        }
    }
    const bool dominant = best != self_ &&
                          2ULL * best_count > hm.totalAccesses;
    hm.accessesByNode.assign(cfg_.numNodes, 0);
    hm.totalAccesses = 0;
    if (dominant)
        requestMigration(gpage, best);
}

void
CoherenceController::dropSelfFromDir(GPage gp, std::vector<DirEntry> &dir)
{
    for (std::uint32_t i = 0; i < dir.size(); ++i) {
        DirEntry &d = dir[i];
        if (d.state == DirState::Shared) {
            d.removeSharer(self_);
            if (d.sharers.empty())
                d.state = DirState::Uncached;
        } else if (d.state == DirState::Owned && d.owner == self_) {
            d.state = DirState::Uncached;
            d.owner = kInvalidNode;
            if (oracle_)
                oracle_->onMigrateFlush(self_, gp, i);
        }
    }
}

FireAndForget
CoherenceController::handleMigratePrep(Msg m)
{
    const Tick t0 = eq_.now();
    co_await occupy(cfg_.ctrlOverhead);
    const GPage gp = m.gpage;
    const NodeId new_home = static_cast<NodeId>(m.aux);
    if (!dir_.hasPage(gp) || new_home == self_)
        co_return;
    HomeMeta *meta = homeMeta(gp);
    prism_assert(meta, "dir page without home meta");
    if (meta->migrating)
        co_return;
    meta->migrating = true;
    const FrameNum hf = pit_.frameOf(gp);

    // Quiesce: acquire every line lock so no transaction is in flight.
    HomePageRec &home = *pages_.at(gp).home;
    for (CoMutex &l : home.locks)
        co_await l.acquire();

    // Wait for local bus-level activity on the frame to drain, then
    // flush local processor copies into the home frame's memory.
    while (host_.anyBusPending(hf))
        co_await delay(cfg_.retryDelay);
    for (std::uint32_t i = 0; i < geo_.linesPerPage(); ++i) {
        auto r = host_.intervene(hf, i, true, eq_.now());
        co_await until(r.done);
        if (r.dirty)
            dram_.access(eq_.now());
    }

    auto payload = std::make_shared<MigrationPayload>();
    payload->dir = dir_.releasePage(gp);
    // Flushed above into the departing frame: the payload carries the
    // latest value of lines we owned as the new memory.
    dropSelfFromDir(gp, payload->dir);
    payload->kernelClients = home.clients;
    payload->kernelClients.remove(self_);
    payload->kernelClients.remove(new_home);

    send(Msg{.type = MsgType::MigrateData,
             .dst = new_home,
             .gpage = gp,
             .payload = payload});

    pages_.at(gp).movedTo = new_home;
    home.meta.reset();
    home.clients = SharerSet();
    host_.migrationFreeFrame(hf, gp);
    pit_.remove(hf);
    ++stats_.migrationsOut;
    latency_.migration.sample(eq_.now() - t0);
    if (trace_) {
        trace_->span("migration", "paging",
                     static_cast<std::int32_t>(self_), 0, t0, eq_.now());
    }

    // Release the locks; queued handlers will find the page gone and
    // forward toward the new home.
    for (CoMutex &l : home.locks)
        l.release();
}

FireAndForget
CoherenceController::handleMigrateData(Msg m)
{
    co_await occupy(cfg_.ctrlOverhead);
    auto payload = std::static_pointer_cast<MigrationPayload>(m.payload);
    const GPage gp = m.gpage;
    prism_assert(!dir_.hasPage(gp), "migration target already home");

    bool hash = false;
    FrameNum existing = pit_.reverse(gp, kInvalidFrame, hash);
    FrameNum hf = kInvalidFrame;

    if (existing != kInvalidFrame) {
        PitEntry *e = pit_.entry(existing);
        if (e->mode == PageMode::Scoma) {
            // Promote the client page-cache frame to the home frame;
            // its fine-grain tags already describe this node's rights.
            hf = existing;
            e->dynHome = self_;
            e->homeFrameHint = existing;
            if (oracle_) {
                // Lines we own stay Owned(self) in the adopted
                // directory, but the promoted frame is now the home
                // memory and it holds our (latest) data.
                for (std::uint32_t i = 0; i < payload->dir.size(); ++i) {
                    const DirEntry &d = payload->dir[i];
                    if (d.state == DirState::Owned && d.owner == self_)
                        oracle_->onMigrateFlush(self_, gp, i);
                }
            }
        } else {
            // LA-NUMA client mapping: collect processor copies into
            // memory, then retire the imaginary frame.
            for (std::uint32_t i = 0; i < geo_.linesPerPage(); ++i) {
                auto r = host_.intervene(existing, i, true, eq_.now());
                co_await until(r.done);
                if (r.dirty)
                    dram_.access(eq_.now());
            }
            // Collected above into what is now home memory.
            dropSelfFromDir(gp, payload->dir);
            pit_.remove(existing);
            host_.migrationFreeFrame(existing, gp);
        }
    }

    if (hf == kInvalidFrame) {
        hf = host_.migrationAllocFrame(gp);
        prism_assert(hf != kInvalidFrame, "migration frame alloc failed");
        PitEntry &e = pit_.install(hf, gp, cfg_.staticHomeOf(gp), self_, hf,
                                   PageMode::Scoma, geo_.linesPerPage(),
                                   FgTag::Invalid);
        // Derive this node's tags from the transferred directory.
        for (std::uint32_t i = 0; i < geo_.linesPerPage(); ++i) {
            const DirEntry &d = payload->dir[i];
            if (d.state == DirState::Owned && d.owner == self_)
                e.tags->set(i, FgTag::Exclusive);
            else if (d.state == DirState::Shared && d.isSharer(self_))
                e.tags->set(i, FgTag::Shared);
        }
    }

    dir_.adoptPage(gp, std::move(payload->dir));
    PageRec &r = pages_.at(gp);
    HomePageRec &home = pages_.home(r);
    home.meta.emplace().accessesByNode.assign(cfg_.numNodes, 0);
    // The clients come with the page, the home-page-status flag goes,
    // and a promoted client S-COMA frame leaves the client page cache.
    home.clients = payload->kernelClients;
    r.cachedHome = false;
    if (PitEntry *pe = pit_.entry(pit_.frameOf(gp));
        pe && pe->recencyLinked) {
        pit_.unlinkRecency(*pe);
    }
    r.movedTo = kInvalidNode;
    ++stats_.migrationsIn;

    // Charge receipt of the page-sized payload into memory.
    for (int i = 0; i < 8; ++i)
        dram_.access(eq_.now());

    send(Msg{.type = MsgType::MigrateDone,
             .dst = cfg_.staticHomeOf(gp),
             .gpage = gp});
}

void
CoherenceController::registerMetrics(MetricRegistry &reg)
{
    const std::int32_t n = static_cast<std::int32_t>(self_);
    auto counter = [&](const char *name, ScopedCounter &c,
                       const char *desc) {
        reg.bind(MetricLabels{"ctrl", n, name, "count"}, &c, desc);
    };
    counter("remoteMisses", stats_.remoteMisses,
            "misses that fetched data from a remote node");
    counter("localMemHits", stats_.localMemHits,
            "misses satisfied by local memory / page cache");
    counter("upgrades", stats_.upgrades,
            "write-permission transactions without data fetch");
    counter("retries", stats_.retries, "bus retries");
    counter("invalsSent", stats_.invalsSent, "");
    counter("invalsReceived", stats_.invalsReceived, "");
    counter("fetchesServed", stats_.fetchesServed, "");
    counter("nacksSent", stats_.nacksSent, "");
    counter("writebacksSent", stats_.writebacksSent, "");
    counter("replaceHintsSent", stats_.replaceHintsSent, "");
    counter("forwards", stats_.forwards,
            "misdirected requests forwarded (lazy migration)");
    counter("homeRequests", stats_.homeRequests, "");
    counter("migrationsOut", stats_.migrationsOut, "");
    counter("migrationsIn", stats_.migrationsIn, "");
    counter("firewallRejects", stats_.firewallRejects, "");

    auto hist = [&](const char *name, ScopedHistogram &h,
                    const char *desc) {
        reg.bind(MetricLabels{"ctrl", n, name, "cycles"}, &h, desc);
    };
    hist("latency.read2", latency_.read2,
         "2-party data-fetch transaction latency");
    hist("latency.read3", latency_.read3,
         "3-party (owner-forwarded) transaction latency");
    hist("latency.upgrade", latency_.upgrade,
         "permission-only upgrade latency");
    hist("latency.writeback", latency_.writeback,
         "home-side writeback handling latency");
    hist("latency.migration", latency_.migration,
         "migration prep-to-handoff latency");

    // Memory-footprint accounting: what the coherence metadata costs
    // on this node, sampled when the report is written.  Directory
    // bytes follow the SoA arena's live layout (state byte + owner id
    // + ceil(numNodes/64) sharer words per line); tag bytes are the
    // architected 2 bits per line of every tagged frame.
    reg.bind(MetricLabels{"footprint", n, "dirBytes", "bytes"},
             &gaugeDirBytes_,
             [this] { return static_cast<double>(dir_.liveBytes()); },
             "directory entry bytes for pages homed here");
    reg.bind(MetricLabels{"footprint", n, "dirPages", "pages"},
             &gaugeDirPages_,
             [this] { return static_cast<double>(dir_.numPages()); },
             "pages homed here (directory page count)");
    reg.bind(MetricLabels{"footprint", n, "pitEntries", "entries"},
             &gaugePitEntries_,
             [this] { return static_cast<double>(pit_.size()); },
             "live PIT entries (frame translations)");
    reg.bind(MetricLabels{"footprint", n, "tagBytes", "bytes"},
             &gaugeTagBytes_, [this] { return tagBytesModeled(); },
             "fine-grain tag bytes (2 bits/line) on S-COMA frames");
}

double
CoherenceController::tagBytesModeled() const
{
    std::uint64_t bytes = 0;
    for (FrameNum f : pit_.allFrames()) {
        const PitEntry *e = pit_.entry(f);
        if (e && e->tags)
            bytes += (e->tags->lines() + 3) / 4;
    }
    return static_cast<double>(bytes);
}

} // namespace prism
