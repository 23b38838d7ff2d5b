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
CoherenceController::forward(Msg &&m)
{
    ++stats_.forwards;
    NodeId target;
    auto moved = movedTo_.find(m.gpage);
    if (moved != movedTo_.end()) {
        target = moved->second;
    } else if (cfg_.staticHomeOf(m.gpage) == self_) {
        auto r = registry_.find(m.gpage);
        prism_assert(r != registry_.end(),
                     "static home has no registry entry for forwarded msg");
        target = r->second;
        prism_assert(target != self_, "registry points at a node "
                     "without the directory page");
    } else {
        target = cfg_.staticHomeOf(m.gpage);
    }
    m.dst = target;
    send(std::move(m));
}

CoMutex &
CoherenceController::lineLock(GPage gpage, std::uint32_t line_idx)
{
    auto &v = locks_[gpage];
    if (v.empty()) {
        v.reserve(geo_.linesPerPage());
        for (std::uint32_t i = 0; i < geo_.linesPerPage(); ++i)
            v.push_back(std::make_unique<CoMutex>(eq_));
    }
    return *v[line_idx];
}

bool
CoherenceController::homePageQuiescent(GPage gpage) const
{
    auto it = locks_.find(gpage);
    if (it != locks_.end()) {
        for (const auto &l : it->second) {
            if (l->held())
                return false;
        }
    }
    for (const auto &[gl, wait] : homeWaits_) {
        if (geo_.pageOf(gl) == gpage)
            return false;
    }
    return true;
}

NodeId
CoherenceController::registryLookup(GPage gpage) const
{
    auto it = registry_.find(gpage);
    return it == registry_.end() ? kInvalidNode : it->second;
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
        GLine gl = geo_.lineOf(e->gpage, line_idx);
        if (pending_.count(gl)) {
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
        GLine gl = geo_.lineOf(gpage, line_idx);
        if (pending_.count(gl)) {
            ++stats_.retries;
            out->source = MissSource::Retry;
            co_return;
        }
        if (fillPending_.count(gl)) {
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
        if (fillPending_.emplace(gl, FillToken{}).second)
            pendingPageAdd(gpage);
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
    GLine gl = geo_.lineOf(e.gpage, line_idx);
    ClientTxn txn(eq_);
    pending_[gl] = &txn;
    pendingPageAdd(e.gpage);

    const Tick t0 = eq_.now();
    co_await occupy(cfg_.ctrlOverhead); // compose request, dispatch

    Msg m;
    m.type = mt;
    m.dst = e.dynHome;
    m.gpage = e.gpage;
    m.lineIdx = line_idx;
    m.requester = self_;
    m.requesterFrame = frame;
    m.dstFrameHint = e.homeFrameHint;
    send(std::move(m));

    const GPage gpage = e.gpage;
    co_await txn.latch.wait();
    pending_.erase(gl);
    pendingPageRemove(gpage);

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
        GLine gl = geo_.lineOf(e->gpage, line_idx);
        auto it = fillPending_.find(gl);
        if (it == fillPending_.end())
            return true; // peer-supplied fill; validated by the caller
        const bool ok = !it->second.invalidated;
        fillPending_.erase(it);
        pendingPageRemove(e->gpage);
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
            Msg wb;
            wb.type = MsgType::Writeback;
            wb.dst = e->dynHome;
            wb.gpage = e->gpage;
            wb.lineIdx = line_idx;
            wb.dstFrameHint = e->homeFrameHint;
            wb.dirty = true;
            // An evicted Owned line may leave peer Shared copies
            // behind on this node's bus: the node stays a sharer.
            wb.keepShared = victim_state == Mesi::Owned &&
                            host_.lineCached(frame, line_idx);
            wb.requester = self_;
            ++stats_.writebacksSent;
            send(std::move(wb));
        } else if (victim_state == Mesi::Exclusive) {
            // A silent clean-exclusive drop would leave the full-map
            // directory believing we still own the line.
            Msg h;
            h.type = MsgType::ReplaceHint;
            h.dst = e->dynHome;
            h.gpage = e->gpage;
            h.lineIdx = line_idx;
            h.dstFrameHint = e->homeFrameHint;
            h.requester = self_;
            ++stats_.replaceHintsSent;
            send(std::move(h));
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
        Msg wb;
        wb.type = MsgType::Writeback;
        wb.dst = e->dynHome;
        wb.gpage = e->gpage;
        wb.lineIdx = line_idx;
        wb.dstFrameHint = e->homeFrameHint;
        wb.dirty = dirty;
        wb.keepShared = true;
        wb.requester = self_;
        ++stats_.writebacksSent;
        send(std::move(wb));
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
    lineLock(gpage, 0); // materialize the lock vector
    HomeMeta &hm = homeMeta_[gpage];
    hm.homeFrame = frame;
    hm.accessesByNode.assign(cfg_.numNodes, 0);
    hm.totalAccesses = 0;
    hm.migrating = false;
    if (cfg_.staticHomeOf(gpage) == self_)
        registry_[gpage] = self_;
    movedTo_.erase(gpage);
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
                          pendingByPage_.count(e->gpage) != 0;
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
            if (r.done > eq_.now())
                co_await DelayAwaiter(eq_, r.done - eq_.now());
            if (r.dirty)
                dram_.access(eq_.now()); // collect into the page cache
            if (tag == FgTag::Exclusive) {
                co_await dramAccess(); // read the line for writeback
                Msg wb;
                wb.type = MsgType::Writeback;
                wb.dst = e->dynHome;
                wb.gpage = e->gpage;
                wb.lineIdx = i;
                wb.dstFrameHint = e->homeFrameHint;
                wb.dirty = true;
                wb.requester = self_;
                ++stats_.writebacksSent;
                ++wrote;
                send(std::move(wb));
            }
        } else {
            auto r = host_.intervene(frame, i, true, eq_.now());
            if (r.done > eq_.now())
                co_await DelayAwaiter(eq_, r.done - eq_.now());
            if (!r.found)
                continue;
            if (r.dirty) {
                Msg wb;
                wb.type = MsgType::Writeback;
                wb.dst = e->dynHome;
                wb.gpage = e->gpage;
                wb.lineIdx = i;
                wb.dstFrameHint = e->homeFrameHint;
                wb.dirty = true;
                wb.requester = self_;
                ++stats_.writebacksSent;
                ++wrote;
                send(std::move(wb));
            } else if (r.exclusive) {
                Msg h;
                h.type = MsgType::ReplaceHint;
                h.dst = e->dynHome;
                h.gpage = e->gpage;
                h.lineIdx = i;
                h.dstFrameHint = e->homeFrameHint;
                h.requester = self_;
                ++stats_.replaceHintsSent;
                send(std::move(h));
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
    return pendingByPage_.count(e->gpage) == 0;
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
    homeMeta_.erase(gpage);
    pit_.remove(frame);
    if (cfg_.staticHomeOf(gpage) == self_) {
        registry_.erase(gpage);
    } else {
        Msg m;
        m.type = MsgType::MigrateDone;
        m.dst = cfg_.staticHomeOf(gpage);
        m.gpage = gpage;
        m.aux = 1; // erase-registry sentinel
        send(std::move(m));
    }
}

// ---------------------------------------------------------------------
// Network side
// ---------------------------------------------------------------------

void
CoherenceController::onMessage(Msg m)
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
        GLine gl = geo_.lineOf(m.gpage, m.lineIdx);
        auto it = homeWaits_.find(gl);
        prism_assert(it != homeWaits_.end(),
                     "%s without a waiting home transaction",
                     msgTypeName(m.type));
        if (m.type == MsgType::FetchNack)
            it->second->nacked = true;
        else
            it->second->dirty = m.dirty;
        it->second->event.signal();
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
        auto it = registry_.find(m.gpage);
        if (it == registry_.end())
            return; // page gone; drop
        NodeId target = static_cast<NodeId>(m.aux);
        if (it->second == target)
            return;
        Msg prep;
        prep.type = MsgType::MigratePrep;
        prep.dst = it->second;
        prep.gpage = m.gpage;
        prep.aux = m.aux;
        send(std::move(prep));
        return;
      }
      case MsgType::MigratePrep:
        handleMigratePrep(std::move(m));
        return;
      case MsgType::MigrateData:
        handleMigrateData(std::move(m));
        return;
      case MsgType::MigrateDone:
        if (m.aux == 1)
            registry_.erase(m.gpage);
        else
            registry_[m.gpage] = m.src;
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
        auto hm = homeMeta_.find(m.gpage);
        if (hm != homeMeta_.end()) {
            if (hm->second.clientFrames.empty()) {
                hm->second.clientFrames.assign(cfg_.numNodes,
                                               kInvalidFrame);
            }
            hm->second.clientFrames[m.requester] = m.requesterFrame;
        }
    }

    bool hash = false;
    FrameNum hf = pit_.reverse(m.gpage, m.dstFrameHint, hash);
    prism_assert(hf != kInvalidFrame, "home has dir page but no PIT entry");
    co_await delay(pit_.reverseCycles(hash));
    PitEntry *he = nullptr;

    const std::uint32_t li = m.lineIdx;
    const GLine gl = geo_.lineOf(m.gpage, li);
    CoMutex &lk = lineLock(m.gpage, li);
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
    TRC(m.gpage, li, "home%u req %s from n%u state=%s owner=%u sh=%s t=%llu",
        self_, msgTypeName(m.type), req, dirStateName(d.state()), d.owner(),
        d.sharers().toString().c_str(), (unsigned long long)eq_.now());

    for (;;) {
        if (d.state() == DirState::Uncached) {
            co_await dramAccess();
            Msg r;
            r.type = MsgType::Data;
            r.dst = req;
            r.gpage = m.gpage;
            r.lineIdx = li;
            r.requester = req;
            r.dstFrameHint = m.requesterFrame;
            r.homeFrame = hf;
            r.dynHome = self_;
            r.exclusive = true;
            d.setState(DirState::Owned);
            d.setOwner(req);
            d.clearSharers();
            if (oracle_)
                oracle_->onHomeGrantFromMemory(self_, m.gpage, li, req);
            send(std::move(r));
            break;
        }
        if (d.state() == DirState::Shared) {
            if (!for_write) {
                co_await dramAccess();
                Msg r;
                r.type = MsgType::Data;
                r.dst = req;
                r.gpage = m.gpage;
                r.lineIdx = li;
                r.requester = req;
                r.dstFrameHint = m.requesterFrame;
                r.homeFrame = hf;
                r.dynHome = self_;
                r.exclusive = false;
                d.addSharer(req);
                if (oracle_)
                    oracle_->onHomeGrantFromMemory(self_, m.gpage, li,
                                                   req);
                send(std::move(r));
                break;
            }
            // Write to a shared line: invalidate the other sharers.
            const bool req_was_sharer = d.isSharer(req);
            if (d.isSharer(self_) && self_ != req) {
                // Home's own copy is invalidated inline; mirror
                // handleClientInv and poison any racing local
                // transaction or pending fill for the line.
                auto pt = pending_.find(gl);
                if (pt != pending_.end())
                    pt->second->invalidatedMidFlight = true;
                auto ft = fillPending_.find(gl);
                if (ft != fillPending_.end())
                    ft->second.invalidated = true;
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
                if (r.done > eq_.now())
                    co_await DelayAwaiter(eq_, r.done - eq_.now());
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
                Msg inv;
                inv.type = MsgType::Inv;
                inv.dst = n;
                inv.gpage = m.gpage;
                inv.lineIdx = li;
                inv.requester = req;
                if (cfg_.dirClientFrameHints) {
                    auto hm = homeMeta_.find(m.gpage);
                    if (hm != homeMeta_.end() &&
                        !hm->second.clientFrames.empty()) {
                        inv.dstFrameHint = hm->second.clientFrames[n];
                    }
                }
                ++acks;
                ++stats_.invalsSent;
                eq_.snapNote(SnapKind::InvalSent);
                send(std::move(inv));
            }
            if (m.type == MsgType::Upgrade && req_was_sharer) {
                Msg r;
                r.type = MsgType::UpgAck;
                r.dst = req;
                r.gpage = m.gpage;
                r.lineIdx = li;
                r.requester = req;
                r.homeFrame = hf;
                r.dynHome = self_;
                r.exclusive = true;
                r.ackCount = acks;
                if (oracle_)
                    oracle_->onHomeUpgradeGrant(self_, m.gpage, li, req);
                send(std::move(r));
            } else {
                co_await dramAccess();
                Msg r;
                r.type = MsgType::Data;
                r.dst = req;
                r.gpage = m.gpage;
                r.lineIdx = li;
                r.requester = req;
                r.dstFrameHint = m.requesterFrame;
                r.homeFrame = hf;
                r.dynHome = self_;
                r.exclusive = true;
                r.ackCount = acks;
                if (oracle_)
                    oracle_->onHomeGrantFromMemory(self_, m.gpage, li,
                                                   req);
                send(std::move(r));
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
            while (pending_.count(gl) || fillPending_.count(gl))
                co_await delay(cfg_.retryDelay);
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
            if (r.done > eq_.now())
                co_await DelayAwaiter(eq_, r.done - eq_.now());
            if (r.dirty)
                dram_.access(eq_.now()); // collect into memory
            co_await dramAccess(); // read for the reply
            Msg rep;
            rep.type = MsgType::Data;
            rep.dst = req;
            rep.gpage = m.gpage;
            rep.lineIdx = li;
            rep.requester = req;
            rep.dstFrameHint = m.requesterFrame;
            rep.homeFrame = hf;
            rep.dynHome = self_;
            rep.exclusive = for_write;
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
            send(std::move(rep));
            break;
        }
        // 3-party transaction: intervene at the remote owner.
        const NodeId owner = d.owner();
        HomeWait wait(eq_);
        homeWaits_[gl] = &wait;
        Msg f;
        f.type = MsgType::Fetch;
        f.dst = owner;
        f.gpage = m.gpage;
        f.lineIdx = li;
        f.requester = req;
        f.requesterFrame = m.requesterFrame;
        f.forWrite = for_write;
        f.homeFrame = hf;
        f.dynHome = self_;
        send(std::move(f));
        co_await wait.event.wait();
        homeWaits_.erase(gl);
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
    // Poison any racing client transaction / pending fill for this
    // line: a shared grant in flight must not install a stale copy.
    {
        GLine gl = geo_.lineOf(m.gpage, m.lineIdx);
        auto pit_txn = pending_.find(gl);
        if (pit_txn != pending_.end())
            pit_txn->second->invalidatedMidFlight = true;
        auto fit = fillPending_.find(gl);
        if (fit != fillPending_.end())
            fit->second.invalidated = true;
    }
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
        if (r.done > eq_.now())
            co_await DelayAwaiter(eq_, r.done - eq_.now());
    }
    Msg ack;
    ack.type = MsgType::InvAck;
    ack.dst = m.requester;
    ack.gpage = m.gpage;
    ack.lineIdx = m.lineIdx;
    ack.requester = m.requester;
    send(std::move(ack));
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
                if (r.done > eq_.now())
                    co_await DelayAwaiter(eq_, r.done - eq_.now());
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
                if (r.done > eq_.now())
                    co_await DelayAwaiter(eq_, r.done - eq_.now());
                dirty_to_home = !m.forWrite && r.dirty;
            }
        }
    }

    TRC(m.gpage, m.lineIdx, "n%u fetch forW=%d have=%d t=%llu", self_,
        (int)m.forWrite, (int)have, (unsigned long long)eq_.now());
    if (!have) {
        ++stats_.nacksSent;
        Msg n;
        n.type = MsgType::FetchNack;
        n.dst = home;
        n.gpage = m.gpage;
        n.lineIdx = m.lineIdx;
        send(std::move(n));
        co_return;
    }

    ++stats_.fetchesServed;
    Msg dmsg;
    dmsg.type = MsgType::DataFwd;
    dmsg.dst = m.requester;
    dmsg.gpage = m.gpage;
    dmsg.lineIdx = m.lineIdx;
    dmsg.requester = m.requester;
    dmsg.dstFrameHint = m.requesterFrame;
    dmsg.homeFrame = m.homeFrame;
    dmsg.dynHome = m.dynHome;
    dmsg.exclusive = m.forWrite;
    if (oracle_)
        oracle_->onOwnerServe(self_, m.gpage, m.lineIdx, m.requester,
                              m.forWrite);
    send(std::move(dmsg));

    Msg x;
    x.type = MsgType::XferNotice;
    x.dst = home;
    x.gpage = m.gpage;
    x.lineIdx = m.lineIdx;
    x.dirty = dirty_to_home;
    x.keepShared = !m.forWrite;
    send(std::move(x));
}

FireAndForget
CoherenceController::handleClientReply(Msg m)
{
    if (m.type == MsgType::InvAck) {
        GLine gl = geo_.lineOf(m.gpage, m.lineIdx);
        auto it = pending_.find(gl);
        prism_assert(it != pending_.end(), "InvAck without a transaction");
        it->second->latch.arrive();
        co_return;
    }
    co_await occupy(cfg_.ctrlOverhead);
    GLine gl = geo_.lineOf(m.gpage, m.lineIdx);
    auto it = pending_.find(gl);
    prism_assert(it != pending_.end(), "%s reply without a transaction",
                 msgTypeName(m.type));
    ClientTxn *t = it->second;
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
    Msg m;
    m.type = MsgType::MigrateReq;
    m.dst = cfg_.staticHomeOf(gpage);
    m.gpage = gpage;
    m.aux = new_home;
    send(std::move(m));
}

void
CoherenceController::noteHomeAccess(GPage gpage, NodeId requester)
{
    auto it = homeMeta_.find(gpage);
    if (it == homeMeta_.end())
        return;
    ++it->second.accessesByNode[requester];
    ++it->second.totalAccesses;
}

void
CoherenceController::maybeTriggerMigration(GPage gpage)
{
    if (!cfg_.migrationEnabled)
        return;
    auto it = homeMeta_.find(gpage);
    if (it == homeMeta_.end() || it->second.migrating)
        return;
    HomeMeta &hm = it->second;
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

FireAndForget
CoherenceController::handleMigratePrep(Msg m)
{
    const Tick t0 = eq_.now();
    co_await occupy(cfg_.ctrlOverhead);
    const GPage gp = m.gpage;
    const NodeId new_home = static_cast<NodeId>(m.aux);
    if (!dir_.hasPage(gp) || new_home == self_)
        co_return;
    auto meta_it = homeMeta_.find(gp);
    prism_assert(meta_it != homeMeta_.end(), "dir page without home meta");
    if (meta_it->second.migrating)
        co_return;
    meta_it->second.migrating = true;
    const FrameNum hf = meta_it->second.homeFrame;

    // Quiesce: acquire every line lock so no transaction is in flight.
    auto &lks = locks_[gp];
    for (auto &l : lks)
        co_await l->acquire();

    // Wait for local bus-level activity on the frame to drain, then
    // flush local processor copies into the home frame's memory.
    while (host_.anyBusPending(hf))
        co_await delay(cfg_.retryDelay);
    for (std::uint32_t i = 0; i < geo_.linesPerPage(); ++i) {
        auto r = host_.intervene(hf, i, true, eq_.now());
        if (r.done > eq_.now())
            co_await DelayAwaiter(eq_, r.done - eq_.now());
        if (r.dirty)
            dram_.access(eq_.now());
    }

    auto payload = std::make_shared<MigrationPayload>();
    payload->dir = dir_.releasePage(gp);
    for (std::uint32_t i = 0; i < payload->dir.size(); ++i) {
        DirEntry &d = payload->dir[i];
        if (d.state == DirState::Shared) {
            d.removeSharer(self_);
            if (d.sharers.empty())
                d.state = DirState::Uncached;
        } else if (d.state == DirState::Owned && d.owner == self_) {
            d.state = DirState::Uncached;
            d.owner = kInvalidNode;
            // Flushed above into the departing frame: the payload
            // carries the line's latest value as the new memory.
            if (oracle_)
                oracle_->onMigrateFlush(self_, gp, i);
        }
    }
    payload->kernelClients = host_.homeKernelClients(gp);
    payload->kernelClients.remove(self_);
    payload->kernelClients.remove(new_home);

    Msg data;
    data.type = MsgType::MigrateData;
    data.dst = new_home;
    data.gpage = gp;
    data.payload = payload;
    send(std::move(data));

    movedTo_[gp] = new_home;
    homeMeta_.erase(gp);
    host_.homeKernelDepart(gp);
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
    for (auto &l : lks)
        l->release();
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
                if (r.done > eq_.now())
                    co_await DelayAwaiter(eq_, r.done - eq_.now());
                if (r.dirty)
                    dram_.access(eq_.now());
            }
            for (std::uint32_t i = 0; i < payload->dir.size(); ++i) {
                DirEntry &d = payload->dir[i];
                if (d.state == DirState::Shared) {
                    d.removeSharer(self_);
                    if (d.sharers.empty())
                        d.state = DirState::Uncached;
                } else if (d.state == DirState::Owned &&
                           d.owner == self_) {
                    d.state = DirState::Uncached;
                    d.owner = kInvalidNode;
                    // Collected above into what is now home memory.
                    if (oracle_)
                        oracle_->onMigrateFlush(self_, gp, i);
                }
            }
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
    lineLock(gp, 0); // materialize locks
    HomeMeta &hm = homeMeta_[gp];
    hm.homeFrame = hf;
    hm.accessesByNode.assign(cfg_.numNodes, 0);
    hm.totalAccesses = 0;
    hm.migrating = false;
    host_.homeKernelAdopt(gp, payload->kernelClients);
    movedTo_.erase(gp);
    ++stats_.migrationsIn;

    // Charge receipt of the page-sized payload into memory.
    for (int i = 0; i < 8; ++i)
        dram_.access(eq_.now());

    Msg done;
    done.type = MsgType::MigrateDone;
    done.dst = cfg_.staticHomeOf(gp);
    done.gpage = gp;
    send(std::move(done));
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
