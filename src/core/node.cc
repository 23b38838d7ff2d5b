#include "core/node.hh"

#include <algorithm>

#include "core/machine.hh"

namespace prism {

Node::Node(NodeId id, const MachineConfig &cfg, EventQueue &eq,
           Machine &machine, IpcServer &ipc)
    : id_(id), cfg_(cfg), eq_(eq), machine_(machine), geo_(cfg.lineBytes),
      proto_(LineProtocol::get(cfg.protocol)),
      bus_(cfg.busAddrCycles, cfg.busDataCycles),
      dram_(cfg.memAccessCycles), busLine_(cfg.procsPerNode, kNoBusLine)
{
    kernel_ = std::make_unique<Kernel>(id, cfg, eq, ipc, *this);
    ctrl_ = std::make_unique<CoherenceController>(id, cfg, eq, dram_, *this);
    kernel_->attachController(ctrl_.get());

    for (std::uint32_t i = 0; i < cfg.procsPerNode; ++i) {
        ProcId pid = id * cfg.procsPerNode + i;
        procs_.push_back(
            std::make_unique<Proc>(pid, *this, machine, cfg, eq));
    }
}

DelayAwaiter
Node::until(Tick t)
{
    return DelayAwaiter(eq_, t > eq_.now() ? t - eq_.now() : 0);
}

void
Node::receive(Msg &&m)
{
    if (isKernelMsg(m.type))
        kernel_->receive(std::move(m));
    else
        ctrl_->onMessage(std::move(m));
}

CoTask
Node::memAccess(Proc &requester, FrameNum frame, std::uint32_t line_idx,
                bool write, Mesi requester_state)
{
    const std::uint64_t line_paddr =
        (frame << kPageShift) |
        (static_cast<std::uint64_t>(line_idx) << geo_.lineShift());

    // One node-level transaction per line at a time (bus retry).
    while (std::find(busLine_.begin(), busLine_.end(), line_paddr) !=
           busLine_.end())
        co_await delay(cfg_.retryDelay);
    std::uint64_t &slot = busLine_[requester.id() % cfg_.procsPerNode];
    prism_assert(slot == kNoBusLine,
                 "proc %u starts a bus transaction with one in flight",
                 requester.id());
    slot = line_paddr;
    struct PendingGuard {
        std::uint64_t &slot;
        ~PendingGuard() { slot = kNoBusLine; }
    } guard{slot};

    for (;;) {
        // Address tenure on the split-transaction bus.
        co_await until(bus_.addressPhase(eq_.now()));

        // Snoop peer caches.
        Proc *peer_owner = nullptr; // peer holding an owner-class state
        bool peer_dirty = false;
        bool peer_shared = false;     // any valid non-owner peer copy
        bool peer_can_supply = false; // ... that supplies snoop reads
        for (auto &pp : procs_) {
            if (pp.get() == &requester)
                continue;
            Mesi s = pp->snoopLine(line_paddr, false, false);
            if (ownerClass(s)) {
                peer_owner = pp.get();
                peer_dirty = dirtyLine(s);
                break;
            }
            if (s != Mesi::Invalid) {
                peer_shared = true;
                // MESIF: plain Shared copies stay silent; only the
                // Forward designee supplies cache-to-cache.
                if (proto_.on(s, LineEvent::SnoopRead).actions &
                    kActSupplyData)
                    peer_can_supply = true;
            }
        }

        // NOTE on ordering: every fill below charges the bus data
        // phase FIRST and then revalidates (fine-grain tag, fill
        // token, or peer re-snoop) immediately before fillLine with
        // no suspension in between, so a racing invalidation or
        // intervention can never slip between validation and fill.
        if (write) {
            // MOESI: Owned arises only from an intra-node snoop read
            // of Modified, so every sharer of an Owned line is on
            // this bus — a store to Owned upgrades with the local
            // address tenure alone, no directory round trip.  The
            // state is re-checked here (atomically with the upgrade:
            // no suspension below) in case a remote intervention
            // downgraded it while we waited for the bus.
            if (requester_state == Mesi::Owned &&
                requester.lineState(line_paddr) == Mesi::Owned) {
                for (auto &pp : procs_) {
                    if (pp.get() != &requester)
                        pp->snoopLine(line_paddr, true, false);
                }
                requester.fillLine(line_paddr, Mesi::Modified);
                co_return;
            }
            if (peer_owner) {
                // Cache-to-cache transfer with invalidation; the node
                // already has exclusivity at the inter-node level.
                co_await delay(cfg_.cacheToCache);
                co_await until(bus_.dataPhase(eq_.now()));
                Mesi cur = peer_owner->snoopLine(line_paddr, true, false);
                if (!ownerClass(cur)) {
                    // The copy vanished or was downgraded by a racing
                    // remote intervention: node exclusivity is gone.
                    co_await delay(cfg_.retryDelay);
                    continue;
                }
                // An Owned peer coexists with Shared copies: sweep
                // the remaining peers too (no-op under MESI, where an
                // owner excludes every other copy).
                for (auto &pp : procs_) {
                    if (pp.get() != &requester && pp.get() != peer_owner)
                        pp->snoopLine(line_paddr, true, false);
                }
                requester.fillLine(line_paddr, Mesi::Modified);
                co_return;
            }
            const bool local_copy =
                requester_state != Mesi::Invalid || peer_shared;
            MissResult res;
            co_await ctrl_->serviceMiss(frame, line_idx, true, local_copy,
                                        &res);
            if (res.source == MissSource::BadFrame)
                co_return; // caller re-translates and re-faults
            if (res.source == MissSource::Retry) {
                co_await delay(cfg_.retryDelay);
                continue;
            }
            co_await until(bus_.dataPhase(eq_.now()));
            if (!ctrl_->finishFill(frame, line_idx, Mesi::Modified)) {
                co_await delay(cfg_.retryDelay);
                continue;
            }
            // Invalidate peer S copies under the local bus protocol.
            for (auto &pp : procs_) {
                if (pp.get() != &requester)
                    pp->snoopLine(line_paddr, true, false);
            }
            requester.fillLine(line_paddr, Mesi::Modified);
            co_return;
        }

        // Read path.
        if (peer_owner) {
            co_await delay(cfg_.cacheToCache);
            co_await until(bus_.dataPhase(eq_.now()));
            Mesi cur =
                peer_owner->snoopLine(line_paddr, false, true, true);
            if (cur == Mesi::Invalid) {
                co_await delay(cfg_.retryDelay);
                continue;
            }
            if (ownerClass(cur)) {
                // Relinquish node ownership / reflect dirty data as
                // the supplier's transition demands.  MOESI's M->O
                // retains both the dirty data and node ownership, so
                // nothing reaches the controller.
                const Transition &t =
                    proto_.on(cur, LineEvent::SnoopRead);
                if (t.actions & kActRelinquish)
                    ctrl_->reflectDowngrade(
                        frame, line_idx,
                        (t.actions & kActWritebackData) || peer_dirty);
            } else {
                // A racing remote intervention already downgraded the
                // copy; reflect any dirty data it held at snoop time.
                ctrl_->reflectDowngrade(frame, line_idx, peer_dirty);
            }
            requester.fillLine(line_paddr, proto_.peerReadFill());
            co_return;
        }
        if (peer_can_supply) {
            // A supply-capable node-level copy exists; supply locally,
            // unless a racing invalidation removed it meanwhile.
            co_await delay(cfg_.cacheToCache);
            co_await until(bus_.dataPhase(eq_.now()));
            bool still_valid = false;
            for (auto &pp : procs_) {
                if (pp.get() == &requester)
                    continue;
                Mesi s = pp->snoopLine(line_paddr, false, true, true);
                if (s == Mesi::Invalid)
                    continue;
                const Transition *t =
                    proto_.tryOn(s, LineEvent::SnoopRead);
                if (t && (t->actions & kActSupplyData)) {
                    still_valid = true;
                    break;
                }
            }
            if (!still_valid) {
                co_await delay(cfg_.retryDelay);
                continue;
            }
            requester.fillLine(line_paddr, proto_.peerReadFill());
            co_return;
        }
        MissResult res;
        co_await ctrl_->serviceMiss(frame, line_idx, false, false, &res);
        if (res.source == MissSource::BadFrame)
            co_return; // caller re-translates and re-faults
        if (res.source == MissSource::Retry) {
            co_await delay(cfg_.retryDelay);
            continue;
        }
        const Mesi grant = proto_.readFill(res.exclusive);
        co_await until(bus_.dataPhase(eq_.now()));
        if (!ctrl_->finishFill(frame, line_idx, grant)) {
            co_await delay(cfg_.retryDelay);
            continue;
        }
        requester.fillLine(line_paddr, grant);
        // MSI has no clean-exclusive state: give an exclusive grant's
        // node-level ownership straight back to the home, else the
        // directory would hold this node as Owner of a line every
        // local cache thinks is merely Shared (and could drop
        // silently).
        if (res.exclusive && proto_.demoteExclusiveReadGrant())
            ctrl_->reflectDowngrade(frame, line_idx, false);
        co_return;
    }
}

void
Node::send(Msg &&m)
{
    machine_.route(std::move(m));
}

void
Node::shootdownTlb(VPage vp)
{
    for (auto &p : procs_)
        p->shootdown(vp);
}

void
Node::flushFrameCaches(FrameNum frame)
{
    for (auto &p : procs_)
        p->invalidateFrame(frame);
}

InterventionResult
Node::intervene(FrameNum frame, std::uint32_t line_idx, bool invalidate,
                Tick at)
{
    const std::uint64_t line_paddr =
        (frame << kPageShift) |
        (static_cast<std::uint64_t>(line_idx) << geo_.lineShift());
    bool found = false;
    bool dirty = false;
    bool exclusive = false;
    for (auto &p : procs_) {
        Mesi s = p->snoopLine(line_paddr, invalidate, !invalidate);
        if (s == Mesi::Invalid)
            continue;
        found = true;
        if (dirtyLine(s))
            dirty = true;
        if (ownerClass(s))
            exclusive = true;
    }
    Tick done = bus_.addressPhase(at);
    if (dirty)
        done = bus_.dataPhase(done);
    return InterventionResult{done, found, dirty, exclusive};
}

bool
Node::anyBusPending(FrameNum frame) const
{
    for (const std::uint64_t line : busLine_) {
        if (line != kNoBusLine && line >> kPageShift == frame)
            return true;
    }
    return false;
}

bool
Node::anyCachedCopy(FrameNum frame) const
{
    for (const auto &p : procs_) {
        Proc &proc = *p; // cache accessors are non-const
        if (proc.l2().anyInFrame(frame) || proc.l1().anyInFrame(frame))
            return true;
    }
    return false;
}

bool
Node::lineCached(FrameNum frame, std::uint32_t line_idx) const
{
    const std::uint64_t line_paddr =
        (frame << kPageShift) |
        (static_cast<std::uint64_t>(line_idx) << geo_.lineShift());
    for (const auto &p : procs_) {
        if (p->lineState(line_paddr) != Mesi::Invalid)
            return true;
    }
    return false;
}

FrameNum
Node::migrationAllocFrame(GPage gp)
{
    return kernel_->migrationAllocFrame(gp);
}

void
Node::migrationFreeFrame(FrameNum frame, GPage gp)
{
    kernel_->migrationFreeFrame(frame, gp);
}

} // namespace prism
