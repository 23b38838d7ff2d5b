/**
 * @file
 * One PRISM compute node: four processors, a split-transaction memory
 * bus, local memory, an independent OS kernel, and the coherence
 * controller sitting between the bus and the network interface.
 *
 * Node implements the intra-node snooping protocol (peer caches
 * supply and downgrade/invalidate each other over the bus) driven by
 * the configured line-protocol table (coherence/line_protocol:
 * MSI/MESI/MOESI/MESIF), and is the
 * NodeHost through which the kernel and the coherence controller send
 * messages and reach the processor caches and TLBs, and through which
 * the controller gets and frees kernel frames for migration.
 */

#ifndef PRISM_CORE_NODE_HH
#define PRISM_CORE_NODE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "coherence/controller.hh"
#include "coherence/line_protocol.hh"
#include "core/config.hh"
#include "core/proc.hh"
#include "mem/bus.hh"
#include "mem/dram.hh"
#include "os/kernel.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"

namespace prism {

class Machine;

/** One compute node. */
class Node : public NodeHost
{
  public:
    Node(NodeId id, const MachineConfig &cfg, EventQueue &eq,
         Machine &machine, IpcServer &ipc);

    NodeId id() const { return id_; }
    Kernel &kernel() { return *kernel_; }
    CoherenceController &controller() { return *ctrl_; }
    MemoryBus &bus() { return bus_; }
    Dram &dram() { return dram_; }
    Proc &proc(std::uint32_t i) { return *procs_[i]; }
    std::uint32_t numProcs() const
    {
        return static_cast<std::uint32_t>(procs_.size());
    }

    /** Deliver a network message to this node. */
    void receive(Msg &&m);

    /** The line-protocol scheme this node's bus speaks. */
    const LineProtocol &protocol() const { return proto_; }

    /**
     * Service an access that missed in @p requester's caches (or
     * needs an upgrade).  Arbitrates the bus, snoops peer caches,
     * consults the coherence controller as needed, and fills the
     * requester's caches before returning.
     *
     * @param requester_state  merged L1/L2 state the requester held
     *        going in (Shared/Owned/Forward on write upgrades,
     *        Invalid on misses)
     */
    CoTask memAccess(Proc &requester, FrameNum frame,
                     std::uint32_t line_idx, bool write,
                     Mesi requester_state);

    // --- NodeHost -----------------------------------------------------------

    void send(Msg &&m) override;
    void shootdownTlb(VPage vp) override;
    void flushFrameCaches(FrameNum frame) override;
    InterventionResult intervene(FrameNum frame, std::uint32_t line_idx,
                                 bool invalidate, Tick at) override;
    bool anyBusPending(FrameNum frame) const override;
    bool anyCachedCopy(FrameNum frame) const override;
    bool lineCached(FrameNum frame, std::uint32_t line_idx) const override;
    FrameNum migrationAllocFrame(GPage gp) override;
    void migrationFreeFrame(FrameNum frame, GPage gp) override;

  private:
    DelayAwaiter delay(Cycles c) { return DelayAwaiter(eq_, c); }
    DelayAwaiter until(Tick t);

    NodeId id_;
    const MachineConfig &cfg_;
    EventQueue &eq_;
    Machine &machine_;
    LineGeometry geo_;
    const LineProtocol &proto_;
    MemoryBus bus_;
    Dram dram_;
    std::unique_ptr<Kernel> kernel_;
    std::unique_ptr<CoherenceController> ctrl_;
    std::vector<std::unique_ptr<Proc>> procs_;

    /**
     * Bus-level MSHR: the physical line address of each local
     * processor's outstanding node transaction (kNoBusLine when it has
     * none), held from before its address phase through the fill.  A
     * processor stalls on its miss, so it has at most one transaction
     * in flight and one slot per processor is enough.  A miss to a
     * line another processor has in flight is retried
     * (split-transaction bus retry semantics), which keeps miss
     * handling atomic with respect to local snoops.  Both that check
     * and anyBusPending() scan the procsPerNode slots.
     */
    static constexpr std::uint64_t kNoBusLine = ~0ULL;
    std::vector<std::uint64_t> busLine_;
};

} // namespace prism

#endif // PRISM_CORE_NODE_HH
