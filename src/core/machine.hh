/**
 * @file
 * The PRISM machine: nodes, interconnect, global IPC, synchronization
 * managers, and the run loop.
 *
 * This is the library's main entry point: construct a Machine from a
 * MachineConfig, create and attach global segments, hand each
 * processor a program coroutine, and run() to completion.
 */

#ifndef PRISM_CORE_MACHINE_HH
#define PRISM_CORE_MACHINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "coherence/msg.hh"
#include "core/config.hh"
#include "core/metrics.hh"
#include "core/node.hh"
#include "core/sync.hh"
#include "net/network.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "os/ipc_server.hh"
#include "sim/event_queue.hh"
#include "sim/shard.hh"
#include "sim/snap_log.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace prism {

class ProtocolOracle;
class RefSink;
class TraceSink;

/**
 * Everything one event-loop shard owns (sim/shard.hh).  Each shard
 * drives a contiguous block of nodes; all fields are written only by
 * the owning shard's thread during a window, and read/reset only by
 * the coordinator between windows.  With one shard (jobsIntra == 1,
 * the default) the sync-op log and mark flag stay idle: ops are
 * applied at issue.
 */
struct MachineShard {
    EventQueue eq;
    /** Tick-tagged snapshot-counter increments (mark adjustment). */
    SnapshotLog snapLog;
    /** Sync ops logged this window, applied at the barrier. */
    std::vector<SyncOp> syncOps;
    /** Last-N message history for this shard's nodes. */
    TraceRing msgRing;
    /** Recycled message boxes for route() (freed by the *destination*
     *  shard, so boxes migrate between pools; see Machine::route). */
    std::vector<std::unique_ptr<Msg>> msgPool;
    /** A parallel-phase mark was logged and not yet applied: the
     *  window is truncated and stays truncated until the coordinator
     *  applies the mark and front-splices the continuation. */
    bool markHit = false;
    /** Programs finished on this shard, and the last finish tick. */
    std::uint32_t done = 0;
    Tick lastDone = 0;
};

/** The whole simulated multiprocessor. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return cfg_; }

    /**
     * Shard 0's event queue — the only queue when there is one shard
     * (jobsIntra == 1, the default).  Callers that drive the queue by
     * hand (latency probes, unit tests) require one shard.
     */
    EventQueue &eventQueue() { return shards_[0]->eq; }

    /** Number of event-loop shards (jobsIntra, capped at numNodes). */
    std::uint32_t
    numShards() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }

    /** Shard driving @p n 's event loop. */
    std::uint32_t shardOfNode(NodeId n) const { return shardOfNode_[n]; }

    /**
     * Conservative window lookahead, cycles; kTickMax with one shard,
     * which has no cross-shard reaction to wait for.
     */
    Cycles lookahead() const { return lookahead_; }

    /** Events executed, aggregated over every shard's queue. */
    std::uint64_t
    eventsExecuted() const
    {
        std::uint64_t total = 0;
        for (const auto &sh : shards_)
            total += sh->eq.eventsExecuted();
        return total;
    }

    Network &network() { return *net_; }
    IpcServer &ipc() { return ipc_; }
    MetricRegistry &metricRegistry() { return registry_; }
    const MetricRegistry &metricRegistry() const { return registry_; }

    /**
     * Always-on bounded history of recent protocol messages (the
     * last-N debugging buffer; see obs/ for the full trace sink).
     * Each shard keeps its own ring; this returns shard 0's (the
     * whole history with one shard).
     */
    const TraceRing &messageRing() const { return shards_[0]->msgRing; }

    /** Shard @p s 's message-history ring. */
    const TraceRing &
    messageRing(std::uint32_t s) const
    {
        return shards_[s]->msgRing;
    }

    /** Protocol oracle; nullptr when oracleMode is Off. */
    ProtocolOracle *oracle() { return oracle_.get(); }

    /**
     * Attach (or with nullptr detach) a reference-stream recorder:
     * segment setup calls report here, and every processor's program
     * interface is hooked (frontend/ref_sink.hh).
     */
    void setRefSink(RefSink *s);

    Node &node(NodeId n) { return *nodes_[n]; }
    std::uint32_t numNodes() const
    {
        return static_cast<std::uint32_t>(nodes_.size());
    }

    /** Processor by global id (node-major numbering). */
    Proc &
    proc(ProcId p)
    {
        return nodes_[p / cfg_.procsPerNode]->proc(p % cfg_.procsPerNode);
    }

    std::uint32_t numProcs() const { return cfg_.numProcs(); }

    // --- Global shared memory setup ---------------------------------------

    /** Globalized shmget: allocate/look up a segment. */
    std::uint64_t shmget(std::uint64_t key, std::uint64_t bytes);

    /**
     * Globalized shmat on every node: bind virtual segment @p vsid to
     * global segment @p gsid at identical virtual addresses (the
     * loader behaviour described in Section 3.3).
     */
    void shmatAll(std::uint64_t vsid, std::uint64_t gsid);

    // --- Running programs ------------------------------------------------

    /**
     * Run one program coroutine per processor to completion, then
     * drain all residual activity (writebacks etc.).  @p make is
     * called once per processor to create its program.  May be called
     * again on the same machine; programs start at the current tick.
     */
    void run(const std::function<CoTask(Proc &)> &make);

    /**
     * Issue a synchronization op (Proc's lock/unlock/barrier and
     * parallel-phase marks).  One shard applies it at once; several
     * log it with the issuing shard for the coordinator.
     * @retval true if the issuer stays suspended until a grant.
     */
    bool submitSync(const SyncOp &op);

    // --- Parallel-phase measurement ------------------------------------

    Tick parallelBeginTick() const { return parallelBegin_; }

    /**
     * Aggregate run metrics (see RunMetrics), derived entirely from
     * the labeled metric registry.  Non-const: refreshes gauge samples.
     */
    RunMetrics metrics();

    Tick parallelEndTick() const
    {
        return parallelEndSet_ ? parallelEnd_ : lastProcDone_;
    }

    /** Build the full structured run report (see obs/report.hh). */
    RunReport report() { return buildRunReport(*this); }

    /** Route a protocol message through the network. */
    void route(Msg &&m);

  private:
    struct Snapshot {
        std::uint64_t remoteMisses = 0;
        std::uint64_t clientPageOuts = 0;
        std::uint64_t upgrades = 0;
        std::uint64_t invalidations = 0;
        std::uint64_t networkMessages = 0;
        std::uint64_t pageFaults = 0;
    };

    Snapshot snapshot() const;

    /**
     * snapshot() as of tick @p at: the registry totals minus every
     * increment other shards (not @p mark_shard, whose own execution
     * order already respects the mark) logged at or after @p at.
     */
    Snapshot snapshotAdjusted(Tick at, std::uint32_t mark_shard) const;

    // --- Run loop ------------------------------------------------------

    /** Windows of [W, W+L) until every queue and channel is dry. */
    void runLoop();

    /** One shard's slice of a window: run events below windowLimit_. */
    void runShardWindow(std::uint32_t s);

    /**
     * Apply a sync op to the lock/barrier managers or, for a mark,
     * take the parallel-phase snapshot as of the op's tick.
     * @retval true if the issuer waits for a grant.
     */
    bool applySync(const SyncOp &op);

    /** Index of the shard that owns @p q. */
    std::uint32_t shardOfQueue(const EventQueue *q) const;

    MachineConfig cfg_;
    /** Event-loop shards, one or more.  unique_ptr for address
     *  stability: nodes hold EventQueue&. */
    std::vector<std::unique_ptr<MachineShard>> shards_;
    std::vector<std::uint32_t> shardOfNode_;
    /** kTickMax unless sharded: one shard runs one window. */
    Cycles lookahead_ = kTickMax;
    std::unique_ptr<Network> net_;
    IpcServer ipc_;
    LockManager locks_;
    BarrierManager barriers_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::unique_ptr<ProtocolOracle> oracle_;
    RefSink *refSink_ = nullptr;
    MetricRegistry registry_;
    std::unique_ptr<TraceSink> trace_;
    /** Worker threads for shards 1..N-1 (null with one shard). */
    std::unique_ptr<ShardWorkers> workers_;
    /** Current window's exclusive limit W+L (set by the coordinator
     *  before each round; read by shard threads during it). */
    Tick windowLimit_ = 0;
    /** Sync ops held across a round because a mark preceded them. */
    std::vector<SyncOp> pendingSync_;
    /** Next grant rank (see SyncActor); seeded to numProcs(). */
    std::uint64_t nextSyncRank_ = 0;

    Tick parallelBegin_ = 0;
    Tick parallelEnd_ = 0;
    bool parallelBeginSet_ = false;
    bool parallelEndSet_ = false;
    Snapshot beginSnap_;
    Snapshot endSnap_;
    Tick lastProcDone_ = 0;
};

} // namespace prism

#endif // PRISM_CORE_MACHINE_HH
