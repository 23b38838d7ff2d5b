/**
 * @file
 * The PRISM coherence controller (paper Section 3).
 *
 * One controller sits between each node's memory bus and network
 * interface.  It dispatches protocol handlers based on the page-frame
 * mode of the physical address (Figure 4): Local-mode transactions are
 * ignored, S-COMA transactions consult the frame's fine-grain tags,
 * LA-NUMA transactions are serviced by fetching from the page's home,
 * and Command-mode frames form the kernel's interface to the PIT.
 *
 * The controller implements both sides of the inter-node protocol: the
 * client side (misses, upgrades, writebacks, incoming invalidations and
 * interventions) and the home side (full-map directory, per-line
 * request serialization, 2-party and 3-party transactions, serialized
 * invalidation fan-out), plus lazy page migration (Section 3.5).
 *
 * Protocol handlers run as coroutines on the deterministic event
 * queue; controller occupancy, PIT, directory-cache, memory and
 * network timings are charged along the way.
 */

#ifndef PRISM_COHERENCE_CONTROLLER_HH
#define PRISM_COHERENCE_CONTROLLER_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "coherence/directory.hh"
#include "coherence/msg.hh"
#include "coherence/page_rec.hh"
#include "coherence/pit.hh"
#include "core/config.hh"
#include "mem/addr.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "net/network.hh"
#include "obs/metrics.hh"
#include "sim/coro_sync.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"

namespace prism {

class ProtocolOracle;
class TraceSink;

/** How a processor miss was ultimately satisfied. */
enum class MissSource : std::uint8_t {
    LocalMem, //!< data supplied by this node's memory (page cache/local)
    Remote,   //!< data or permission obtained through the protocol
    Retry,    //!< line in Transit or already outstanding; re-arbitrate
    BadFrame, //!< the frame's mapping was torn down; re-translate
};

/** Result of CoherenceController::serviceMiss. */
struct MissResult {
    MissSource source = MissSource::Retry;
    bool exclusive = false; //!< processor may cache the line E/M
};

// (An invalidation that races a non-exclusive reply poisons the
// transaction; serviceMiss converts that to a Retry outcome.)

/** Outcome of a local processor-cache intervention. */
struct InterventionResult {
    Tick done;      //!< tick at which the intervention completes
    bool found;     //!< some processor cache held the line
    bool dirty;     //!< a Modified copy was extracted
    bool exclusive; //!< a copy was held E or M (owner-class copy)
};

/**
 * Node-side services the controller and the kernel need: message
 * send, processor-cache interventions and frame flushes, TLB
 * shootdown, and kernel frames for page migration.  Implemented
 * by core::Node to keep the coherence and OS layers independent of
 * the machine assembly (and coherence/ from including os/).
 */
class NodeHost
{
  public:
    virtual ~NodeHost() = default;

    /** Inject @p m (source already stamped) into the network. */
    virtual void send(Msg &&m) = 0;

    /** Invalidate @p vp in every local processor TLB. */
    virtual void shootdownTlb(VPage vp) = 0;

    /** Invalidate every local processor-cache line of @p frame. */
    virtual void flushFrameCaches(FrameNum frame) = 0;

    /**
     * Snoop all local processor caches for a line of @p frame.
     * Invalidate the copies (@p invalidate) or downgrade them to
     * Shared.  Dirty data, if found, is written toward memory.
     */
    virtual InterventionResult intervene(FrameNum frame,
                                         std::uint32_t line_idx,
                                         bool invalidate, Tick at) = 0;

    /**
     * True while any node-level bus transaction (miss, upgrade or
     * cache-to-cache fill) is outstanding on a line of @p frame.
     * Page flushes must wait for these to drain.
     */
    virtual bool anyBusPending(FrameNum frame) const = 0;

    /** True if any local processor cache holds a line of @p frame. */
    virtual bool anyCachedCopy(FrameNum frame) const = 0;

    /**
     * True if any local processor cache holds this specific line
     * (any valid state).  Decides whether an Owned-line eviction's
     * writeback keeps the node registered as a sharer (MOESI: peer
     * Shared copies can outlive the Owned copy).
     */
    virtual bool lineCached(FrameNum frame,
                            std::uint32_t line_idx) const = 0;

    /** Allocate a real frame to receive a migrating home page. */
    virtual FrameNum migrationAllocFrame(GPage gp) = 0;

    /** Unmap and free the departing home page's frame. */
    virtual void migrationFreeFrame(FrameNum frame, GPage gp) = 0;
};

/**
 * Per-node statistics the controller maintains.  Scoped handles: hot
 * paths still do plain integer increments, and once bound via
 * registerMetrics the values are enumerable by label.
 */
struct ControllerStats {
    ScopedCounter remoteMisses;   //!< fetched data from a remote node
    ScopedCounter localMemHits;   //!< misses satisfied by local memory
    ScopedCounter upgrades;       //!< write permission w/o data fetch
    ScopedCounter retries;        //!< bus retries (Transit et al.)
    ScopedCounter invalsSent;
    ScopedCounter invalsReceived;
    ScopedCounter fetchesServed;  //!< 3-party interventions served
    ScopedCounter nacksSent;
    ScopedCounter writebacksSent;
    ScopedCounter replaceHintsSent;
    ScopedCounter forwards;       //!< misdirected requests forwarded
    ScopedCounter homeRequests;
    ScopedCounter migrationsOut;
    ScopedCounter migrationsIn;
    ScopedCounter firewallRejects;
};

/** Per-transaction-type latency distributions (request to grant). */
struct ControllerLatency {
    ScopedHistogram read2{latencyBounds()};     //!< 2-party data fetch
    ScopedHistogram read3{latencyBounds()};     //!< 3-party data fetch
    ScopedHistogram upgrade{latencyBounds()};   //!< permission-only
    ScopedHistogram writeback{latencyBounds()}; //!< home-side acceptance
    ScopedHistogram migration{latencyBounds()}; //!< prep through handoff
};

/** The coherence controller of one node. */
class CoherenceController
{
  public:
    CoherenceController(NodeId self, const MachineConfig &cfg,
                        EventQueue &eq, Dram &dram, NodeHost &host);

    NodeId self() const { return self_; }
    Pit &pit() { return pit_; }
    const Pit &pit() const { return pit_; }
    Directory &directory() { return dir_; }
    /** This node's page records (shared with the node's kernel). */
    PageRecTable &pages() { return pages_; }
    const PageRecTable &pages() const { return pages_; }
    const ControllerStats &stats() const { return stats_; }
    const LineGeometry &geometry() const { return geo_; }

    // --- Processor side -------------------------------------------------

    /**
     * Service an L2 miss (or upgrade) that local snooping could not
     * satisfy.  Runs on the processor's coroutine; on return @p out
     * says whether data/permission is ready or the bus must retry.
     *
     * @param frame       the physical frame being accessed
     * @param line_idx    line index within the page
     * @param for_write   the processor needs exclusivity
     * @param local_copy  a valid local copy of the data exists
     *                    (processor S copy or peer S copy), so an
     *                    Upgrade (permission-only) suffices
     */
    CoTask serviceMiss(FrameNum frame, std::uint32_t line_idx,
                       bool for_write, bool local_copy, MissResult *out);

    /**
     * Final validity check immediately before a processor-cache fill.
     * Closes the window between transaction completion and the bus
     * fill: an invalidation arriving in that window must prevent the
     * stale fill.  For LA-NUMA frames this consumes the fill token
     * created by the transaction; for S-COMA frames it re-checks the
     * fine-grain tag against the intended fill state: M/E fills
     * require an Exclusive tag, S fills any valid tag.
     * @retval false the fill must be abandoned (caller retries).
     */
    bool finishFill(FrameNum frame, std::uint32_t line_idx, Mesi intended);

    /**
     * Note the eviction of a line from the node's last-level caches.
     * S-COMA/Local dirty victims land in local memory; LA-NUMA dirty
     * victims are written back to the home, and clean-exclusive
     * LA-NUMA victims send a replacement hint.
     */
    void evictLine(FrameNum frame, std::uint32_t line_idx, Mesi victim_state);

    /**
     * An M/E line was downgraded to Shared by an intra-node
     * cache-to-cache read.  For LA-NUMA frames ownership must be
     * relinquished to the home (keep-shared writeback, carrying data
     * if the copy was dirty) — otherwise the node's now-Shared copies
     * could later be dropped silently while the full-map directory
     * still records the node as owner.  For Local/S-COMA frames dirty
     * data is reflected into local memory.
     */
    void reflectDowngrade(FrameNum frame, std::uint32_t line_idx,
                          bool dirty);

    // --- Kernel command interface (paging) -------------------------------

    /** Install a Local-mode mapping (private memory). */
    void installLocalMapping(FrameNum frame);

    /**
     * Install a client mapping (after a client page fault).
     * @return the new PIT entry.
     */
    PitEntry &installClientMapping(FrameNum frame, GPage gpage,
                                   NodeId static_home, NodeId dyn_home,
                                   FrameNum home_frame, PageMode mode);

    /** Install a home mapping (page-in at the home node). */
    void installHomeMapping(FrameNum frame, GPage gpage);

    /**
     * Flush a client page for page-out: wait for Transit lines to
     * settle, invalidate local processor copies, write dirty lines
     * back to the home.  @p wb_lines (optional) receives the number of
     * lines written back.
     */
    CoTask flushClientPage(FrameNum frame, std::uint64_t *wb_lines);

    /** Remove a client PIT entry after flushing (unlinks it). */
    void removeClientMapping(FrameNum frame);

    /**
     * Synchronous check that a flushed client page is truly quiet:
     * no bus- or controller-level transaction on its lines, no valid
     * fine-grain tag, and no processor-cache copy.  The kernel loops
     * flushClientPage until this holds, then removes the mapping in
     * the same event (so nothing can slip in between).
     */
    bool clientPageQuiescent(FrameNum frame) const;

    /**
     * Home side of a client page-out: drop the client from every
     * line's sharer set.  @return directory access cycles charged.
     */
    Cycles homeRemoveClient(GPage gpage, NodeId client);

    /**
     * Home page-out: drop directory state for @p gpage (all clients
     * must have been flushed first) and remove the home PIT entry.
     */
    void removeHomeMapping(FrameNum frame, GPage gpage);

    /** True if this node is currently the dynamic home of @p gpage. */
    bool isDynHome(GPage gpage) const { return dir_.hasPage(gpage); }

    /**
     * True when no protocol handler holds a line lock of @p gpage and
     * no 3-party intervention is outstanding for its lines.  Home
     * page-outs must wait for this before tearing down the directory.
     */
    bool homePageQuiescent(GPage gpage) const;

    /** Trigger a lazy migration of @p gpage toward @p new_home. */
    void requestMigration(GPage gpage, NodeId new_home);

    /**
     * Static-home registry lookup: current dynamic home of @p gpage,
     * or kInvalidNode if this node anchors no such page.
     */
    NodeId registryLookup(GPage gpage) const;

    /**
     * Bind this controller's counters and latency histograms into
     * @p reg under component "ctrl", node self().
     */
    void registerMetrics(MetricRegistry &reg);

    /** Attach the optional Chrome-trace sink (nullptr to disable). */
    void setTraceSink(TraceSink *t) { trace_ = t; }

    // --- Network side ------------------------------------------------------

    /** Deliver a protocol message to this controller. */
    void onMessage(Msg &&m);

    /** Attach the protocol oracle (Machine construction). */
    void setOracle(ProtocolOracle *o) { oracle_ = o; }

  private:
    /** Payload attached to a MigrateData message. */
    struct MigrationPayload {
        std::vector<DirEntry> dir;
        SharerSet kernelClients;
    };

    // Timing helpers.
    DelayAwaiter delay(Cycles c) { return DelayAwaiter(eq_, c); }
    DelayAwaiter until(Tick t) { return delay(t - std::min(t, eq_.now())); }
    DelayAwaiter occupy(Cycles c);
    DelayAwaiter dramAccess();

    // Messaging helpers.
    void send(Msg &&m);
    void forward(Msg &&m);

    /** Send a Writeback or ReplaceHint of a line of @p e's page home. */
    void sendToHome(MsgType type, const PitEntry &e,
                    std::uint32_t line_idx, bool dirty, bool keep_shared);

    /** Open-transaction slot of a line, or nullptr if none is open. */
    LineSlot *lineSlot(GPage gpage, std::uint32_t line_idx);

    /** Home metadata of @p gpage, or nullptr unless this node is home. */
    HomeMeta *homeMeta(GPage gpage);

    /** Lines of @p gpage with a client transaction or fill token. */
    std::uint32_t clientLinesOpen(GPage gpage) const;

    /**
     * Mark the line's racing client transaction and fill token (if
     * any) invalidated: a shared grant in flight must not install a
     * stale copy.
     */
    void poisonLine(GPage gpage, std::uint32_t line_idx);

    // Client-side pieces.  @p poisoned reports a racing invalidation
    // that voided a non-exclusive grant.
    CoTask runClientTxn(MsgType mt, PitEntry &e, FrameNum frame,
                        std::uint32_t line_idx, MissResult *out,
                        bool *poisoned);

    // Handler coroutines (network side).
    FireAndForget handleHomeRequest(Msg m);
    FireAndForget handleWriteback(Msg m);
    FireAndForget handleClientInv(Msg m);
    FireAndForget handleClientFetch(Msg m);
    FireAndForget handleClientReply(Msg m);
    FireAndForget handleMigratePrep(Msg m);
    FireAndForget handleMigrateData(Msg m);

    // Home-side helpers.
    void noteHomeAccess(GPage gpage, NodeId requester);
    void maybeTriggerMigration(GPage gpage);

    /**
     * Take this node out of a migrating page's directory: lines it
     * owned become Uncached (their data went into the page's memory).
     */
    void dropSelfFromDir(GPage gp, std::vector<DirEntry> &dir);

    NodeId self_;
    const MachineConfig &cfg_;
    EventQueue &eq_;
    Dram &dram_;
    NodeHost &host_;
    LineGeometry geo_;

    Pit pit_;
    Directory dir_;
    PageRecTable pages_;
    FcfsResource ctrlRes_; //!< protocol-engine occupancy

    ProtocolOracle *oracle_ = nullptr;
    TraceSink *trace_ = nullptr;
    /** Remaining invalidations to skip (cfg.mutationSkipInvals). */
    std::uint32_t mutationBudget_ = 0;

    ControllerStats stats_;
    ControllerLatency latency_;

    /**
     * Per-node memory-footprint gauges (component "footprint"),
     * sampled at report time: directory arena bytes, PIT entries and
     * modeled fine-grain tag bytes (2 bits per line).  These size the
     * coherence metadata cost of a machine preset (docs/PERFORMANCE.md
     * §9); scripts/strip_report.py drops them from byte-identity
     * comparisons alongside the workload histograms.
     */
    ScopedGauge gaugeDirBytes_;
    ScopedGauge gaugeDirPages_;
    ScopedGauge gaugePitEntries_;
    ScopedGauge gaugeTagBytes_;

    /** Modeled fine-grain tag bytes across live S-COMA frames. */
    double tagBytesModeled() const;
};

} // namespace prism

#endif // PRISM_COHERENCE_CONTROLLER_HH
