/**
 * @file
 * One record per global page on one node (paper Sections 3.3-3.5):
 * everything the controller and the kernel keep about a page, apart
 * from its PIT translation and directory entries.  Each bound segment
 * has a dense index with one slot per page.  A record is created when
 * its page is first touched on the node and is never freed or moved,
 * so a PageRec & stays valid across suspension points.  The home part
 * is created at the first home install; the per-line transaction block
 * is borrowed from a free list while any line has one open.  DESIGN.md
 * lists which event sets and clears each field.
 */

#ifndef PRISM_COHERENCE_PAGE_REC_HH
#define PRISM_COHERENCE_PAGE_REC_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "coherence/msg.hh"
#include "coherence/page_mode.hh"
#include "coherence/sharer_set.hh"
#include "mem/addr.hh"
#include "sim/coro_sync.hh"
#include "sim/logging.hh"

namespace prism {

/** Client-side transaction awaiting a reply plus ack collection. */
struct ClientTxn {
    explicit ClientTxn(EventQueue &eq) : latch(eq) {}
    CoLatch latch;
    bool exclusive = false;
    bool dataFetched = false; //!< data crossed the network
    bool threeParty = false;  //!< data supplied by the previous owner
    bool invalidatedMidFlight = false;
    NodeId dynHome = kInvalidNode;
    FrameNum homeFrame = kInvalidFrame;
};

/** Home-side wait for an owner's response in a 3-party leg. */
struct HomeWait {
    explicit HomeWait(EventQueue &eq) : event(eq) {}
    CoEvent event;
    bool nacked = false;
    bool dirty = false;
};

/** A granted LA-NUMA line whose bus fill has not happened yet. */
enum class FillToken : std::uint8_t {
    None,
    Held,        //!< granted; the fill may proceed
    Invalidated, //!< an invalidation raced the grant; the fill must not
};

/** The open transactions of one line. */
struct LineSlot {
    ClientTxn *txn = nullptr; //!< this node's outstanding request
    HomeWait *wait = nullptr; //!< home waiting on the owner (3-party)
    FillToken fill = FillToken::None;
};

/** Migration/traffic metadata of a page while this node is its home. */
struct HomeMeta {
    std::vector<std::uint32_t> accessesByNode;
    std::uint64_t totalAccesses = 0;
    bool migrating = false;
    /** Cached client frame numbers (dirClientFrameHints option). */
    std::vector<FrameNum> clientFrames;
};

/**
 * The home part of a page record, created at the first home install
 * and kept after the tenure ends: handlers queued on the line locks
 * when a migration releases them must still find them, then forward.
 */
struct HomePageRec {
    /** Per-line locks serializing home-side protocol handlers. */
    std::deque<CoMutex> locks;
    /** Present while this node is the page's dynamic home. */
    std::optional<HomeMeta> meta;

    // --- Home kernel --------------------------------------------------
    SharerSet clients;              //!< nodes that paged the page in
    CoLatch *pageOutAcks = nullptr; //!< pageOutHome awaiting client acks
    /** Page-in requests that arrived while the page was dying. */
    std::vector<Msg> deferredPageIns;
    bool dying = false;  //!< a home page-out is under way
    bool onDisk = false; //!< paged out to backing store
};

/** Everything one node keeps about one global page. */
struct PageRec {
    explicit PageRec(EventQueue &eq) : lock(eq) {}

    // --- Coherence controller ------------------------------------------
    std::unique_ptr<HomePageRec> home;
    LineSlot *lines = nullptr;      //!< while any line has one open
    std::uint32_t clientLines = 0;  //!< lines with a txn or fill token
    std::uint32_t homeWaits = 0;    //!< lines with a 3-party home wait
    NodeId registry = kInvalidNode; //!< static home: current dyn home
    NodeId movedTo = kInvalidNode;  //!< where the page migrated to

    // --- Kernel ----------------------------------------------------------
    CoMutex lock;                  //!< serializes faults and page-outs
    CoEvent *pageIn = nullptr;     //!< fault awaiting PageInRep
    CoEvent *noticeAck = nullptr;  //!< page-out awaiting its ack
    /**
     * Home-page-status flag (Section 3.3): the home below is known, so
     * a fault needs no page-in.  PageInRep fills in the home; the flag
     * is set when the faulting coroutine resumes.
     */
    bool cachedHome = false;
    PageMode modeOverride = PageMode::Scoma; //!< next client fault's mode
    NodeId cachedDynHome = kInvalidNode;
    FrameNum cachedHomeFrame = kInvalidFrame;
};

/** One node's page records, indexed by segment and page number. */
class PageRecTable
{
  public:
    PageRecTable(EventQueue &eq, std::uint32_t lines_per_page)
        : eq_(eq), linesPerPage_(lines_per_page)
    {
    }

    /** Index global segment @p gsid of @p pages pages (idempotent). */
    void
    attach(std::uint64_t gsid, std::uint64_t pages)
    {
        if (gsid >= segs_.size())
            segs_.resize(gsid + 1);
        segs_[gsid].resize(pages, 0);
    }

    /** Record of @p gp, created on first use. */
    PageRec &
    at(GPage gp)
    {
        std::uint32_t &i = slot(gp);
        if (i == 0) {
            recs_.emplace_back(eq_);
            i = static_cast<std::uint32_t>(recs_.size());
        }
        return recs_[i - 1];
    }

    /** Record of @p gp, or nullptr if the page was never touched here. */
    PageRec *
    find(GPage gp)
    {
        const std::uint32_t i = slot(gp);
        return i == 0 ? nullptr : &recs_[i - 1];
    }

    const PageRec *
    find(GPage gp) const
    {
        return const_cast<PageRecTable *>(this)->find(gp);
    }

    /** Home part of @p r, created (with its line locks) on first use. */
    HomePageRec &
    home(PageRec &r)
    {
        if (!r.home) {
            r.home = std::make_unique<HomePageRec>();
            for (std::uint32_t i = 0; i < linesPerPage_; ++i)
                r.home->locks.emplace_back(eq_);
        }
        return *r.home;
    }

    /** Slot of line @p li of @p r, borrowing a block if none is open. */
    LineSlot &
    openLine(PageRec &r, std::uint32_t li)
    {
        if (!r.lines) {
            if (free_.empty()) {
                blocks_.push_back(
                    std::make_unique<LineSlot[]>(linesPerPage_));
                free_.push_back(blocks_.back().get());
            }
            r.lines = free_.back();
            free_.pop_back();
        }
        return r.lines[li];
    }

    /** Return @p r's line block once its last transaction closed. */
    void
    closeLines(PageRec &r)
    {
        if (r.lines && r.clientLines == 0 && r.homeWaits == 0) {
            free_.push_back(r.lines);
            r.lines = nullptr;
        }
    }

  private:
    std::uint32_t &
    slot(GPage gp)
    {
        const std::uint64_t gsid = gp >> kPageNumBits;
        const std::uint64_t pnum = gp & ((1ULL << kPageNumBits) - 1);
        if (gsid >= segs_.size() || segs_[gsid].empty()) {
            panic("page record of gpage %#llx: segment gsid %llu is not "
                  "bound",
                  static_cast<unsigned long long>(gp),
                  static_cast<unsigned long long>(gsid));
        }
        std::vector<std::uint32_t> &index = segs_[gsid];
        if (pnum >= index.size()) {
            panic("page record of gpage %#llx: page %llu is past the %zu "
                  "pages of segment gsid %llu",
                  static_cast<unsigned long long>(gp),
                  static_cast<unsigned long long>(pnum), index.size(),
                  static_cast<unsigned long long>(gsid));
        }
        return index[pnum];
    }

    EventQueue &eq_;
    std::uint32_t linesPerPage_;
    /** Per gsid, per page: 1 + position in recs_, or 0 if untouched. */
    std::vector<std::vector<std::uint32_t>> segs_;
    std::deque<PageRec> recs_;            //!< never shrinks or moves
    std::vector<std::unique_ptr<LineSlot[]>> blocks_;
    std::vector<LineSlot *> free_;        //!< unused line blocks
};

} // namespace prism

#endif // PRISM_COHERENCE_PAGE_REC_HH
