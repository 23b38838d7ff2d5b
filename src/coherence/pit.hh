/**
 * @file
 * Page Information Table (paper Section 3.2, Figure 5).
 *
 * The PIT translates between node-private physical frames and global
 * pages.  Forward translation (frame -> global page) is a direct
 * indexed lookup, in the model as in the hardware: entries are stored
 * by frame number.  Reverse translation (global page -> frame) first
 * tries the frame-number hint piggybacked on coherence messages and
 * falls back to a hash search.  Each entry also records the page's
 * static and (cached) dynamic home, the cached home frame number, the
 * frame's mode, the fine-grain tags for S-COMA frames, and an optional
 * capability list implementing the inter-node memory firewall.
 *
 * The PIT also keeps the recency list the page-replacement policies
 * pick victims from (see Pit::touch): an intrusive doubly-linked list
 * through the entries of the frames the kernel links, which are its
 * client S-COMA frames, least recently touched at the head.
 */

#ifndef PRISM_COHERENCE_PIT_HH
#define PRISM_COHERENCE_PIT_HH

#include <cstdint>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

#include "coherence/fine_grain_tags.hh"
#include "coherence/page_mode.hh"
#include "coherence/sharer_set.hh"
#include "mem/addr.hh"
#include "sim/types.hh"

namespace prism {

/** Bitmask over lines of a page, for utilization accounting. */
class LineMask
{
  public:
    explicit LineMask(std::uint32_t lines)
        : words_((lines + 63) / 64, 0), lines_(lines)
    {
    }

    void set(std::uint32_t i) { words_[i >> 6] |= 1ULL << (i & 63); }

    bool
    test(std::uint32_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    /** Number of set bits. */
    std::uint32_t
    popcount() const
    {
        std::uint32_t n = 0;
        for (auto w : words_)
            n += static_cast<std::uint32_t>(__builtin_popcountll(w));
        return n;
    }

    std::uint32_t lines() const { return lines_; }

  private:
    std::vector<std::uint64_t> words_;
    std::uint32_t lines_;
};

/** One PIT entry: the translation state of one local page frame. */
struct PitEntry {
    FrameNum frame = kInvalidFrame; //!< the local frame this entry maps
    GPage gpage = kInvalidGPage;    //!< global page backed by this frame
    NodeId staticHome = kInvalidNode;
    NodeId dynHome = kInvalidNode;  //!< cached dynamic home (may be stale)
    FrameNum homeFrameHint = kInvalidFrame; //!< cached home frame number
    PageMode mode = PageMode::Local;

    /** Fine-grain tags; present only for S-COMA frames. */
    std::unique_ptr<FrameTags> tags;

    /**
     * Capability list: set of nodes allowed to act on this frame
     * remotely.  Empty means "no firewall" (all nodes allowed).
     */
    SharerSet capabilities;

    /** Lines of this frame ever accessed (Table 3 utilization). */
    std::unique_ptr<LineMask> accessed;

    /**
     * Last tick the controller touched this frame (page LRU approx);
     * 0 until the first touch.  Written only through Pit::touch.
     */
    Tick lastAccess = 0;

    /** Recency-list links (Pit::linkRecency); null at the ends. */
    PitEntry *older = nullptr;
    PitEntry *newer = nullptr;
    bool recencyLinked = false;

    /** Remote fetches for this page since mapping (policy input). */
    std::uint64_t remoteFetches = 0;
};

/** The Page Information Table of one node's coherence controller. */
class Pit
{
  public:
    /**
     * @param pit_cycles      SRAM lookup time (2) or DRAM (10)
     * @param hash_extra      additional cycles for a hash reverse search
     */
    Pit(Cycles pit_cycles, Cycles hash_extra)
        : pitCycles_(pit_cycles), hashExtra_(hash_extra)
    {
    }

    Pit(const Pit &) = delete;
    Pit &operator=(const Pit &) = delete;

    /**
     * Install a translation for @p frame. @return the new entry, in
     * its default state apart from the fields given here.  S-COMA and
     * local frames are real: one at or above kImaginaryFrameBase
     * panics.
     */
    PitEntry &install(FrameNum frame, GPage gpage, NodeId static_home,
                      NodeId dyn_home, FrameNum home_frame_hint,
                      PageMode mode, std::uint32_t lines_per_page,
                      FgTag init_tag);

    /** Install a Local-mode entry (private memory, no global page). */
    PitEntry &installLocal(FrameNum frame, std::uint32_t lines_per_page);

    /** Remove the entry for @p frame (page-out); unlinks it first. */
    void remove(FrameNum frame);

    // --- Recency list ------------------------------------------------
    //
    // Linked entries are kept in ascending (lastAccess, order of their
    // last link-or-touch): least recently touched at the head.  The
    // order holds because a node's clock only moves forward, so each
    // touch carries a lastAccess >= the tail's (asserted).  A linked
    // entry never touched yet has lastAccess 0 and goes after the other
    // never-touched entries but before every touched one.  Walking from
    // the head therefore meets frames in LRU order, ties going to the
    // frame touched (or linked) earliest.

    /**
     * Link the never-touched entry @p e into the recency list.  Linking
     * an entry twice, or one already touched, panics.
     */
    void linkRecency(PitEntry &e);

    /** Unlink @p e from the recency list; panics if it is not linked. */
    void unlinkRecency(PitEntry &e);

    /**
     * Record a controller access to @p e at @p now: sets lastAccess
     * and, if @p e is linked, moves it to the tail of the recency list.
     */
    void touch(PitEntry &e, Tick now);

    /** Least recently touched linked entry, or nullptr if none. */
    const PitEntry *leastRecent() const { return oldest_; }

    /** Number of entries in the recency list. */
    std::size_t recencyLinkedCount() const { return linked_; }

    /** Entry for @p frame, or nullptr. */
    PitEntry *
    entry(FrameNum frame)
    {
        Chunk *c = chunkOf(frame);
        const std::uint32_t i = frame % kChunkFrames;
        return c && (c->live >> i & 1) ? c->at(i) : nullptr;
    }

    const PitEntry *
    entry(FrameNum frame) const
    {
        return const_cast<Pit *>(this)->entry(frame);
    }

    /**
     * Zero-cost structural query: frame currently mapping @p gpage,
     * or kInvalidFrame.  (Timing-free; used by kernel bookkeeping.)
     */
    FrameNum
    frameOf(GPage gpage) const
    {
        auto it = byPage_.find(gpage);
        return it == byPage_.end() ? kInvalidFrame : it->second;
    }

    /**
     * Reverse-translate @p gpage using @p hint first.
     * @param[out] hash_used true if the hash fallback was needed
     * @return the frame, or kInvalidFrame if the page is not mapped.
     */
    FrameNum reverse(GPage gpage, FrameNum hint, bool &hash_used) const;

    /** Timing of a forward lookup. */
    Cycles forwardCycles() const { return pitCycles_; }

    /** Timing of a reverse lookup. */
    Cycles
    reverseCycles(bool hash_used) const
    {
        return hash_used ? pitCycles_ + hashExtra_ : pitCycles_;
    }

    /**
     * Memory-firewall check: may @p node perform a remote write-class
     * action on @p frame?  Entries with an empty capability list admit
     * everyone (firewall disabled for that page).
     */
    bool writeAllowed(FrameNum frame, NodeId node) const;

    /** Count of wild writes rejected by the firewall. */
    std::uint64_t rejectedWrites() const { return rejectedWrites_; }

    /** Record a firewall rejection. */
    void noteRejectedWrite() { ++rejectedWrites_; }

    /** Number of live entries. */
    std::size_t size() const { return size_; }

    // Both scans list frames in ascending order, real before imaginary.
    // Their callers only sum over the frames or check each one, so the
    // order does not reach any simulated result.

    /** All live frames mapping global pages (oracle checks). */
    std::vector<FrameNum> globalFrames() const;

    /** All live frames, local-mode included (accounting scans). */
    std::vector<FrameNum> allFrames() const;

  private:
    /**
     * Storage for kChunkFrames consecutive frames.  A chunk is
     * allocated when one of its frames is first installed and is never
     * freed or moved, so an entry stays at one address while its frame
     * is installed: the recency list links entries by pointer, and
     * callers hold a PitEntry & across suspension points.  A slot is
     * constructed on install and destroyed on remove; under ASan it is
     * poisoned while no entry lives in it, so a stale reference is
     * still reported.  Whether a frame is installed is read from the
     * chunk's live mask, never from the slot.
     */
    static constexpr std::uint32_t kChunkFrames = 32;
    static_assert(kImaginaryFrameBase % kChunkFrames == 0);

    struct Chunk {
        Chunk();
        ~Chunk();
        Chunk(const Chunk &) = delete;
        Chunk &operator=(const Chunk &) = delete;

        PitEntry *
        at(std::uint32_t i)
        {
            return std::launder(reinterpret_cast<PitEntry *>(slots[i]));
        }

        std::uint32_t live = 0; //!< bit i: slot i holds an entry
        alignas(PitEntry) unsigned char slots[kChunkFrames]
                                             [sizeof(PitEntry)];
    };
    static_assert(kChunkFrames <= 32, "live mask is 32 bits");

    /**
     * The chunk holding @p frame, or nullptr.  Real frames count up
     * from 0 and imaginary ones from kImaginaryFrameBase; each range
     * has its own chunk table, indexed from the range's first frame.
     */
    Chunk *
    chunkOf(FrameNum frame) const
    {
        const auto &table = chunks_[frame >= kImaginaryFrameBase];
        const FrameNum ci = chunkIndex(frame);
        return ci < table.size() ? table[ci].get() : nullptr;
    }

    /** Position of @p frame's chunk in its range's chunk table. */
    static FrameNum
    chunkIndex(FrameNum frame)
    {
        return (frame >= kImaginaryFrameBase ? frame - kImaginaryFrameBase
                                             : frame) /
               kChunkFrames;
    }

    /** Call @p f(frame, entry) for every live entry, in frame order. */
    template <typename F> void forEach(F &&f) const;

    Cycles pitCycles_;
    Cycles hashExtra_;
    /** Chunk tables of the real [0] and imaginary [1] frame ranges. */
    std::vector<std::unique_ptr<Chunk>> chunks_[2];
    std::size_t size_ = 0;
    std::unordered_map<GPage, FrameNum> byPage_;
    std::uint64_t rejectedWrites_ = 0;

    PitEntry *oldest_ = nullptr;    //!< recency-list head
    PitEntry *newest_ = nullptr;    //!< recency-list tail
    PitEntry *lastUntouched_ = nullptr; //!< last linked entry with lastAccess 0
    std::size_t linked_ = 0;            //!< entries in the recency list

    void detach(PitEntry &e);
};

} // namespace prism

#endif // PRISM_COHERENCE_PIT_HH
