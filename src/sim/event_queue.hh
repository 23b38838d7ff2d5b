/**
 * @file
 * Deterministic discrete-event scheduler.
 *
 * All simulated activity is serialized through one EventQueue.  Events
 * scheduled for the same tick fire in scheduling order (a monotonically
 * increasing sequence number breaks ties), which makes every simulation
 * run bit-reproducible for a given configuration and seed.
 *
 * Hot-path design (this is the innermost loop of the simulator):
 *  - callbacks are InlineCallback, not std::function: fixed inline
 *    storage, no heap allocation for any capture size used in src/;
 *    they live in a stable slot arena and are moved exactly twice
 *    (into their slot at schedule, out at dispatch);
 *  - time order is kept by a timing wheel (a calendar queue, Brown
 *    1988): kWheelTicks per-tick FIFO buckets cover [now, now +
 *    kWheelTicks).  The buckets are intrusive lists threaded through
 *    the slot arena, and an occupancy bitmap finds the next non-empty
 *    bucket with one count-trailing-zeros per 64 ticks.  Schedule and
 *    dispatch are O(1) with no data-dependent compare chains;
 *  - events further out wait in a binary min-heap of trivially-copyable
 *    (tick, seq, slot) keys, the "far heap".  Whenever the clock
 *    advances, far events that have entered the window move into their
 *    bucket before any callback runs, so they sit ahead of every
 *    same-tick event scheduled later: dispatch order is exactly
 *    (tick, seq), as with a single heap;
 *  - the earliest pending tick is cached, so nextEventTick() — called
 *    in tight loops by the shard coordinator — is one load.
 */

#ifndef PRISM_SIM_EVENT_QUEUE_HH
#define PRISM_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/snap_log.hh"
#include "sim/types.hh"

namespace prism {

/** Sentinel shard id: "not bound to any shard" (debug affinity). */
inline constexpr std::uint32_t kAnyShard = 0xffffffffu;

/** A time-ordered queue of callbacks driving the simulation. */
class EventQueue
{
  public:
    using Callback = InlineCallback<kEventCallbackBytes>;

    /**
     * Ticks covered by the timing wheel.  Nearly every simulated delay
     * is far shorter (97-99% are under 512 cycles in the fig7 and KV
     * sweeps); longer ones take the far heap.
     */
    static constexpr std::uint32_t kWheelTicks = 1024;

    EventQueue()
    {
        slots_.reserve(kInitialCapacity);
        next_.reserve(kInitialCapacity);
        freeSlots_.reserve(kInitialCapacity);
        heads_.fill(kNil);
        tails_.fill(kNil);
    }
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Number of events still pending. */
    std::size_t pending() const { return wheelCount_ + far_.size(); }

    /** Tick of the earliest pending event; kTickMax when empty. */
    Tick nextEventTick() const { return nextTick_; }

    /**
     * Schedule @p cb to run at absolute time @p when (>= now).
     * Callables are constructed directly in their arena slot (no
     * intermediate Callback temporary on the common lambda path).
     */
    template <typename F>
    void
    schedule(Tick when, F &&cb)
    {
        scheduleAt<false>(when, nextSeq_++, std::forward<F>(cb));
    }

    /**
     * Schedule @p cb at @p when, ordered *before* every event already
     * scheduled for that tick.  Used by the sharded coordinator to
     * splice a deferred continuation (e.g. the code following a
     * parallel-phase mark) back in where a one-shard run resumes it
     * at once — ahead of same-tick events that were enqueued earlier.
     */
    template <typename F>
    void
    scheduleFront(Tick when, F &&cb)
    {
        scheduleAt<true>(when, frontSeq_--, std::forward<F>(cb));
    }

    /** Schedule @p cb to run @p delta cycles from now. */
    template <typename F>
    void
    scheduleIn(Cycles delta, F &&cb)
    {
        schedule(now_ + delta, std::forward<F>(cb));
    }

    /**
     * Execute the next event.
     * @retval false if the queue was empty.
     *
     * Regression note: the callback is *moved out* of its arena slot
     * and the slot released before it runs.  A callback may schedule
     * further events — including at the current tick — which may grow
     * the arena, so running the callback in place would dangle.
     */
    bool
    runOne()
    {
        if (pending() == 0)
            return false;
        const Tick t = nextTick_;
        if (t != now_) {
            now_ = t;
            migrateFar();
        }
        const std::uint32_t b = bucketOf(t);
        const std::uint32_t slot = heads_[b];
        heads_[b] = next_[slot];
        --wheelCount_;
        if (heads_[b] == kNil) {
            occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
            nextTick_ = earliestAfterEmptyBucket(b);
        }
        Callback cb = std::move(slots_[slot]);
        freeSlots_.push_back(slot);
        ++executed_;
        cb();
        return true;
    }

    /** Run until the queue drains. */
    void
    runAll()
    {
        while (runOne()) {
        }
    }

    /**
     * Run until the queue drains or @p until is reached, whichever is
     * first.  Events at exactly @p until still execute.  The clock
     * always advances to @p until on return (remaining events, if any,
     * are strictly later), so back-to-back runUntil calls measure
     * consistent intervals whether or not the queue drained.
     */
    void
    runUntil(Tick until)
    {
        while (nextTick_ <= until && runOne()) {
        }
        if (now_ < until) {
            now_ = until;
            migrateFar();
        }
    }

    /**
     * Run until @p done returns true (checked after each event) or the
     * queue drains.  Templated so the predicate is called directly
     * (no std::function indirection in the run loop).
     * @retval true if @p done was satisfied.
     */
    template <typename Pred>
    bool
    runWhile(Pred &&done)
    {
        while (!done()) {
            if (!runOne())
                return false;
        }
        return true;
    }

    // --- Sharded-scheduler hooks (no-ops with one shard) --------------

    /**
     * Attach the owning shard's snapshot log; increment sites call
     * snapNote() and pay one never-taken branch when unattached.
     */
    void setSnapshotLog(SnapshotLog *log) { snapLog_ = log; }

    /** Record a snapshot-counter increment at the current tick. */
    void
    snapNote(SnapKind k)
    {
        if (snapLog_)
            snapLog_->record(now_, k);
    }

#ifndef NDEBUG
    /** Debug: bind this queue to a shard for affinity checking. */
    void setOwnerShard(std::uint32_t s) { ownerShard_ = s; }

    /**
     * Debug: the shard the calling thread is executing (kAnyShard for
     * a thread outside any window, e.g. the coordinator).  Set by the
     * window loop.
     */
    static std::uint32_t &
    threadShard()
    {
        thread_local std::uint32_t s = kAnyShard;
        return s;
    }
#endif

  private:
    /** Initial arena capacity; avoids regrowth for typical runs. */
    static constexpr std::size_t kInitialCapacity = 1024;
    static constexpr std::uint32_t kNil = 0xffffffffu;
    static constexpr std::uint32_t kWords = kWheelTicks / 64;
    static_assert(kWheelTicks % 64 == 0 &&
                      (kWheelTicks & (kWheelTicks - 1)) == 0,
                  "the wheel is a power-of-two ring of 64-bit words");

    /**
     * Far-heap node: ordering key plus the arena slot of its callback.
     * The sequence is signed so scheduleFront can order ahead of all
     * normally scheduled events at the same tick (negative, counting
     * down); schedule() uses the non-negative, counting-up range.
     */
    struct Event {
        Tick when;
        std::int64_t seq;
        std::uint32_t slot;
    };
    static_assert(std::is_trivially_copyable_v<Event>,
                  "heap sifting relies on cheap Event copies");

    static std::uint32_t
    bucketOf(Tick t)
    {
        return static_cast<std::uint32_t>(t) & (kWheelTicks - 1);
    }

    template <bool Front, typename F>
    void
    scheduleAt(Tick when, std::int64_t seq, F &&cb)
    {
        prism_assert(when >= now_,
                     "event scheduled in the past (%llu < %llu)",
                     static_cast<unsigned long long>(when),
                     static_cast<unsigned long long>(now_));
#ifndef NDEBUG
        // Shard affinity: only the owning shard's thread (or the
        // coordinator, which runs with no thread shard set) may
        // schedule into a shard-bound queue.
        prism_assert(ownerShard_ == kAnyShard ||
                         threadShard() == kAnyShard ||
                         threadShard() == ownerShard_,
                     "cross-shard schedule: queue owned by shard %u, "
                     "caller runs shard %u",
                     ownerShard_, threadShard());
#endif
        std::uint32_t slot;
        if (freeSlots_.empty()) {
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
            next_.push_back(kNil);
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
        }
        if constexpr (std::is_same_v<std::decay_t<F>, Callback>)
            slots_[slot] = std::move(cb);
        else
            slots_[slot].emplace(std::forward<F>(cb));
        if (when - now_ < kWheelTicks) {
            if constexpr (Front)
                pushFront(bucketOf(when), slot);
            else
                pushBack(bucketOf(when), slot);
        } else {
            far_.push_back(Event{when, seq, slot});
            siftUp(far_.size() - 1);
        }
        if (when < nextTick_)
            nextTick_ = when;
    }

    void
    pushBack(std::uint32_t b, std::uint32_t slot)
    {
        next_[slot] = kNil;
        if (heads_[b] == kNil) {
            heads_[b] = slot;
            occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
        } else {
            next_[tails_[b]] = slot;
        }
        tails_[b] = slot;
        ++wheelCount_;
    }

    void
    pushFront(std::uint32_t b, std::uint32_t slot)
    {
        next_[slot] = heads_[b];
        if (heads_[b] == kNil) {
            tails_[b] = slot;
            occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
        }
        heads_[b] = slot;
        ++wheelCount_;
    }

    /**
     * Move every far event now inside [now, now + kWheelTicks) into
     * its bucket, in heap order.  Runs whenever the clock advances and
     * before any callback at the new tick, so no same-tick event can
     * have been bucketed ahead of an earlier-scheduled far one; front
     * events are appended too (heap order already puts them first).
     */
    void
    migrateFar()
    {
        while (!far_.empty() && far_.front().when - now_ < kWheelTicks) {
            const Event ev = popTop();
            pushBack(bucketOf(ev.when), ev.slot);
        }
    }

    /**
     * Earliest pending tick once bucket @p b (the current tick's)
     * has just emptied: the first occupied bucket after @p b in ring
     * order, else the far heap's top.
     */
    Tick
    earliestAfterEmptyBucket(std::uint32_t b) const
    {
        if (wheelCount_ == 0)
            return far_.empty() ? kTickMax : far_.front().when;
        std::uint32_t w = b / 64;
        std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (b % 64));
        // Every bucket is visited once: the tail of word w, the other
        // words in ring order, then the head of word w (wrapped ticks).
        for (std::uint32_t i = 0; bits == 0; ++i) {
            w = (w + 1) % kWords;
            bits = occupied_[w];
            prism_assert(i < kWords, "wheel count says non-empty but "
                                     "no bucket is occupied");
        }
        const std::uint32_t found =
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
        return now_ + ((found - b) & (kWheelTicks - 1));
    }

    /** Far-heap order: earlier tick first, scheduling order on ties. */
    static bool
    earlier(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    void
    siftUp(std::size_t i)
    {
        const Event ev = far_[i];
        while (i > 0) {
            std::size_t parent = (i - 1) / 2;
            if (!earlier(ev, far_[parent]))
                break;
            far_[i] = far_[parent];
            i = parent;
        }
        far_[i] = ev;
    }

    /** Remove and return the earliest far event (heap non-empty). */
    Event
    popTop()
    {
        const Event top = far_.front();
        const Event last = far_.back();
        far_.pop_back();
        const std::size_t n = far_.size();
        if (n > 0) {
            // Sift the former last element down from the root hole.
            std::size_t hole = 0;
            while (true) {
                std::size_t child = 2 * hole + 1;
                if (child >= n)
                    break;
                if (child + 1 < n && earlier(far_[child + 1], far_[child]))
                    ++child;
                if (!earlier(far_[child], last))
                    break;
                far_[hole] = far_[child];
                hole = child;
            }
            far_[hole] = last;
        }
        return top;
    }

    /** Callback arena indexed by slot; freeSlots_ recycles. */
    std::vector<Callback> slots_;
    /** Per-slot successor in its bucket's FIFO (kNil at the tail). */
    std::vector<std::uint32_t> next_;
    std::vector<std::uint32_t> freeSlots_;
    /** Bucket FIFOs for ticks now .. now + kWheelTicks - 1. */
    std::array<std::uint32_t, kWheelTicks> heads_;
    std::array<std::uint32_t, kWheelTicks> tails_;
    /** Bit b set iff bucket b is non-empty. */
    std::array<std::uint64_t, kWords> occupied_{};
    std::uint32_t wheelCount_ = 0;
    /** Events at or beyond now + kWheelTicks, as a (when, seq) heap. */
    std::vector<Event> far_;
    Tick now_ = 0;
    /** Earliest pending tick (kTickMax when empty). */
    Tick nextTick_ = kTickMax;
    std::int64_t nextSeq_ = 0;
    std::int64_t frontSeq_ = -1;
    std::uint64_t executed_ = 0;
    SnapshotLog *snapLog_ = nullptr;
#ifndef NDEBUG
    std::uint32_t ownerShard_ = kAnyShard;
#endif
};

/**
 * A resource that serves one request at a time in FCFS order, modeled
 * analytically: acquire() returns the time service may begin and books
 * the occupancy.  Used for buses, controller occupancy, DRAM banks and
 * network links, where queueing delay (not event interleaving) is the
 * behaviour of interest.
 */
class FcfsResource
{
  public:
    /**
     * Request @p occupancy cycles of service no earlier than @p at.
     * @return the tick at which service begins.
     */
    Tick
    acquire(Tick at, Cycles occupancy)
    {
        Tick start = at > nextFree_ ? at : nextFree_;
        nextFree_ = start + occupancy;
        busyCycles_ += occupancy;
        ++grants_;
        return start;
    }

    /** Earliest time a new request could start service. */
    Tick nextFree() const { return nextFree_; }

    /** Total cycles of booked service (utilization numerator). */
    Cycles busyCycles() const { return busyCycles_; }

    /** Number of grants made. */
    std::uint64_t grants() const { return grants_; }

  private:
    Tick nextFree_ = 0;
    Cycles busyCycles_ = 0;
    std::uint64_t grants_ = 0;
};

} // namespace prism

#endif // PRISM_SIM_EVENT_QUEUE_HH
