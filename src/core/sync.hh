/**
 * @file
 * Synchronization cost models: locks and sense-reversing barriers.
 *
 * SPLASH synchronization runs through shared memory in reality; like
 * other Augmint-class simulators we model lock and barrier episodes as
 * simulator primitives that charge the latency of the equivalent
 * remote round trips, preserving serialization behaviour and cost
 * without simulating test-and-set reference streams (see DESIGN.md).
 *
 * Every op takes effect through the apply calls (applyAcquire,
 * applyRelease, applyArrive), which Machine::applySync drives in the
 * order the scheduler fixes: at issue on one shard, at the window
 * barrier in (tick, rank, seq) order on several (sim/shard.hh).
 * Resumes are scheduled through a grant callback into each waiter's
 * own shard queue.
 */

#ifndef PRISM_CORE_SYNC_HH
#define PRISM_CORE_SYNC_HH

#include <coroutine>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"
#include "sim/shard.hh"
#include "sim/types.hh"

namespace prism {

/**
 * A parked waiter: its continuation, the shard queue that resumes it,
 * and its rank slot, which a grant restamps (see SyncActor).
 */
struct SyncWaiter {
    std::coroutine_handle<> h;
    EventQueue *q = nullptr;
    SyncActor *actor = nullptr;
};

/** FIFO queued locks, keyed by an application-chosen id. */
class LockManager
{
  public:
    LockManager(Cycles acquire_cost, Cycles handoff_cost)
        : acquireCost_(acquire_cost), handoffCost_(handoff_cost)
    {
    }

    /**
     * Acquire of lock @p id issued at @p tick by @p w.  When the lock
     * is free the grant fires at tick + acquireCost; otherwise the
     * waiter parks in FIFO order.  Either way @p w waits.
     * @p grant is `void(const SyncWaiter &, Tick resume_at)`.
     */
    template <typename GrantFn>
    void
    applyAcquire(std::uint64_t id, const SyncWaiter &w, Tick tick,
                 GrantFn &&grant)
    {
        Lock &l = locks_[id];
        if (!l.held) {
            l.held = true;
            ++acquires_;
            grant(w, tick + acquireCost_);
        } else {
            ++contended_;
            l.waiters.push_back(w);
        }
    }

    /**
     * Release of lock @p id issued at @p tick; the next waiter, if
     * any, is granted at tick + handoffCost.  The issuer never waits.
     */
    template <typename GrantFn>
    void
    applyRelease(std::uint64_t id, Tick tick, GrantFn &&grant)
    {
        auto it = locks_.find(id);
        prism_assert(it != locks_.end() && it->second.held,
                     "releasing an unheld lock");
        Lock &l = it->second;
        if (l.waiters.empty()) {
            l.held = false;
            return;
        }
        SyncWaiter w = l.waiters.front();
        l.waiters.pop_front();
        ++acquires_;
        grant(w, tick + handoffCost_);
    }

    std::uint64_t acquires() const { return acquires_; }
    std::uint64_t contended() const { return contended_; }

  private:
    struct Lock {
        bool held = false;
        std::deque<SyncWaiter> waiters;
    };

    Cycles acquireCost_;
    Cycles handoffCost_;
    std::unordered_map<std::uint64_t, Lock> locks_;
    std::uint64_t acquires_ = 0;
    std::uint64_t contended_ = 0;
};

/** All-processor barriers, keyed by id (episodes auto-advance). */
class BarrierManager
{
  public:
    BarrierManager(std::uint32_t participants, Cycles cost)
        : participants_(participants), cost_(cost)
    {
    }

    /**
     * Arrival at barrier @p id issued at @p tick by @p w.  The
     * completing arrival (by construction the latest tick, since ops
     * are applied in time order) releases every waiter in arrival
     * order at tick + cost.  A lone participant passes straight
     * through: no cost, no episode.
     * @retval true if @p w waits for a grant.
     */
    template <typename GrantFn>
    bool
    applyArrive(std::uint64_t id, const SyncWaiter &w, Tick tick,
                GrantFn &&grant)
    {
        if (participants_ <= 1)
            return false;
        Bar &b = bars_[id];
        b.waiters.push_back(w);
        if (b.waiters.size() == participants_) {
            ++episodes_;
            auto ws = std::move(b.waiters);
            b.waiters.clear();
            for (const auto &waiter : ws)
                grant(waiter, tick + cost_);
        }
        return true;
    }

    std::uint64_t episodes() const { return episodes_; }

  private:
    struct Bar {
        std::vector<SyncWaiter> waiters;
    };

    std::uint32_t participants_;
    Cycles cost_;
    std::unordered_map<std::uint64_t, Bar> bars_;
    std::uint64_t episodes_ = 0;
};

} // namespace prism

#endif // PRISM_CORE_SYNC_HH
