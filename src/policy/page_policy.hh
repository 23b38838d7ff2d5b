/**
 * @file
 * Page-mode selection (paper Section 4.2).
 *
 * At each client page fault the kernel decides whether to back the
 * faulting global page with a real S-COMA frame or an imaginary
 * LA-NUMA frame, and may perform paging activity (page-outs, mode
 * conversions) to make room.  Converting a page between modes is a
 * purely node-local decision, exercised only at page-fault time — the
 * run-time policies add no overhead to normal operation.
 */

#ifndef PRISM_POLICY_PAGE_POLICY_HH
#define PRISM_POLICY_PAGE_POLICY_HH

#include <cstdint>

#include "coherence/page_mode.hh"
#include "coherence/pit.hh"
#include "mem/addr.hh"
#include "sim/task.hh"

namespace prism {

class Kernel;

/** Dyn-Both: remote refetches that revert an LA-NUMA page to S-COMA. */
constexpr std::uint64_t kDynBothRefetchThreshold = 128;

/** Dyn-Both: mapped LA-NUMA pages reconsidered per client fault. */
constexpr std::uint32_t kDynBothScanWidth = 4;

/**
 * Choose the page mode for a client fault on @p gp under the node's
 * configured policy (k.config().policy).  Runs on the faulting
 * processor's coroutine; may page out victims.
 *
 *  - SCOMA: always S-COMA; the page cache is effectively infinite.
 *  - LANUMA: always LA-NUMA (CC-NUMA behaviour).
 *  - SCOMA-70: S-COMA with a capped page cache; on overflow the
 *    least-recently-used client page is paged out (no conversion).
 *  - Dyn-FCFS: S-COMA until the page cache fills, then LA-NUMA.  No
 *    page-outs, no hardware support.
 *  - Dyn-Util: on overflow, convert the client page whose frame has
 *    the most Invalid fine-grain tags to LA-NUMA and reuse its frame.
 *  - Dyn-LRU: on overflow, convert the least-recently-used client
 *    page to LA-NUMA and reuse its frame.
 *  - Dyn-Both (extension, Section 4.3's future-work remark): Dyn-LRU
 *    plus R-NUMA-style back-conversion of heavily refetched LA-NUMA
 *    pages to S-COMA.
 *
 * Under every Dyn-* policy a page mapped LA-NUMA stays LA-NUMA at
 * this node until something reverts it.
 */
CoTask chooseClientMode(Kernel &k, GPage gp, PageMode *out);

// Victim picks of the evicting policies over the recency list of a
// node's PIT, which links exactly its client S-COMA frames; contracts
// at Kernel::lruClientPage / mostInvalidClientPage.

/**
 * SCOMA-70 / Dyn-LRU victim: the first linked page from the head for
 * which @p busy(gpage) is false and whose frame has no Transit line.
 */
template <class BusyFn>
GPage
lruClientVictim(const Pit &pit, BusyFn busy)
{
    for (const PitEntry *e = pit.leastRecent(); e; e = e->newer) {
        if (!busy(e->gpage) && !e->tags->anyTransit())
            return e->gpage;
    }
    return kInvalidGPage;
}

/** Dyn-Util victim: most Invalid tags, no Transit, lowest frame. */
GPage mostInvalidClientVictim(const Pit &pit);

} // namespace prism

#endif // PRISM_POLICY_PAGE_POLICY_HH
