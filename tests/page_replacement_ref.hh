/**
 * @file
 * Reference models for the page-replacement victim picks.
 *
 * These are the retired Kernel::lruClientPage and
 * Kernel::mostInvalidClientPage scans, kept verbatim apart from taking
 * the kernel state they read as parameters: the hash set of client
 * S-COMA frames (frames paged out but not yet acknowledged by the home
 * included; their PIT entry is gone), the PIT, and the kernel's
 * page-busy check.  tests/page_replacement_test.cc drives them and the
 * recency-list picks (policy/page_policy.hh) with the same op streams.
 *
 * The LRU scan breaks ties on lastAccess by hash-set iteration order,
 * which the recency list does not reproduce; the property suite checks
 * tied picks against the documented tie-break instead.
 *
 * Do not "improve" these models; their value is being the simple,
 * obviously-correct executable specification.
 */

#ifndef PRISM_TESTS_PAGE_REPLACEMENT_REF_HH
#define PRISM_TESTS_PAGE_REPLACEMENT_REF_HH

#include <cstdint>
#include <unordered_set>

#include "coherence/pit.hh"
#include "mem/addr.hh"
#include "sim/types.hh"

namespace prism {
namespace testref {

/** Least-recently-used client S-COMA page (kInvalidGPage if none). */
template <class BusyFn>
GPage
lruClientPage(const std::unordered_set<FrameNum> &clientScomaFrames_,
              const Pit &pit, BusyFn pageBusy)
{
    GPage best = kInvalidGPage;
    Tick best_t = 0;
    for (FrameNum f : clientScomaFrames_) {
        const PitEntry *e = pit.entry(f);
        if (!e)
            continue;
        if (pageBusy(e->gpage))
            continue; // page mid-fault/mid-pageout; skip
        if (e->tags && e->tags->anyTransit())
            continue;
        if (best == kInvalidGPage || e->lastAccess < best_t) {
            best = e->gpage;
            best_t = e->lastAccess;
        }
    }
    return best;
}

/** Dyn-Util victim: most Invalid tags, no Transit, lowest frame. */
inline GPage
mostInvalidClientPage(const std::unordered_set<FrameNum> &clientScomaFrames_,
                      const Pit &pit)
{
    GPage best = kInvalidGPage;
    FrameNum best_f = kInvalidFrame;
    std::uint32_t best_count = 0;
    for (FrameNum f : clientScomaFrames_) {
        const PitEntry *e = pit.entry(f);
        if (!e || !e->tags || e->mode != PageMode::Scoma)
            continue;
        if (e->tags->anyTransit())
            continue; // paper: frames with Transit lines are skipped
        const std::uint32_t inv = e->tags->count(FgTag::Invalid);
        if (best == kInvalidGPage || inv > best_count ||
            (inv == best_count && f < best_f)) {
            best = e->gpage;
            best_f = f;
            best_count = inv;
        }
    }
    return best;
}

} // namespace testref
} // namespace prism

#endif // PRISM_TESTS_PAGE_REPLACEMENT_REF_HH
