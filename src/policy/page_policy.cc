#include "policy/page_policy.hh"

#include "os/kernel.hh"

namespace prism {

CoTask
chooseClientMode(Kernel &k, GPage gp, PageMode *out)
{
    const PolicyKind policy = k.config().policy;
    switch (policy) {
      case PolicyKind::Scoma:
        *out = PageMode::Scoma;
        co_return;
      case PolicyKind::LaNuma:
        *out = k.config().ccNumaBypass ? PageMode::CcNuma
                                       : PageMode::LaNuma;
        co_return;
      case PolicyKind::DynBoth:
        // Revert heavily refetched LA-NUMA pages back to S-COMA
        // (amortized scan at fault time).
        co_await k.reconsiderLaNumaPages(kDynBothRefetchThreshold,
                                         kDynBothScanWidth);
        break;
      case PolicyKind::Scoma70:
      case PolicyKind::DynFcfs:
      case PolicyKind::DynUtil:
      case PolicyKind::DynLru:
        break;
    }

    const bool convert = policy != PolicyKind::Scoma70;
    if (convert && k.modeOverride(gp) == PageMode::LaNuma) {
        *out = PageMode::LaNuma;
        co_return;
    }
    if (policy == PolicyKind::DynFcfs) {
        if (k.clientCacheFull()) {
            k.setModeOverride(gp, PageMode::LaNuma);
            *out = PageMode::LaNuma;
            co_return;
        }
        *out = PageMode::Scoma;
        co_return;
    }

    // Page out victims until below the cap; the freed frame backs the
    // faulting page.  lruClientPage() already skips busy pages; the
    // Dyn-Util pick does not, so a busy pick counts as no victim.
    while (k.clientCacheFull()) {
        const GPage victim = policy == PolicyKind::DynUtil
                                 ? k.mostInvalidClientPage()
                                 : k.lruClientPage();
        if (victim == kInvalidGPage || k.pageBusy(victim)) {
            if (!convert)
                break; // SCOMA-70: every candidate busy; admit over cap
            // No convertible frame right now: fall back to LA-NUMA
            // for the faulting page.
            k.setModeOverride(gp, PageMode::LaNuma);
            *out = PageMode::LaNuma;
            co_return;
        }
        co_await k.pageOutClient(victim, convert);
    }
    *out = PageMode::Scoma;
}

GPage
mostInvalidClientVictim(const Pit &pit)
{
    const PitEntry *best = nullptr;
    std::uint32_t best_count = 0;
    for (const PitEntry *e = pit.leastRecent(); e; e = e->newer) {
        if (e->tags->anyTransit())
            continue; // paper: frames with Transit lines are skipped
        const std::uint32_t inv = e->tags->count(FgTag::Invalid);
        if (!best || inv > best_count ||
            (inv == best_count && e->frame < best->frame)) {
            best = e;
            best_count = inv;
        }
    }
    return best ? best->gpage : kInvalidGPage;
}

} // namespace prism
