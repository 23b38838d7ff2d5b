#include "coherence/pit.hh"

#include "sim/logging.hh"

namespace prism {

PitEntry &
Pit::install(FrameNum frame, GPage gpage, NodeId static_home,
             NodeId dyn_home, FrameNum home_frame_hint, PageMode mode,
             std::uint32_t lines_per_page, FgTag init_tag)
{
    prism_assert(byFrame_.find(frame) == byFrame_.end(),
                 "PIT entry already present for frame %llu",
                 static_cast<unsigned long long>(frame));
    PitEntry &e = byFrame_[frame];
    e.frame = frame;
    e.gpage = gpage;
    e.staticHome = static_home;
    e.dynHome = dyn_home;
    e.homeFrameHint = home_frame_hint;
    e.mode = mode;
    e.accessed = std::make_unique<LineMask>(lines_per_page);
    if (mode == PageMode::Scoma)
        e.tags = std::make_unique<FrameTags>(lines_per_page, init_tag);
    if (gpage != kInvalidGPage)
        byPage_[gpage] = frame;
    return e;
}

PitEntry &
Pit::installLocal(FrameNum frame, std::uint32_t lines_per_page)
{
    return install(frame, kInvalidGPage, kInvalidNode, kInvalidNode,
                   kInvalidFrame, PageMode::Local, lines_per_page,
                   FgTag::Invalid);
}

void
Pit::remove(FrameNum frame)
{
    auto it = byFrame_.find(frame);
    prism_assert(it != byFrame_.end(), "removing absent PIT entry");
    if (it->second.recencyLinked)
        unlinkRecency(it->second);
    if (it->second.gpage != kInvalidGPage)
        byPage_.erase(it->second.gpage);
    byFrame_.erase(it);
}

void
Pit::linkRecency(PitEntry &e)
{
    prism_assert(!e.recencyLinked, "frame %llu already in the recency list",
                 static_cast<unsigned long long>(e.frame));
    prism_assert(e.lastAccess == 0,
                 "linking touched frame %llu into the recency list",
                 static_cast<unsigned long long>(e.frame));
    // Insert after the never-touched prefix.
    e.older = lastUntouched_;
    e.newer = lastUntouched_ ? lastUntouched_->newer : oldest_;
    (e.older ? e.older->newer : oldest_) = &e;
    (e.newer ? e.newer->older : newest_) = &e;
    e.recencyLinked = true;
    lastUntouched_ = &e;
    ++linked_;
}

void
Pit::unlinkRecency(PitEntry &e)
{
    prism_assert(e.recencyLinked, "frame %llu not in the recency list",
                 static_cast<unsigned long long>(e.frame));
    detach(e);
    --linked_;
}

void
Pit::detach(PitEntry &e)
{
    if (lastUntouched_ == &e)
        lastUntouched_ = e.older;
    (e.older ? e.older->newer : oldest_) = e.newer;
    (e.newer ? e.newer->older : newest_) = e.older;
    e.older = e.newer = nullptr;
    e.recencyLinked = false;
}

void
Pit::touch(PitEntry &e, Tick now)
{
    prism_assert(!newest_ || now >= newest_->lastAccess,
                 "recency touch at tick %llu before the newest (%llu)",
                 static_cast<unsigned long long>(now),
                 static_cast<unsigned long long>(newest_->lastAccess));
    e.lastAccess = now;
    if (!e.recencyLinked)
        return;
    detach(e);
    e.older = newest_;
    (newest_ ? newest_->newer : oldest_) = &e;
    newest_ = &e;
    e.recencyLinked = true;
    if (now == 0)
        lastUntouched_ = &e; // every linked entry is at tick 0
}

PitEntry *
Pit::entry(FrameNum frame)
{
    auto it = byFrame_.find(frame);
    return it == byFrame_.end() ? nullptr : &it->second;
}

const PitEntry *
Pit::entry(FrameNum frame) const
{
    auto it = byFrame_.find(frame);
    return it == byFrame_.end() ? nullptr : &it->second;
}

FrameNum
Pit::reverse(GPage gpage, FrameNum hint, bool &hash_used) const
{
    hash_used = false;
    if (hint != kInvalidFrame) {
        auto it = byFrame_.find(hint);
        if (it != byFrame_.end() && it->second.gpage == gpage)
            return hint;
    }
    hash_used = true;
    auto it = byPage_.find(gpage);
    return it == byPage_.end() ? kInvalidFrame : it->second;
}

bool
Pit::writeAllowed(FrameNum frame, NodeId node) const
{
    const PitEntry *e = entry(frame);
    if (!e || e->capabilities.empty())
        return true;
    return e->capabilities.test(node);
}

std::vector<FrameNum>
Pit::allFrames() const
{
    std::vector<FrameNum> out;
    out.reserve(byFrame_.size());
    for (const auto &[frame, e] : byFrame_)
        out.push_back(frame);
    return out;
}

std::vector<FrameNum>
Pit::globalFrames() const
{
    std::vector<FrameNum> out;
    out.reserve(byFrame_.size());
    for (const auto &[frame, e] : byFrame_) {
        if (e.gpage != kInvalidGPage)
            out.push_back(frame);
    }
    return out;
}

} // namespace prism
