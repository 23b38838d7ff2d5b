#include "coherence/pit.hh"

#include "sim/asan.hh"
#include "sim/logging.hh"

namespace prism {

Pit::Chunk::Chunk()
{
    asanPoison(slots, sizeof(slots));
}

Pit::Chunk::~Chunk()
{
    for (std::uint32_t m = live; m; m &= m - 1)
        at(static_cast<std::uint32_t>(__builtin_ctz(m)))->~PitEntry();
    asanUnpoison(slots, sizeof(slots));
}

PitEntry &
Pit::install(FrameNum frame, GPage gpage, NodeId static_home,
             NodeId dyn_home, FrameNum home_frame_hint, PageMode mode,
             std::uint32_t lines_per_page, FgTag init_tag)
{
    if ((mode == PageMode::Scoma || mode == PageMode::Local) &&
        frame >= kImaginaryFrameBase) {
        panic("PIT: real (%s) frame %llu is at or above the imaginary "
              "frame base %llu",
              pageModeName(mode), static_cast<unsigned long long>(frame),
              static_cast<unsigned long long>(kImaginaryFrameBase));
    }
    prism_assert(entry(frame) == nullptr,
                 "PIT entry already present for frame %llu",
                 static_cast<unsigned long long>(frame));
    auto &table = chunks_[frame >= kImaginaryFrameBase];
    const FrameNum ci = chunkIndex(frame);
    if (ci >= table.size())
        table.resize(ci + 1);
    if (!table[ci])
        table[ci] = std::make_unique<Chunk>();
    Chunk &c = *table[ci];
    const std::uint32_t i = frame % kChunkFrames;
    asanUnpoison(c.slots[i], sizeof(PitEntry));
    PitEntry &e = *new (c.slots[i]) PitEntry;
    c.live |= 1U << i;
    ++size_;

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
    PitEntry *e = entry(frame);
    prism_assert(e, "removing absent PIT entry");
    if (e->recencyLinked)
        unlinkRecency(*e);
    if (e->gpage != kInvalidGPage)
        byPage_.erase(e->gpage);
    e->~PitEntry();
    asanPoison(e, sizeof(PitEntry));
    chunkOf(frame)->live &= ~(1U << (frame % kChunkFrames));
    --size_;
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

FrameNum
Pit::reverse(GPage gpage, FrameNum hint, bool &hash_used) const
{
    hash_used = false;
    if (const PitEntry *e = entry(hint); e && e->gpage == gpage)
        return hint;
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

template <typename F>
void
Pit::forEach(F &&f) const
{
    for (const bool imag : {false, true}) {
        const FrameNum base = imag ? kImaginaryFrameBase : 0;
        const auto &table = chunks_[imag];
        for (std::size_t ci = 0; ci < table.size(); ++ci) {
            if (!table[ci])
                continue;
            for (std::uint32_t m = table[ci]->live; m; m &= m - 1) {
                const auto i = static_cast<std::uint32_t>(__builtin_ctz(m));
                f(base + ci * kChunkFrames + i, *table[ci]->at(i));
            }
        }
    }
}

std::vector<FrameNum>
Pit::allFrames() const
{
    std::vector<FrameNum> out;
    out.reserve(size_);
    forEach([&](FrameNum f, const PitEntry &) { out.push_back(f); });
    return out;
}

std::vector<FrameNum>
Pit::globalFrames() const
{
    std::vector<FrameNum> out;
    out.reserve(size_);
    forEach([&](FrameNum f, const PitEntry &e) {
        if (e.gpage != kInvalidGPage)
            out.push_back(f);
    });
    return out;
}

} // namespace prism
