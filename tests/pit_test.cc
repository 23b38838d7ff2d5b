/**
 * @file
 * Unit tests for the Page Information Table.
 */

#include <gtest/gtest.h>

#include <vector>

#include "coherence/pit.hh"

namespace prism {
namespace {

constexpr std::uint32_t kLines = 64;

TEST(Pit, InstallAndForwardLookup)
{
    Pit pit(2, 18);
    PitEntry &e = pit.install(5, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                              FgTag::Invalid);
    EXPECT_EQ(e.gpage, 0x100u);
    EXPECT_EQ(e.dynHome, 1u);
    EXPECT_EQ(e.homeFrameHint, 9u);
    ASSERT_NE(pit.entry(5), nullptr);
    EXPECT_EQ(pit.entry(5)->mode, PageMode::Scoma);
    EXPECT_NE(pit.entry(5)->tags, nullptr);
    EXPECT_EQ(pit.entry(5)->tags->get(0), FgTag::Invalid);
}

TEST(Pit, LaNumaEntriesHaveNoTags)
{
    Pit pit(2, 18);
    pit.install(7, 0x200, 2, 2, 3, PageMode::LaNuma, kLines,
                FgTag::Invalid);
    EXPECT_EQ(pit.entry(7)->tags, nullptr);
}

TEST(Pit, ReverseWithMatchingHintAvoidsHash)
{
    Pit pit(2, 18);
    pit.install(5, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                FgTag::Invalid);
    bool hash = true;
    EXPECT_EQ(pit.reverse(0x100, 5, hash), 5u);
    EXPECT_FALSE(hash);
    EXPECT_EQ(pit.reverseCycles(false), 2u);
}

TEST(Pit, ReverseWithWrongHintFallsBackToHash)
{
    Pit pit(2, 18);
    pit.install(5, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                FgTag::Invalid);
    pit.install(6, 0x101, 1, 1, 9, PageMode::Scoma, kLines,
                FgTag::Invalid);
    bool hash = false;
    EXPECT_EQ(pit.reverse(0x100, 6, hash), 5u); // hint points elsewhere
    EXPECT_TRUE(hash);
    EXPECT_EQ(pit.reverseCycles(true), 20u);
}

TEST(Pit, ReverseMissingPage)
{
    Pit pit(2, 18);
    bool hash = false;
    EXPECT_EQ(pit.reverse(0x999, kInvalidFrame, hash), kInvalidFrame);
    EXPECT_TRUE(hash);
}

TEST(Pit, RemoveClearsBothDirections)
{
    Pit pit(2, 18);
    pit.install(5, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                FgTag::Invalid);
    pit.remove(5);
    EXPECT_EQ(pit.entry(5), nullptr);
    bool hash = false;
    EXPECT_EQ(pit.reverse(0x100, 5, hash), kInvalidFrame);
    EXPECT_EQ(pit.frameOf(0x100), kInvalidFrame);
}

TEST(Pit, FirewallDefaultsOpen)
{
    Pit pit(2, 18);
    pit.install(5, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                FgTag::Invalid);
    EXPECT_TRUE(pit.writeAllowed(5, 3));
    EXPECT_TRUE(pit.writeAllowed(99, 3)); // unknown frame: permissive
}

TEST(Pit, FirewallFiltersWildWrites)
{
    Pit pit(2, 18);
    PitEntry &e = pit.install(5, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                              FgTag::Invalid);
    e.capabilities.add(1);
    e.capabilities.add(2);
    EXPECT_TRUE(pit.writeAllowed(5, 1));
    EXPECT_TRUE(pit.writeAllowed(5, 2));
    EXPECT_FALSE(pit.writeAllowed(5, 3));
    pit.noteRejectedWrite();
    EXPECT_EQ(pit.rejectedWrites(), 1u);
}

TEST(Pit, LocalEntriesExcludedFromGlobalFrames)
{
    Pit pit(2, 18);
    pit.installLocal(1, kLines);
    pit.install(2, 0x100, 0, 0, 2, PageMode::Scoma, kLines,
                FgTag::Exclusive);
    EXPECT_EQ(pit.globalFrames().size(), 1u);
    EXPECT_EQ(pit.allFrames().size(), 2u);
    EXPECT_EQ(pit.globalFrames()[0], 2u);
}

TEST(Pit, EntriesInBothFrameRanges)
{
    Pit pit(2, 18);
    const FrameNum imag = kImaginaryFrameBase + 3;
    pit.install(3, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                FgTag::Invalid);
    pit.install(imag, 0x200, 1, 1, 9, PageMode::LaNuma, kLines,
                FgTag::Invalid);
    ASSERT_NE(pit.entry(3), nullptr);
    ASSERT_NE(pit.entry(imag), nullptr);
    EXPECT_EQ(pit.entry(3)->gpage, 0x100u);
    EXPECT_EQ(pit.entry(imag)->gpage, 0x200u);
    EXPECT_EQ(pit.entry(imag)->frame, imag);
    EXPECT_EQ(pit.frameOf(0x200), imag);
    bool hash = true;
    EXPECT_EQ(pit.reverse(0x200, imag, hash), imag);
    EXPECT_FALSE(hash);
    pit.remove(3);
    EXPECT_EQ(pit.entry(3), nullptr);
    EXPECT_NE(pit.entry(imag), nullptr);
}

TEST(Pit, ReinstalledFrameStartsFromADefaultEntry)
{
    Pit pit(2, 18);
    PitEntry &e = pit.install(5, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                              FgTag::Exclusive);
    pit.linkRecency(e);
    pit.touch(e, 40);
    e.capabilities.add(2);
    e.remoteFetches = 7;
    e.accessed->set(3);
    pit.remove(5);

    PitEntry &again = pit.install(5, 0x300, 2, 2, 4, PageMode::LaNuma,
                                  kLines, FgTag::Invalid);
    EXPECT_EQ(again.gpage, 0x300u);
    EXPECT_EQ(again.tags, nullptr);
    EXPECT_TRUE(again.capabilities.empty());
    EXPECT_EQ(again.remoteFetches, 0u);
    EXPECT_EQ(again.lastAccess, 0u);
    EXPECT_FALSE(again.recencyLinked);
    EXPECT_EQ(again.older, nullptr);
    EXPECT_EQ(again.newer, nullptr);
    EXPECT_EQ(again.accessed->popcount(), 0u);
    EXPECT_EQ(pit.leastRecent(), nullptr);
    EXPECT_EQ(pit.frameOf(0x100), kInvalidFrame);
}

TEST(Pit, ScansListFramesInAscendingOrder)
{
    Pit pit(2, 18);
    const std::vector<FrameNum> frames = {
        kImaginaryFrameBase + 70, 100, 2, kImaginaryFrameBase, 33, 1};
    for (FrameNum f : frames) {
        const bool real = f < kImaginaryFrameBase;
        pit.install(f, 0x1000 + (f % 1000), 0, 0, f,
                    real ? PageMode::Scoma : PageMode::LaNuma, kLines,
                    FgTag::Invalid);
    }
    pit.installLocal(0, kLines);
    EXPECT_EQ(pit.size(), 7u);
    EXPECT_EQ(pit.allFrames(),
              (std::vector<FrameNum>{0, 1, 2, 33, 100, kImaginaryFrameBase,
                                     kImaginaryFrameBase + 70}));
    EXPECT_EQ(pit.globalFrames(),
              (std::vector<FrameNum>{1, 2, 33, 100, kImaginaryFrameBase,
                                     kImaginaryFrameBase + 70}));
    pit.remove(33);
    EXPECT_EQ(pit.size(), 6u);
    EXPECT_EQ(pit.allFrames(),
              (std::vector<FrameNum>{0, 1, 2, 100, kImaginaryFrameBase,
                                     kImaginaryFrameBase + 70}));
}

TEST(Pit, NeverInstalledFrameNextToALiveOneIsAbsent)
{
    Pit pit(2, 18);
    pit.install(8, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                FgTag::Invalid);
    pit.install(kImaginaryFrameBase + 8, 0x101, 1, 1, 9, PageMode::LaNuma,
                kLines, FgTag::Invalid);
    // Same storage chunk as the live frames, never installed.
    EXPECT_EQ(pit.entry(9), nullptr);
    EXPECT_EQ(pit.entry(7), nullptr);
    EXPECT_EQ(pit.entry(kImaginaryFrameBase + 9), nullptr);
    // Past every allocated chunk, and the sentinel.
    EXPECT_EQ(pit.entry(1u << 20), nullptr);
    EXPECT_EQ(pit.entry(kInvalidFrame), nullptr);
    EXPECT_TRUE(pit.writeAllowed(9, 3));
}

TEST(LineMaskTest, PopcountTracksDistinctLines)
{
    LineMask m(128);
    EXPECT_EQ(m.popcount(), 0u);
    m.set(0);
    m.set(0);
    m.set(64);
    m.set(127);
    EXPECT_EQ(m.popcount(), 3u);
    EXPECT_TRUE(m.test(64));
    EXPECT_FALSE(m.test(65));
}

} // namespace
} // namespace prism
