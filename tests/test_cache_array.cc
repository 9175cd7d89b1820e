/**
 * @file
 * Unit tests of the generic LRU tag array used for the L1s and L2,
 * plus a differential check against a straightforward array-of-structs
 * reference model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "cache/cache_array.hh"
#include "common/random.hh"

namespace fbdp {
namespace {

Addr
line(unsigned i)
{
    return static_cast<Addr>(i) * lineBytes;
}

TEST(CacheArrayTest, GeometryFromSizeAndWays)
{
    CacheArray c(64 * 1024, 2);
    EXPECT_EQ(c.numSets(), 512u);
    EXPECT_EQ(c.numWays(), 2u);
    EXPECT_EQ(c.sizeBytes(), 64u * 1024u);
}

TEST(CacheArrayTest, MissThenInstallThenHit)
{
    CacheArray c(64 * 1024, 2);
    EXPECT_FALSE(c.lookup(line(1)));
    c.install(line(1), false);
    EXPECT_TRUE(c.lookup(line(1)));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheArrayTest, LruEvictsLeastRecentlyUsed)
{
    CacheArray c(2 * lineBytes, 2);  // one set, two ways
    c.install(line(0), false);
    c.install(line(1), false);
    c.lookup(line(0));  // make line 1 the LRU
    auto v = c.install(line(2), false);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, line(1));
    EXPECT_TRUE(c.lookup(line(0)));
    EXPECT_FALSE(c.lookup(line(1)));
}

TEST(CacheArrayTest, DirtyVictimReported)
{
    CacheArray c(2 * lineBytes, 2);
    c.install(line(0), true);
    c.install(line(1), false);
    auto v = c.install(line(2), false);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, line(0));
    EXPECT_TRUE(v.dirty);
}

TEST(CacheArrayTest, ReinstallRefreshesAndOrsDirty)
{
    CacheArray c(2 * lineBytes, 2);
    c.install(line(0), false);
    c.install(line(1), false);
    auto v = c.install(line(0), true);  // refresh, set dirty
    EXPECT_FALSE(v.valid);
    auto v2 = c.install(line(2), false);  // evicts LRU == line 1
    EXPECT_EQ(v2.lineAddr, line(1));
    // Line 0 is still dirty.
    c.lookup(line(0));
    auto v3 = c.install(line(3), false);
    EXPECT_EQ(v3.lineAddr, line(2));
}

TEST(CacheArrayTest, LookupWithoutTouchKeepsLru)
{
    CacheArray c(2 * lineBytes, 2);
    c.install(line(0), false);
    c.install(line(1), false);
    c.lookup(line(0), /*touch=*/false);
    // LRU is still line 0.
    auto v = c.install(line(2), false);
    EXPECT_EQ(v.lineAddr, line(0));
}

TEST(CacheArrayTest, InvalidateFreesSlot)
{
    CacheArray c(2 * lineBytes, 2);
    c.install(line(0), false);
    c.install(line(1), false);
    EXPECT_TRUE(c.invalidate(line(0)));
    EXPECT_FALSE(c.invalidate(line(0)));
    auto v = c.install(line(2), false);
    EXPECT_FALSE(v.valid) << "free slot, no eviction";
}

TEST(CacheArrayTest, SetsIsolateAddresses)
{
    CacheArray c(4 * lineBytes, 1);  // 4 sets, direct-mapped
    c.install(line(0), false);
    c.install(line(1), false);
    c.install(line(4), false);  // conflicts with line 0
    EXPECT_FALSE(c.lookup(line(0)));
    EXPECT_TRUE(c.lookup(line(1)));
    EXPECT_TRUE(c.lookup(line(4)));
}

TEST(CacheArrayTest, StatsResetSeparateFromContents)
{
    CacheArray c(64 * 1024, 2);
    c.install(line(0), false);
    c.lookup(line(0));
    c.resetStats();
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_TRUE(c.lookup(line(0)));
    EXPECT_EQ(c.hits(), 1u);
}

TEST(CacheArrayTest, DirtyBitDoesNotPerturbLru)
{
    // The dirty bit shares the age word with the LRU sequence number;
    // an older dirty line must still go before a younger clean one,
    // and an older clean line before a younger dirty one.
    CacheArray c(2 * lineBytes, 2);
    c.install(line(0), false);
    c.install(line(1), false);
    EXPECT_TRUE(c.lookup(line(0), /*touch=*/false, /*dirty=*/true));
    auto v = c.install(line(2), false);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, line(0));
    EXPECT_TRUE(v.dirty);

    c.install(line(3), true);  // line 2 clean and older, line 3 dirty
    v = c.install(line(4), false);
    EXPECT_EQ(v.lineAddr, line(2));
    EXPECT_FALSE(v.dirty);
    v = c.install(line(5), false);
    EXPECT_EQ(v.lineAddr, line(3));
    EXPECT_TRUE(v.dirty);
}

TEST(CacheArrayTest, CapacityWorkloadNeverExceeds)
{
    CacheArray c(1024 * lineBytes, 4);
    unsigned installed = 0;
    unsigned evicted = 0;
    for (unsigned i = 0; i < 4096; ++i) {
        auto v = c.install(line(i * 7), false);
        ++installed;
        evicted += v.valid ? 1 : 0;
    }
    EXPECT_EQ(installed - evicted, 1024u) << "steady-state full";
}

/**
 * Reference model: the original array-of-structs tag array with
 * early-exit way scans, kept verbatim in behaviour so the optimized
 * CacheArray can be checked against it op by op.
 */
class RefCacheArray
{
  public:
    struct Line
    {
        Addr lineAddr = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruSeq = 0;
    };

    RefCacheArray(unsigned sets, unsigned ways)
        : nSets(sets), nWays(ways),
          lines(static_cast<size_t>(sets) * ways)
    {}

    Line *
    lookup(Addr line_addr, bool touch)
    {
        Line *base = setBase(line_addr);
        for (unsigned w = 0; w < nWays; ++w) {
            if (base[w].valid && base[w].lineAddr == line_addr) {
                if (touch)
                    base[w].lruSeq = nextLru++;
                ++nHits;
                return &base[w];
            }
        }
        ++nMisses;
        return nullptr;
    }

    CacheArray::Victim
    install(Addr line_addr, bool dirty)
    {
        Line *base = setBase(line_addr);
        Line *slot = nullptr;
        for (unsigned w = 0; w < nWays; ++w) {
            if (base[w].valid && base[w].lineAddr == line_addr) {
                base[w].dirty = base[w].dirty || dirty;
                base[w].lruSeq = nextLru++;
                return CacheArray::Victim{};
            }
            if (!slot && !base[w].valid)
                slot = &base[w];
        }
        CacheArray::Victim v;
        if (!slot) {
            slot = &base[0];
            for (unsigned w = 1; w < nWays; ++w) {
                if (base[w].lruSeq < slot->lruSeq)
                    slot = &base[w];
            }
            v.valid = true;
            v.lineAddr = slot->lineAddr;
            v.dirty = slot->dirty;
        }
        slot->lineAddr = line_addr;
        slot->valid = true;
        slot->dirty = dirty;
        slot->lruSeq = nextLru++;
        return v;
    }

    bool
    invalidate(Addr line_addr)
    {
        Line *base = setBase(line_addr);
        for (unsigned w = 0; w < nWays; ++w) {
            if (base[w].valid && base[w].lineAddr == line_addr) {
                base[w].valid = false;
                return true;
            }
        }
        return false;
    }

    /** Presence without touching LRU or the counters. */
    bool
    contains(Addr line_addr)
    {
        Line *base = setBase(line_addr);
        for (unsigned w = 0; w < nWays; ++w)
            if (base[w].valid && base[w].lineAddr == line_addr)
                return true;
        return false;
    }

    void
    reset()
    {
        for (auto &l : lines)
            l.valid = false;
        nextLru = 0;
        resetStats();
    }

    void resetStats() { nHits = 0; nMisses = 0; }

    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;

  private:
    Line *
    setBase(Addr line_addr)
    {
        return &lines[lineIndex(line_addr) % nSets * nWays];
    }

    unsigned nSets;
    unsigned nWays;
    std::uint64_t nextLru = 0;
    std::vector<Line> lines;
};

/** (ways, sets): every way count crossed with power-of-two and
 *  non-power-of-two set counts. */
class CacheArrayOracle
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheArrayOracle, MatchesReferenceOpByOp)
{
    const unsigned ways = std::get<0>(GetParam());
    const unsigned sets = std::get<1>(GetParam());
    CacheArray dut(static_cast<std::uint64_t>(sets) * ways * lineBytes,
                   ways);
    RefCacheArray ref(sets, ways);
    ASSERT_EQ(dut.numSets(), sets);

    // Three lines per way slot keeps sets under steady pressure.
    const unsigned span = sets * ways * 3;
    Rng rng(0x5eed0000u + ways * 131 + sets);
    for (unsigned op = 0; op < 40000; ++op) {
        const Addr a = line(static_cast<unsigned>(rng.below(span)));
        const bool dirty = rng.below(2) != 0;
        const unsigned kind = static_cast<unsigned>(rng.below(100));
        SCOPED_TRACE(::testing::Message() << "op " << op << " kind "
                                          << kind << " addr " << a);
        if (kind < 35) {
            const bool touch = rng.below(4) != 0;
            RefCacheArray::Line *l = ref.lookup(a, touch);
            if (l && dirty)
                l->dirty = true;
            ASSERT_EQ(dut.lookup(a, touch, dirty), l != nullptr);
        } else if (kind < 55) {
            const auto want = ref.install(a, dirty);
            const auto got = dut.install(a, dirty);
            ASSERT_EQ(got.valid, want.valid);
            ASSERT_EQ(got.lineAddr, want.lineAddr);
            ASSERT_EQ(got.dirty, want.dirty);
        } else if (kind < 70) {
            // insertAbsent()'s contract: the line just missed.
            if (ref.contains(a))
                continue;
            const auto want = ref.install(a, dirty);
            const auto got = dut.insertAbsent(a, dirty);
            ASSERT_EQ(got.valid, want.valid);
            ASSERT_EQ(got.lineAddr, want.lineAddr);
            ASSERT_EQ(got.dirty, want.dirty);
        } else if (kind < 90) {
            const bool touch = rng.below(2) != 0;
            const bool want = ref.lookup(a, touch) != nullptr;
            if (!want)
                ref.install(a, false);
            ASSERT_EQ(dut.lookupOrInstall(a, touch), want);
        } else if (kind < 99) {
            ASSERT_EQ(dut.invalidate(a), ref.invalidate(a));
        } else if (rng.below(4) == 0) {
            dut.reset();
            ref.reset();
        } else {
            dut.resetStats();
            ref.resetStats();
        }
        ASSERT_EQ(dut.hits(), ref.nHits);
        ASSERT_EQ(dut.misses(), ref.nMisses);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayOracle,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u, 16u),
                       ::testing::Values(1u, 4u, 64u, 3u, 6u, 37u)));

} // namespace
} // namespace fbdp
