/**
 * @file
 * Unit tests of the AMB cache (the prefetch buffer): lookup, FIFO
 * replacement, associativity variants, in-flight fills, plus a
 * differential check against a straightforward array-of-structs
 * reference model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "prefetch/amb_cache.hh"

namespace fbdp {
namespace {

Addr
line(unsigned i)
{
    return static_cast<Addr>(i) * lineBytes;
}

TEST(AmbCacheTest, MissOnEmpty)
{
    AmbCache c(64, 0);
    EXPECT_EQ(c.lookup(line(1)), nullptr);
    EXPECT_EQ(c.population(), 0u);
}

TEST(AmbCacheTest, InsertThenHit)
{
    AmbCache c(64, 0);
    c.insert(line(5), 1234);
    auto *l = c.lookup(line(5));
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->readyAt, 1234u);
    EXPECT_EQ(c.population(), 1u);
}

TEST(AmbCacheTest, FullyAssociativeGeometry)
{
    AmbCache c(64, 0);
    EXPECT_EQ(c.sets(), 1u);
    EXPECT_EQ(c.ways(), 64u);
    EXPECT_EQ(c.entries(), 64u);
}

TEST(AmbCacheTest, SetAssociativeGeometry)
{
    AmbCache c(64, 2);
    EXPECT_EQ(c.sets(), 32u);
    EXPECT_EQ(c.ways(), 2u);
}

TEST(AmbCacheTest, FifoEvictsOldestInsertion)
{
    AmbCache c(4, 0);
    for (unsigned i = 0; i < 4; ++i)
        c.insert(line(i), 0);
    // Touch line 0 (a hit must NOT refresh FIFO order).
    EXPECT_NE(c.lookup(line(0)), nullptr);
    c.insert(line(10), 0);
    EXPECT_EQ(c.lookup(line(0)), nullptr) << "oldest must go";
    EXPECT_NE(c.lookup(line(1)), nullptr);
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(AmbCacheTest, ReinsertRefreshesInPlaceWithoutEvicting)
{
    AmbCache c(4, 0);
    for (unsigned i = 0; i < 4; ++i)
        c.insert(line(i), 0);
    c.insert(line(2), 777);  // already present
    EXPECT_EQ(c.population(), 4u);
    EXPECT_EQ(c.evictions(), 0u);
    EXPECT_EQ(c.lookup(line(2))->readyAt, 777u);
}

TEST(AmbCacheTest, DirectMappedConflicts)
{
    AmbCache c(8, 1);  // 8 sets, 1 way
    // Lines 0 and 8 collide in set 0.
    c.insert(line(0), 0);
    c.insert(line(8), 0);
    EXPECT_EQ(c.lookup(line(0)), nullptr);
    EXPECT_NE(c.lookup(line(8)), nullptr);
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(AmbCacheTest, TwoWayToleratesOneConflict)
{
    AmbCache c(16, 2);  // 8 sets, 2 ways
    c.insert(line(0), 0);
    c.insert(line(8), 0);
    EXPECT_NE(c.lookup(line(0)), nullptr);
    EXPECT_NE(c.lookup(line(8)), nullptr);
    c.insert(line(16), 0);  // third in set 0: evict FIFO (line 0)
    EXPECT_EQ(c.lookup(line(0)), nullptr);
    EXPECT_NE(c.lookup(line(8)), nullptr);
    EXPECT_NE(c.lookup(line(16)), nullptr);
}

TEST(AmbCacheTest, InvalidatePresentAndAbsent)
{
    AmbCache c(64, 0);
    c.insert(line(3), 0);
    EXPECT_TRUE(c.invalidate(line(3)));
    EXPECT_FALSE(c.invalidate(line(3)));
    EXPECT_EQ(c.lookup(line(3)), nullptr);
}

TEST(AmbCacheTest, InvalidatedSlotReusedBeforeEviction)
{
    AmbCache c(2, 0);
    c.insert(line(0), 0);
    c.insert(line(1), 0);
    c.invalidate(line(0));
    c.insert(line(2), 0);
    EXPECT_NE(c.lookup(line(1)), nullptr) << "no eviction needed";
    EXPECT_EQ(c.evictions(), 0u);
}

TEST(AmbCacheTest, FillPendingSentinel)
{
    AmbCache c(64, 0);
    c.insert(line(9), AmbCache::fillPending);
    auto *l = c.lookup(line(9));
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->readyAt, AmbCache::fillPending);
    l->readyAt = 4242;  // resolve
    EXPECT_EQ(c.lookup(line(9))->readyAt, 4242u);
}

TEST(AmbCacheTest, ResetEmptiesAndClearsStats)
{
    AmbCache c(8, 0);
    for (unsigned i = 0; i < 12; ++i)
        c.insert(line(i), 0);
    EXPECT_GT(c.evictions(), 0u);
    c.reset();
    EXPECT_EQ(c.population(), 0u);
    EXPECT_EQ(c.insertions(), 0u);
    EXPECT_EQ(c.evictions(), 0u);
}

/** Property: at any fill level, population never exceeds capacity and
 *  lookups return exactly the most recent `entries` distinct lines
 *  under pure-FIFO fully-associative insertion. */
class AmbCacheFifoProp : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AmbCacheFifoProp, SlidingWindowSemantics)
{
    const unsigned cap = GetParam();
    AmbCache c(cap, 0);
    const unsigned total = cap * 3;
    for (unsigned i = 0; i < total; ++i) {
        c.insert(line(i), 0);
        EXPECT_LE(c.population(), cap);
        // The newest `cap` lines are present, older ones are not.
        if (i >= cap) {
            EXPECT_EQ(c.lookup(line(i - cap)), nullptr);
        }
        EXPECT_NE(c.lookup(line(i)), nullptr);
    }
    EXPECT_EQ(c.evictions(), total - cap);
}

INSTANTIATE_TEST_SUITE_P(Capacities, AmbCacheFifoProp,
                         ::testing::Values(4u, 32u, 64u, 128u));

/**
 * Reference model: the original array-of-structs AMB cache with
 * early-exit way scans, kept verbatim in behaviour so the optimized
 * AmbCache can be checked against it op by op.
 */
class RefAmbCache
{
  public:
    struct Line
    {
        Addr lineAddr = 0;
        Tick readyAt = 0;
        bool valid = false;
        bool used = false;
        std::uint64_t fifoSeq = 0;
    };

    RefAmbCache(unsigned entries, unsigned ways)
        : nWays(ways == 0 ? entries : ways),
          nSets(entries / (ways == 0 ? entries : ways)),
          lines(entries)
    {}

    Line *
    lookup(Addr line_addr)
    {
        Line *base = setBase(line_addr);
        for (unsigned w = 0; w < nWays; ++w) {
            if (base[w].valid && base[w].lineAddr == line_addr)
                return &base[w];
        }
        return nullptr;
    }

    Line *
    insert(Addr line_addr, Tick ready_at, bool refresh,
           AmbCache::Evicted *evicted)
    {
        Line *base = setBase(line_addr);
        Line *first_invalid = nullptr;
        Line *oldest = base;
        for (unsigned w = 0; w < nWays; ++w) {
            Line &l = base[w];
            if (l.valid && l.lineAddr == line_addr) {
                if (refresh) {
                    l.readyAt = ready_at;
                    l.fifoSeq = nextSeq++;
                }
                return &l;
            }
            if (!l.valid) {
                if (!first_invalid)
                    first_invalid = &l;
            } else if (l.fifoSeq < oldest->fifoSeq) {
                oldest = &l;
            }
        }
        Line *victim = first_invalid;
        if (!victim) {
            victim = oldest;
            ++nEvictions;
            if (evicted) {
                evicted->lineAddr = victim->lineAddr;
                evicted->used = victim->used;
                evicted->valid = true;
            }
        }
        victim->lineAddr = line_addr;
        victim->readyAt = ready_at;
        victim->valid = true;
        victim->used = false;
        victim->fifoSeq = nextSeq++;
        ++nInsertions;
        return victim;
    }

    bool
    invalidate(Addr line_addr, bool *was_used)
    {
        if (Line *l = lookup(line_addr)) {
            l->valid = false;
            *was_used = l->used;
            return true;
        }
        return false;
    }

    void
    reset()
    {
        for (auto &l : lines) {
            l.valid = false;
            l.used = false;
        }
        nextSeq = 0;
        nInsertions = 0;
        nEvictions = 0;
    }

    unsigned
    population() const
    {
        unsigned n = 0;
        for (const auto &l : lines)
            n += l.valid ? 1 : 0;
        return n;
    }

    std::uint64_t nInsertions = 0;
    std::uint64_t nEvictions = 0;

  private:
    Line *
    setBase(Addr line_addr)
    {
        std::uint64_t l = lineIndex(line_addr);
        l ^= l >> 5;
        l ^= l >> 11;
        return &lines[l % nSets * nWays];
    }

    unsigned nWays;
    unsigned nSets;
    std::uint64_t nextSeq = 0;
    std::vector<Line> lines;
};

void
expectSameLine(const AmbCache::Line *got, const RefAmbCache::Line *want)
{
    ASSERT_EQ(got != nullptr, want != nullptr);
    if (want) {
        ASSERT_EQ(got->readyAt, want->readyAt);
        ASSERT_EQ(got->used, want->used);
    }
}

/** (entries, ways); ways 0 is fully associative. */
class AmbCacheOracle
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(AmbCacheOracle, MatchesReferenceOpByOp)
{
    const unsigned entries = std::get<0>(GetParam());
    const unsigned ways = std::get<1>(GetParam());
    AmbCache dut(entries, ways);
    RefAmbCache ref(entries, ways);

    const unsigned span = entries * 3;
    Rng rng(0xa3bc0000u + entries * 17 + ways);
    for (unsigned op = 0; op < 40000; ++op) {
        const Addr a = line(static_cast<unsigned>(rng.below(span)));
        const Tick t = rng.below(4) == 0 ? AmbCache::fillPending
                                         : rng.below(1000000);
        const unsigned kind = static_cast<unsigned>(rng.below(100));
        SCOPED_TRACE(::testing::Message() << "op " << op << " kind "
                                          << kind << " addr " << a);
        if (kind < 30) {
            AmbCache::Line *got = dut.lookup(a);
            RefAmbCache::Line *want = ref.lookup(a);
            expectSameLine(got, want);
            // A demand hit marks the line used, a fill resolves it.
            if (want && rng.below(2)) {
                got->used = want->used = true;
            } else if (want) {
                got->readyAt = want->readyAt = t;
            }
        } else if (kind < 50) {
            expectSameLine(dut.insert(a, t),
                           ref.insert(a, t, true, nullptr));
        } else if (kind < 85) {
            AmbCache::Evicted got_ev;
            AmbCache::Evicted want_ev;
            expectSameLine(dut.insertIfAbsent(a, t, &got_ev),
                           ref.insert(a, t, false, &want_ev));
            ASSERT_EQ(got_ev.valid, want_ev.valid);
            ASSERT_EQ(got_ev.lineAddr, want_ev.lineAddr);
            ASSERT_EQ(got_ev.used, want_ev.used);
        } else if (kind < 99) {
            bool got_used = false;
            bool want_used = false;
            ASSERT_EQ(dut.invalidate(a, &got_used),
                      ref.invalidate(a, &want_used));
            ASSERT_EQ(got_used, want_used);
        } else {
            dut.reset();
            ref.reset();
        }
        if (::testing::Test::HasFatalFailure())
            return;
        ASSERT_EQ(dut.population(), ref.population());
        ASSERT_EQ(dut.insertions(), ref.nInsertions);
        ASSERT_EQ(dut.evictions(), ref.nEvictions);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AmbCacheOracle,
    ::testing::Values(std::make_tuple(32u, 0u), std::make_tuple(64u, 0u),
                      std::make_tuple(128u, 0u), std::make_tuple(32u, 4u),
                      std::make_tuple(64u, 4u), std::make_tuple(128u, 4u),
                      std::make_tuple(64u, 8u), std::make_tuple(128u, 8u),
                      std::make_tuple(96u, 4u), std::make_tuple(8u, 1u)));

} // namespace
} // namespace fbdp
