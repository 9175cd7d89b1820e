/**
 * @file
 * A generic set-associative, LRU, write-back tag array.
 *
 * Used for the per-core 64 KB 2-way L1 data caches and the shared 4 MB
 * 4-way L2 of Table 1.  Purely functional (tags only — the simulator
 * never carries data payloads); timing is applied by CacheHierarchy.
 *
 * Layout: each set is one contiguous block of W tags followed by W
 * ages (64 B, one host cacheline, for the 4-way L2).  A free way holds
 * the tag @c invalidTag, which no line-aligned address equals, and age
 * 0.  A valid way's age is <tt>lruSeq << 1 | dirty</tt>; sequence
 * numbers start at 1 and are unique, so the dirty bit never reorders
 * LRU, and every free way is "older" than every valid one.  A probe is
 * then one full pass that selects the matching way with a conditional
 * move, and the victim is the age argmin (the first free way in way
 * order, else the least recently used), with no branch on the data.
 */

#ifndef FBDP_CACHE_CACHE_ARRAY_HH
#define FBDP_CACHE_CACHE_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace fbdp {

/** Tag array with LRU replacement.  Addresses must be line-aligned. */
class CacheArray
{
  public:
    /** What fell out of the set on an install. */
    struct Victim
    {
        bool valid = false;   ///< a line was evicted
        Addr lineAddr = 0;
        bool dirty = false;
    };

    CacheArray(std::uint64_t size_bytes, unsigned ways);

    /**
     * Probe for a line.  On a hit, bumps LRU when @p touch and marks
     * the line dirty when @p dirty.
     * @return true on a hit.
     */
    bool
    lookup(Addr line_addr, bool touch = true, bool dirty = false)
    {
        Addr *tags = setBase(line_addr);
        const int w = findWay(tags, line_addr);
        if (w < 0) {
            ++nMisses;
            return false;
        }
        ++nHits;
        refresh(tags[nWays + static_cast<unsigned>(w)], touch, dirty);
        return true;
    }

    /**
     * lookup(), but a miss installs the line clean and silently drops
     * the victim (the miss path only runs the victim scan, not a
     * second tag scan) — for the functional pre-warm.
     * @return true on a hit.
     */
    bool
    lookupOrInstall(Addr line_addr, bool touch)
    {
        if (lookup(line_addr, touch))
            return true;
        insertAbsent(line_addr, false);
        return false;
    }

    /** Install @p line_addr; a resident line is refreshed instead
     *  (LRU bumped, dirty OR-ed in) and nothing is evicted. */
    Victim
    install(Addr line_addr, bool dirty)
    {
        Addr *tags = setBase(line_addr);
        const int w = findWay(tags, line_addr);
        if (w >= 0) {
            refresh(tags[nWays + static_cast<unsigned>(w)], true, dirty);
            return Victim{};
        }
        return fill(tags, line_addr, dirty);
    }

    /** install() of a line known to be absent (it just missed):
     *  skips the resident check. */
    Victim
    insertAbsent(Addr line_addr, bool dirty)
    {
        return fill(setBase(line_addr), line_addr, dirty);
    }

    /** Drop a line if present. */
    bool invalidate(Addr line_addr);

    void reset();

    unsigned numSets() const { return nSets; }
    unsigned numWays() const { return nWays; }
    std::uint64_t sizeBytes() const
    {
        return static_cast<std::uint64_t>(nSets) * nWays * lineBytes;
    }

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }
    void resetStats() { nHits = 0; nMisses = 0; }

    /** Same geometry, LRU clock, counters, and every set's tags and
     *  ages (so dirty bits too); the host alignment padding is
     *  ignored. */
    bool operator==(const CacheArray &o) const;

  private:
    /** Tag of a free way; never line-aligned, so it matches no probe. */
    static constexpr Addr invalidTag = ~Addr(0);

    Addr *
    setBase(Addr line_addr)
    {
        // The common geometries (Table 1) all have power-of-two set
        // counts; the mask avoids a runtime modulo on the hottest
        // simulator path (every L1/L2 access indexes here).
        const std::uint64_t idx = lineIndex(line_addr);
        const std::size_t set = setMask ? idx & setMask : idx % nSets;
        return &store[first + set * 2 * nWays];
    }

    /** The way holding @p line_addr, or -1.  A full pass with a
     *  select instead of an early exit: tags are unique in a set. */
    int
    findWay(const Addr *tags, Addr line_addr) const
    {
        int hit = -1;
        for (unsigned w = 0; w < nWays; ++w)
            hit = tags[w] == line_addr ? static_cast<int>(w) : hit;
        return hit;
    }

    /** A hit on the way aged @p age: make it the most recently used
     *  when @p touch, and OR in @p dirty. */
    void
    refresh(std::uint64_t &age, bool touch, bool dirty)
    {
        if (touch)
            age = (nextLru++ << 1) | (age & 1);
        age |= dirty;
    }

    /** Replace the oldest way of the set at @p tags (a free way ages 0,
     *  so the first free one wins) with a fresh line. */
    Victim
    fill(Addr *tags, Addr line_addr, bool dirty)
    {
        std::uint64_t *ages = tags + nWays;
        unsigned v = 0;
        std::uint64_t oldest = ages[0];
        for (unsigned w = 1; w < nWays; ++w) {
            const bool older = ages[w] < oldest;
            oldest = older ? ages[w] : oldest;
            v = older ? w : v;
        }
        const bool valid = tags[v] != invalidTag;
        const Victim out{valid, valid ? tags[v] : 0,
                         (ages[v] & 1) != 0};
        tags[v] = line_addr;
        ages[v] = (nextLru++ << 1) | dirty;
        return out;
    }

    unsigned nSets;
    unsigned setMask = 0;  ///< nSets - 1 when nSets is a power of two
    unsigned nWays;
    std::uint64_t nextLru = 1;  ///< 0 is the age of a free way

    /** Set-major blocks of nWays tags then nWays ages, starting at
     *  store[first] (the first host-cacheline boundary). */
    std::vector<std::uint64_t> store;
    std::size_t first = 0;

    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
};

} // namespace fbdp

#endif // FBDP_CACHE_CACHE_ARRAY_HH
