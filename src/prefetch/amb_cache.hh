/**
 * @file
 * The AMB cache: the small SRAM prefetch buffer attached to each
 * Advanced Memory Buffer (the paper's core hardware addition).
 *
 * The data array lives on the AMB; the tag-and-status array is held by
 * the memory controller in its prefetch information table.  Because the
 * controller's mirror is authoritative for scheduling, a single model
 * class serves both roles.
 *
 * Organisation: @p entries cachelines of 64 bytes, set-associative with
 * a FIFO replacement policy inside each set.  The paper rejects LRU
 * because a block that just hit is now held by the processor caches and
 * will not be re-referenced soon; FIFO retires the oldest prefetch
 * regardless of use.  Fully associative (the default) is a single set.
 *
 * Each line carries a @c readyAt tick: a prefetch is visible in the tag
 * array from the moment its group fetch is queued, but its data only
 * reaches the SRAM when the pipelined column access completes.  A
 * demand hit on an in-flight line waits for @c readyAt, not for a full
 * DRAM access.
 *
 * Layout: the tags and the FIFO insertion sequence numbers are two
 * contiguous set-major arrays, the single source of truth for which
 * way holds what; the Line payload array only carries readiness and
 * the used bit.  A free way holds the tag @c invalidTag (never
 * line-aligned, so no probe matches it) and sequence 0, while
 * insertions number from 1, so the first free way in way order is the
 * sequence argmin of its set.  Probes and victim choice are full passes
 * with conditional selects rather than early-exit branches on the
 * data, as in CacheArray.
 */

#ifndef FBDP_PREFETCH_AMB_CACHE_HH
#define FBDP_PREFETCH_AMB_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace fbdp {

/** Prefetch buffer of one AMB (tags mirrored at the controller). */
class AmbCache
{
  public:
    /** Sentinel readyAt for "fill not yet scheduled". */
    static constexpr Tick fillPending = maxTick;

    /** Payload of a resident line (its tag lives in the tag array). */
    struct Line
    {
        Tick readyAt = 0;       ///< data present in the SRAM from here
        bool used = false;      ///< serviced at least one demand read
    };

    /** What insertIfAbsent() displaced, for pollution accounting and
     *  policy on-evict training. */
    struct Evicted
    {
        Addr lineAddr = 0;
        bool used = false;
        bool valid = false;  ///< false: nothing was displaced
    };

    /**
     * @param entries total number of 64 B lines (32/64/128 in the
     *                paper's sweeps)
     * @param ways    set associativity; 0 means fully associative
     */
    AmbCache(unsigned entries, unsigned ways);

    /** Find a valid line (line-aligned address). @return nullptr on
     *  miss. */
    Line *
    lookup(Addr line_addr)
    {
        const std::size_t base =
            static_cast<std::size_t>(setOf(line_addr)) * nWays;
        const int w = findWay(base, line_addr);
        return w < 0 ? nullptr : &lines[base + static_cast<unsigned>(w)];
    }
    const Line *
    lookup(Addr line_addr) const
    {
        return const_cast<AmbCache *>(this)->lookup(line_addr);
    }

    /**
     * Insert a line (FIFO-evicting inside its set if needed).  An
     * existing entry for the same address is refreshed in place.
     * @return the inserted line.
     */
    Line *insert(Addr line_addr, Tick ready_at);

    /**
     * Insert only when absent: a resident entry keeps its FIFO age
     * and readiness (true FIFO retires by first insertion).  Single
     * set scan — the group-fetch hot path.  When a valid victim is
     * displaced and @p evicted is non-null, its identity and used
     * bit are reported there.
     * @return the resident or inserted line.
     */
    Line *insertIfAbsent(Addr line_addr, Tick ready_at,
                         Evicted *evicted = nullptr);

    /** Drop a line if present. @return true if something was dropped;
     *  @p was_used (optional) reports the dropped line's used bit. */
    bool invalidate(Addr line_addr, bool *was_used = nullptr);

    /** Invalidate everything. */
    void reset();

    unsigned entries() const { return nEntries; }
    unsigned ways() const { return nWays; }
    unsigned sets() const { return nSets; }

    /** Number of currently valid lines. */
    unsigned population() const;

    std::uint64_t insertions() const { return nInsertions; }
    std::uint64_t evictions() const { return nEvictions; }

  private:
    /** Tag of a free way; never line-aligned, so it matches no probe. */
    static constexpr Addr invalidTag = ~Addr(0);

    unsigned
    setOf(Addr line_addr) const
    {
        // Fold upper address bits into the index.  The lines that
        // reach one AMB share their low line-index bits with the
        // channel/DIMM selector of the interleaving, so a plain modulo
        // would alias every resident line onto a handful of sets;
        // hardware indexes with DIMM-local bits instead, which this is
        // equivalent to.
        std::uint64_t l = lineIndex(line_addr);
        l ^= l >> 5;
        l ^= l >> 11;
        if (setMask)
            return static_cast<unsigned>(l & setMask);
        return static_cast<unsigned>(l % nSets);
    }

    /** Way of the set starting at tags[@p base] holding @p line_addr,
     *  or -1 (tags are unique in a set, so no early exit is needed). */
    int
    findWay(std::size_t base, Addr line_addr) const
    {
        const Addr *t = &tags[base];
        int hit = -1;
        for (unsigned w = 0; w < nWays; ++w)
            hit = t[w] == line_addr ? static_cast<int>(w) : hit;
        return hit;
    }

    /** Fill the oldest way of @p set (the first free one, if any) with
     *  @p line_addr, reporting a displaced valid line in @p evicted. */
    Line *fill(unsigned set, Addr line_addr, Tick ready_at,
               Evicted *evicted);

    unsigned nEntries;
    unsigned nWays;
    unsigned nSets;
    unsigned setMask = 0;  ///< nSets - 1 when nSets is a power of two
    std::uint64_t nextSeq = 1;  ///< 0 is the sequence of a free way

    std::uint64_t nInsertions = 0;
    std::uint64_t nEvictions = 0;

    // nSets x nWays, set-major.
    std::vector<Addr> tags;           ///< invalidTag when free
    std::vector<std::uint64_t> seqs;  ///< FIFO insertion order; 0 free
    std::vector<Line> lines;          ///< payload
    std::vector<unsigned> nValid;     ///< valid ways per set
};

} // namespace fbdp

#endif // FBDP_PREFETCH_AMB_CACHE_HH
