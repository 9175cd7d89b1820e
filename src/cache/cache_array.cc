#include "cache/cache_array.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fbdp {

namespace {

/** Host cacheline, in tag-array words. */
constexpr std::size_t hostLineWords = 64 / sizeof(std::uint64_t);

} // namespace

CacheArray::CacheArray(std::uint64_t size_bytes, unsigned ways)
    : nSets(0), nWays(ways)
{
    fbdp_assert(ways >= 1, "cache needs >= 1 way");
    fbdp_assert(size_bytes % (static_cast<std::uint64_t>(ways)
                              * lineBytes) == 0,
                "cache size not divisible by way size");
    nSets = static_cast<unsigned>(size_bytes
                                  / (static_cast<std::uint64_t>(ways)
                                     * lineBytes));
    fbdp_assert(nSets >= 1, "cache has zero sets");
    if ((nSets & (nSets - 1)) == 0)
        setMask = nSets - 1;
    // Over-allocate one host line so the first set can start on a
    // line boundary (then a 4-way set fills exactly one line).
    store.resize(static_cast<std::size_t>(nSets) * 2 * nWays
                 + hostLineWords - 1);
    const auto misalign = reinterpret_cast<std::uintptr_t>(store.data())
        / sizeof(std::uint64_t) % hostLineWords;
    first = (hostLineWords - misalign) % hostLineWords;
    reset();
}

bool
CacheArray::invalidate(Addr line_addr)
{
    Addr *tags = setBase(line_addr);
    const int w = findWay(tags, line_addr);
    if (w < 0)
        return false;
    tags[w] = invalidTag;
    tags[nWays + static_cast<unsigned>(w)] = 0;
    return true;
}

bool
CacheArray::operator==(const CacheArray &o) const
{
    if (nSets != o.nSets || nWays != o.nWays || nextLru != o.nextLru
        || nHits != o.nHits || nMisses != o.nMisses)
        return false;
    const std::size_t words = static_cast<std::size_t>(nSets) * 2 * nWays;
    return std::equal(store.begin() + static_cast<std::ptrdiff_t>(first),
                      store.begin()
                          + static_cast<std::ptrdiff_t>(first + words),
                      o.store.begin()
                          + static_cast<std::ptrdiff_t>(o.first));
}

void
CacheArray::reset()
{
    for (std::size_t s = 0; s < nSets; ++s) {
        Addr *tags = &store[first + s * 2 * nWays];
        std::fill(tags, tags + nWays, invalidTag);
        std::fill(tags + nWays, tags + 2 * nWays, 0);
    }
    nextLru = 1;
    resetStats();
}

} // namespace fbdp
