#include "prefetch/amb_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fbdp {

AmbCache::AmbCache(unsigned entries, unsigned ways)
    : nEntries(entries),
      nWays(ways == 0 ? entries : ways),
      nSets(entries / (ways == 0 ? entries : ways))
{
    fbdp_assert(entries >= 1, "AMB cache needs at least one entry");
    fbdp_assert(nWays >= 1 && entries % nWays == 0,
                "entries %u not divisible by ways %u", entries, nWays);
    if ((nSets & (nSets - 1)) == 0)
        setMask = nSets - 1;
    tags.resize(entries);
    seqs.resize(entries);
    lines.resize(entries);
    nValid.resize(nSets);
    reset();
}

AmbCache::Line *
AmbCache::insert(Addr line_addr, Tick ready_at)
{
    const unsigned set = setOf(line_addr);
    const std::size_t base = static_cast<std::size_t>(set) * nWays;
    const int w = findWay(base, line_addr);
    if (w < 0)
        return fill(set, line_addr, ready_at, nullptr);
    // Resident: refresh in place (a re-insert restarts its FIFO age).
    const std::size_t i = base + static_cast<unsigned>(w);
    lines[i].readyAt = ready_at;
    seqs[i] = nextSeq++;
    return &lines[i];
}

AmbCache::Line *
AmbCache::insertIfAbsent(Addr line_addr, Tick ready_at,
                         Evicted *evicted)
{
    const unsigned set = setOf(line_addr);
    const std::size_t base = static_cast<std::size_t>(set) * nWays;
    const int w = findWay(base, line_addr);
    if (w < 0)
        return fill(set, line_addr, ready_at, evicted);
    return &lines[base + static_cast<unsigned>(w)];
}

AmbCache::Line *
AmbCache::fill(unsigned set, Addr line_addr, Tick ready_at,
               Evicted *evicted)
{
    const std::size_t base = static_cast<std::size_t>(set) * nWays;
    const std::uint64_t *s = &seqs[base];
    unsigned v = 0;
    std::uint64_t oldest = s[0];
    for (unsigned w = 1; w < nWays; ++w) {
        const bool older = s[w] < oldest;
        oldest = older ? s[w] : oldest;
        v = older ? w : v;
    }

    const std::size_t i = base + v;
    if (nValid[set] == nWays) {
        // FIFO: the oldest insertion in the set goes.
        ++nEvictions;
        if (evicted)
            *evicted = Evicted{tags[i], lines[i].used, true};
    } else {
        ++nValid[set];
    }
    tags[i] = line_addr;
    seqs[i] = nextSeq++;
    lines[i] = Line{ready_at, false};
    ++nInsertions;
    return &lines[i];
}

bool
AmbCache::invalidate(Addr line_addr, bool *was_used)
{
    const unsigned set = setOf(line_addr);
    const std::size_t base = static_cast<std::size_t>(set) * nWays;
    const int w = findWay(base, line_addr);
    if (w < 0)
        return false;
    const std::size_t i = base + static_cast<unsigned>(w);
    tags[i] = invalidTag;
    seqs[i] = 0;
    --nValid[set];
    if (was_used)
        *was_used = lines[i].used;
    return true;
}

void
AmbCache::reset()
{
    std::fill(tags.begin(), tags.end(), invalidTag);
    std::fill(seqs.begin(), seqs.end(), 0);
    std::fill(lines.begin(), lines.end(), Line{});
    std::fill(nValid.begin(), nValid.end(), 0u);
    nextSeq = 1;
    nInsertions = 0;
    nEvictions = 0;
}

unsigned
AmbCache::population() const
{
    unsigned n = 0;
    for (unsigned c : nValid)
        n += c;
    return n;
}

} // namespace fbdp
