/**
 * @file
 * The benchmark's output check: the expected simulated result of
 * every cell, stored with the benchmark per seed.
 *
 * A cell's result is three CSV lines: its sweep row
 * (ResultSchema::sweepRows), its prefetch block (prefetchStats) and
 * its power block (powerStats).  No host time appears in any of
 * them, so they repeat exactly on every host and every run.
 *
 * Layout under the expected directory, per workload:
 *   <workload>/seed-<N>.txt   full text of every cell, in row order,
 *                             for the shipped seeds (default and
 *                             held-out)
 *   <workload>/digests.txt    one line per seed: the seed, then the
 *                             FNV-1a-64 digest of each cell's text
 */

#ifndef FBDP_PERFBENCH_EXPECTED_HH
#define FBDP_PERFBENCH_EXPECTED_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "system/results.hh"

namespace perfbench {

/** Seed the benchmark runs without --seed, stored in full. */
constexpr std::uint64_t defaultSeed = 1;
/** Held-out seed, stored in full: confirm a gain here too. */
constexpr std::uint64_t heldOutSeed = 2;

/** The simulated result of one cell (three CSV lines, each ending
 *  in a newline). */
std::string cellText(const fbdp::SweepRow &row);

/** Expected per-cell results of one workload at one seed. */
class Expected
{
  public:
    /**
     * Load the expectation for @p seed from @p dir: the full text
     * when stored, else the digest line.  known() is false when
     * neither exists.  Fatal when a stored file does not hold
     * @p cells cells.
     */
    static Expected load(const std::string &dir,
                         const std::string &workload,
                         std::uint64_t seed, std::size_t cells);

    bool known() const { return !digests.empty(); }

    /** "full text" / "digests" / "none". */
    const char *source() const;

    /** Empty when @p text is cell @p i's expected result, else a
     *  one-line description of the difference. */
    std::string mismatch(std::size_t i, const std::string &text) const;

  private:
    std::vector<std::string> texts;    ///< empty unless full text
    std::vector<std::string> digests;  ///< one per cell
};

/**
 * Store @p cell_texts as the expectation for @p seed: replace the
 * seed's line in digests.txt (kept sorted by seed) and, when @p full,
 * write seed-<N>.txt.
 */
void writeExpected(const std::string &dir, const std::string &workload,
                   std::uint64_t seed,
                   const std::vector<std::string> &cell_texts,
                   bool full);

} // namespace perfbench

#endif // FBDP_PERFBENCH_EXPECTED_HH
