/**
 * @file
 * The cross-run ledger: a durable, append-only line of sight across
 * simulations.
 *
 * Every run (or sweep cell) can append one single-line JSON record —
 * its manifest plus the headline metrics — to a `runs.jsonl` file.
 * Records accumulate across sessions, branches and machines, which
 * turns three questions that used to need archaeology into one file
 * read:
 *
 *  - "did this exact configuration get slower since last week?"
 *    (`fbdp-report --history`: the newest record vs the mean of its
 *    predecessors with the same config digest, under the rundiff
 *    tolerance machinery),
 *  - "what changed between those runs?" (each record embeds the full
 *    manifest: git SHA, build type, compiler, host),
 *  - "what does the fleet look like?" (`fbdp-dash` renders the ledger
 *    as a static HTML dashboard).
 *
 * Schema `fbdp-ledger-v1`: {"schema", "manifest": {...}, "config",
 * "mix", "seed", "metrics": {...}}, one object per line.  Counters
 * are written as exact integers and non-finite metrics as the JSON
 * NaN/Infinity extension — the parser in common/json reads both back
 * losslessly, so appending and re-reading a record is exact.
 *
 * History analysis groups records by manifest config digest: the
 * digest hashes the simulated machine and workload (not observer or
 * host facts), so records from different hosts or job counts land on
 * the same trend line — their simulated results are bit-identical
 * by construction, and only genuine regressions (or host-side
 * sim-rate changes, which are exactly what one wants to notice)
 * separate them.
 */

#ifndef FBDP_SYSTEM_LEDGER_HH
#define FBDP_SYSTEM_LEDGER_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "system/manifest.hh"
#include "system/results.hh"
#include "system/rundiff.hh"

namespace fbdp {

/** Ledger line format tag. */
inline constexpr const char *ledgerSchema = "fbdp-ledger-v1";

/** One ledger record (single line, no trailing newline). */
std::string ledgerRecordJson(const RunManifest &m, const SweepRow &row);

/**
 * Append @p record_json (one line) to @p path, creating the file on
 * first use.  @return false with @p error set on IO failure.
 */
bool appendLedgerRecord(const std::string &path,
                        const std::string &record_json,
                        std::string *error = nullptr);

/**
 * Read every record of @p path in file (= append) order.  Blank lines
 * are skipped; a malformed line is an error (the ledger is written by
 * this module — damage should be loud, not silently dropped).
 */
std::vector<json::ValuePtr> readLedger(const std::string &path,
                                       std::string *error);

/** Policy of one history analysis. */
struct HistoryOptions
{
    /** Relative drift tolerance (rundiff semantics; 0 = exact). */
    double tolerance = 0.10;

    /** Use only the newest N matching records (0 = all). */
    std::size_t lastN = 0;

    /** Config digest to trend; empty selects the newest record's. */
    std::string digest;

    /** Which drift direction fails (drift is two-sided by default —
     *  a trend monitor wants to see improvements too). */
    DiffDirection direction = DiffDirection::TwoSided;

    std::vector<std::string> only;   ///< metric-path substrings kept
    std::vector<std::string> ignore; ///< metric-path substrings skipped
};

/** Outcome of one history analysis. */
struct HistoryReport
{
    std::string digest;       ///< trend line analysed
    std::size_t matching = 0; ///< ledger records with that digest
    std::size_t window = 0;   ///< analysed (priors + the candidate)
    std::string config, mix;  ///< labels from the newest record

    /** Baseline (per-metric mean of the prior records) vs the newest
     *  record. */
    DiffReport diff;

    std::string error; ///< non-empty when analysis was impossible

    bool ok() const { return error.empty(); }

    /** True when the newest record drifted beyond tolerance. */
    bool drifted() const { return diff.failed(); }
};

/**
 * Trend the newest matching record against the mean of its
 * predecessors.  Needs >= 2 matching records, else error.  Records
 * that are not ledger objects (wrong/missing schema tag) are ignored.
 */
HistoryReport analyzeHistory(const std::vector<json::ValuePtr> &records,
                             const HistoryOptions &opt);

/** Human-readable report (header + rundiff table). */
void printHistoryReport(const HistoryReport &r, std::ostream &os,
                        bool verbose = false);

} // namespace fbdp

#endif // FBDP_SYSTEM_LEDGER_HH
