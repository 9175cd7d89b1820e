/**
 * @file
 * The benchmark's workloads: which machines run which programs, and
 * the set-up that builds them from a seed.
 *
 * A workload is a grid of named machine configurations crossed with
 * workload mixes, in the same config-major cell order as fbdp::Sweep,
 * run on a fixed number of workers.  Every cell is a closed loop: a
 * worker starts its next cell only when the previous one finished.
 */

#ifndef FBDP_PERFBENCH_WORKLOADS_HH
#define FBDP_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "system/config.hh"
#include "workload/mixes.hh"

namespace perfbench {

/** One cell: a named machine running one mix. */
struct Cell
{
    std::string config;
    std::string mix;
    fbdp::SystemConfig cfg;  ///< benchmarks and seed filled in
};

/** A benchmark workload (see README.md for why each exists). */
struct Workload
{
    std::string name;
    std::vector<std::pair<std::string, fbdp::SystemConfig>> configs;
    std::vector<fbdp::WorkloadMix> mixes;
    unsigned workers = 1;
    std::vector<std::string> traces;  ///< files recorded by set-up

    /** Cells in fbdp::Sweep's row order (config-major). */
    std::vector<Cell> cells() const;
};

/** Names accepted by setUp(), in documentation order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name for @p seed: the benchmark's set-up.  It
 * makes every configuration and, for trace-irregular, records the
 * per-core traces into @p work_dir.  The seed feeds
 * SystemConfig::seed and the trace recording.  Fatal on an unknown
 * name.
 */
Workload setUp(const std::string &name, std::uint64_t seed,
               const std::string &work_dir);

} // namespace perfbench

#endif // FBDP_PERFBENCH_WORKLOADS_HH
