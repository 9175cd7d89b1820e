/**
 * @file
 * Determinism contract of the sharded event kernel: a run is a pure
 * function of its configuration.  Two fresh runs of the same machine
 * digest identically, and the observer knobs (kernel self-profiling,
 * latency attribution) leave every simulation result untouched.
 *
 * Every deterministic field of RunResult (counters, exact doubles via
 * hexfloat, kernel counters) is folded into one digest string and
 * compared with EXPECT_EQ; only host-time fields
 * (KernelProfile::hostEventSeconds and rates derived from it, the
 * per-shard seconds) are excluded, since wall time legitimately
 * varies.
 */

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>

#include "system/system.hh"
#include "workload/mixes.hh"

namespace fbdp {
namespace {

SystemConfig
eightChannelMachine()
{
    SystemConfig c = SystemConfig::fbdAp();
    c.logicChannels = 8;
    c.benchmarks = mixByName("2C-1").benches;
    c.warmupInsts = 10'000;
    c.measureInsts = 30'000;
    c.seed = 7;
    return c;
}

void
digestBreakdown(std::ostringstream &os, const ChannelBreakdown &b)
{
    for (unsigned c = 0; c < numLatClasses; ++c) {
        os << " s" << b.cls[c].samples << " t" << b.cls[c].totalTicks;
        for (unsigned p = 0; p < numLatPhases; ++p)
            os << " p" << b.cls[c].phaseTicks[p];
    }
}

/** Every deterministic field of @p r, one token stream. */
std::string
digest(const RunResult &r)
{
    std::ostringstream os;
    os << std::hexfloat; // doubles bit-exact, not rounded
    os << "ticks " << r.measuredTicks << " lat " << r.avgReadLatencyNs
       << " bw " << r.bandwidthGBs << "\n";
    os << "reads " << r.reads << " writes " << r.writes << " cov "
       << r.coverage << " eff " << r.efficiency << "\n";
    os << "ipc";
    for (double v : r.ipc)
        os << ' ' << v;
    os << "\ninsts";
    for (std::uint64_t v : r.insts)
        os << ' ' << v;
    os << "\nprefetch " << r.prefetch.policy << ' ' << r.prefetch.issued
       << ' ' << r.prefetch.hits << ' ' << r.prefetch.lateHits << ' '
       << r.prefetch.dropped << ' ' << r.prefetch.evictedUnused << ' '
       << r.prefetch.invalidatedUnused << "\n";
    os << "ops " << r.ops.actPre << ' ' << r.ops.rdCas << ' '
       << r.ops.wrCas << ' ' << r.ops.refresh << "\n";
    os << "l2 " << r.l2Misses << ' ' << r.l2Hits << ' '
       << r.swPrefetchesSent << "\n";
    for (const LatencyClassStats *s :
         {&r.latDemand, &r.latPrefHit, &r.latWrite})
        os << "latclass " << s->samples << ' ' << s->p50Ns << ' '
           << s->p95Ns << ' ' << s->p99Ns << "\n";
    os << "att " << r.attribution.enabled;
    digestBreakdown(os, r.attribution.total);
    for (const ChannelBreakdown &cb : r.attribution.channels)
        digestBreakdown(os, cb);
    for (const CoreCycleBreakdown &core : r.attribution.cores) {
        os << " w" << core.windowTicks;
        for (unsigned i = 0; i < CoreStallAttribution::numReasons; ++i)
            os << " r" << core.stall[i];
    }
    os << "\nruninsts " << r.runInsts << "\n";
    // Kernel counters are part of the contract too: the staged rounds
    // must schedule exactly the same events every time.  Pool
    // acquire/reuse counters are deliberately absent — the
    // transaction pool is per-thread and process-cumulative, so a
    // second System in the same process reports running totals.
    os << "kernel " << r.kernel.eventsDispatched << ' '
       << r.kernel.schedules << ' ' << r.kernel.reschedules << ' '
       << r.kernel.deschedules << ' ' << r.kernel.peakQueueDepth << ' '
       << r.kernel.batchDrains << ' ' << r.kernel.batchedEvents << ' '
       << r.kernel.poolHighWater << "\n";
    return os.str();
}

RunResult
run(const SystemConfig &c)
{
    System sys(c);
    return sys.run();
}

} // namespace

TEST(Determinism, TwoFreshRunsMatch)
{
    SystemConfig c = eightChannelMachine();
    c.attribution = true;
    EXPECT_EQ(digest(run(c)), digest(run(c)));
}

TEST(Determinism, ProfileKernelIsInvisible)
{
    SystemConfig c = eightChannelMachine();
    c.attribution = true;
    const std::string off = digest(run(c));
    c.profileKernel = true;
    EXPECT_EQ(off, digest(run(c)));
}

TEST(Determinism, AttributionIsInvisible)
{
    SystemConfig c = eightChannelMachine();
    const std::string off = digest(run(c));
    c.attribution = true;
    RunResult on = run(c);
    // The attribution tables exist only in attribution-on runs.
    on.attribution = AttributionResult{};
    EXPECT_EQ(off, digest(on));
}

TEST(DeterminismDeathTest, MoreThanOneThreadIsFatal)
{
    SystemConfig c = eightChannelMachine();
    c.threads = 4;
    EXPECT_DEATH(System sys(c), "threads = 4");
}

} // namespace fbdp
