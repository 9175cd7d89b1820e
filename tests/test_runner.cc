/**
 * @file
 * Experiment-runner tests: reference caching, the SMT-speedup metric,
 * environment overrides.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>
#include <thread>
#include <vector>

#include "system/runner.hh"

namespace fbdp {
namespace {

SystemConfig
quickRef()
{
    SystemConfig c = SystemConfig::ddr2();
    c.warmupInsts = 10'000;
    c.measureInsts = 50'000;
    return c;
}

TEST(RunnerTest, RunMixFillsBenchmarks)
{
    RunResult r = runMix(quickRef(), mixByName("2C-3"));
    ASSERT_EQ(r.ipc.size(), 2u);
    EXPECT_GT(r.ipc[0], 0.0);
    EXPECT_GT(r.ipc[1], 0.0);
}

TEST(RunnerTest, ReferenceSetCachesRuns)
{
    ReferenceSet refs(quickRef());
    const double a = refs.ipcOf("vpr");
    const double b = refs.ipcOf("vpr");
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(a, 0.0);
}

TEST(RunnerTest, ReferencesDifferAcrossPrograms)
{
    ReferenceSet refs(quickRef());
    // A streaming FP code and a low-ILP integer code should land at
    // visibly different absolute IPC.
    EXPECT_NE(refs.ipcOf("swim"), refs.ipcOf("parser"));
}

TEST(RunnerTest, SmtSpeedupOfReferenceMachineIsCoreCount)
{
    // Running each reference program on the reference machine gives
    // per-core ratios of ~1.0, so the sum is ~nCores for single-core.
    ReferenceSet refs(quickRef());
    const WorkloadMix &mix = mixByName("1C-gap");
    RunResult r = runMix(quickRef(), mix);
    const double s = smtSpeedup(r, mix, refs);
    EXPECT_NEAR(s, 1.0, 0.05);
}

TEST(RunnerTest, SmtSpeedupRejectsMismatchedMix)
{
    ReferenceSet refs(quickRef());
    RunResult r = runMix(quickRef(), mixByName("1C-gap"));
    EXPECT_DEATH(smtSpeedup(r, mixByName("2C-1"), refs),
                 "mismatch");
}

TEST(RunnerTest, RunCellsMatchesRunMixInOrder)
{
    const WorkloadMix &gap = mixByName("1C-gap");
    const WorkloadMix &vpr = mixByName("1C-vpr");
    std::vector<RunCell> cells{{quickRef(), &gap},
                               {quickRef(), &vpr}};
    // Parallel batch vs the one-at-a-time helper: identical runs.
    const auto batch = runCells(cells, 2);
    ASSERT_EQ(batch.size(), 2u);
    const RunResult a = runMix(quickRef(), gap);
    const RunResult b = runMix(quickRef(), vpr);
    EXPECT_EQ(batch[0].reads, a.reads);
    EXPECT_DOUBLE_EQ(batch[0].ipcSum(), a.ipcSum());
    EXPECT_EQ(batch[1].reads, b.reads);
    EXPECT_DOUBLE_EQ(batch[1].ipcSum(), b.ipcSum());
}

TEST(RunnerTest, JobsFromEnvParsesAndFallsBack)
{
    setenv("FBDP_JOBS", "5", 1);
    EXPECT_EQ(jobsFromEnv(), 5u);
    setenv("FBDP_JOBS", "1024", 1);
    EXPECT_EQ(jobsFromEnv(), 1024u);
    // Garbage, out-of-range and trailing-junk values all warn and
    // fall back to serial instead of silently parsing to 0.
    for (const char *bad : {"junk", "max", "0", "-3", "8x", "2000",
                            ""}) {
        setenv("FBDP_JOBS", bad, 1);
        EXPECT_EQ(jobsFromEnv(), 1u) << "FBDP_JOBS='" << bad << "'";
    }
    unsetenv("FBDP_JOBS");
    EXPECT_EQ(jobsFromEnv(), 1u);
}

TEST(RunnerTest, ParseIntegerAcceptsWholeNumbersInRange)
{
    EXPECT_EQ(parseInteger("20000", 1, 1'000'000), 20000);
    EXPECT_EQ(parseInteger("0", 0, 10), 0);
    EXPECT_EQ(parseInteger("-3", -5, 5), -3);
    EXPECT_EQ(parseInteger("64", 1, 64), 64);
    EXPECT_EQ(parseInteger("9223372036854775807", 0, LLONG_MAX),
              LLONG_MAX);
}

TEST(RunnerTest, ParseIntegerRejectsJunkAndOutOfRange)
{
    // atoi would read "20k" as 20 and "two" as 0.
    for (const char *bad : {"20k", "two", "", "1.5", "0x10", "8 ",
                            "--5", "9223372036854775808"}) {
        EXPECT_FALSE(parseInteger(bad, 0, LLONG_MAX))
            << "'" << bad << "'";
    }
    EXPECT_FALSE(parseInteger(nullptr, 0, 10));
    EXPECT_FALSE(parseInteger("0", 1, 10));
    EXPECT_FALSE(parseInteger("11", 1, 10));
    EXPECT_FALSE(parseInteger("-1", 0, 10));
}

TEST(RunnerTest, ReferenceSetIsThreadSafe)
{
    ReferenceSet refs(quickRef());
    std::vector<std::thread> threads;
    std::vector<double> got(4, 0.0);
    for (int i = 0; i < 4; ++i)
        threads.emplace_back(
            [&refs, &got, i] { got[i] = refs.ipcOf("gap"); });
    for (auto &t : threads)
        t.join();
    for (int i = 1; i < 4; ++i)
        EXPECT_DOUBLE_EQ(got[0], got[i]);
    EXPECT_GT(got[0], 0.0);
}

TEST(RunnerTest, EnvOverridesApply)
{
    setenv("FBDP_MEASURE_INSTS", "123456", 1);
    setenv("FBDP_WARMUP_INSTS", "7890", 1);
    SystemConfig c;
    applyInstsFromEnv(c);
    EXPECT_EQ(c.measureInsts, 123456u);
    EXPECT_EQ(c.warmupInsts, 7890u);
    unsetenv("FBDP_MEASURE_INSTS");
    unsetenv("FBDP_WARMUP_INSTS");
}

TEST(RunnerTest, EnvIgnoresGarbage)
{
    SystemConfig c;
    const std::uint64_t before = c.measureInsts;
    for (const char *bad : {"not-a-number", "20k", "0", "-5"}) {
        setenv("FBDP_MEASURE_INSTS", bad, 1);
        applyInstsFromEnv(c);
        EXPECT_EQ(c.measureInsts, before) << "'" << bad << "'";
    }
    unsetenv("FBDP_MEASURE_INSTS");
}

TEST(RunnerTest, TotalInstsSumsCores)
{
    RunResult r;
    r.insts = {100, 200, 300};
    EXPECT_DOUBLE_EQ(r.totalInsts(), 600.0);
    r.ipc = {1.0, 2.0, 0.5};
    EXPECT_DOUBLE_EQ(r.ipcSum(), 3.5);
}

} // namespace
} // namespace fbdp
