/**
 * @file
 * Live-progress layer: sweep sinks must see a complete, well-formed
 * event stream without perturbing rows or bytes; the single-run
 * heartbeat pulse must beat and stay invisible to simulation results;
 * the ETA arithmetic must be sane.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "system/progress.hh"
#include "system/sweep.hh"
#include "system/system.hh"
#include "workload/mixes.hh"

using namespace fbdp;

namespace {

SystemConfig
quick(SystemConfig c)
{
    c.warmupInsts = 10'000;
    c.measureInsts = 40'000;
    return c;
}

/** Records every event for structural assertions. */
class RecordingSink : public ProgressSink
{
  public:
    std::size_t started = 0, finished = 0, failed = 0;
    std::size_t sweepStarts = 0, sweepEnds = 0, heartbeats = 0;
    std::size_t announcedCells = 0;
    std::vector<std::size_t> startOrder, finishOrder;
    std::vector<CellId> finishedIds;
    double lastWall = -1.0;
    HeartbeatSample lastHb;

    void
    sweepStarted(std::size_t cells, unsigned jobs) override
    {
        ++sweepStarts;
        announcedCells = cells;
        EXPECT_GE(jobs, 1u);
    }

    void
    cellStarted(std::size_t index, const CellId &) override
    {
        ++started;
        startOrder.push_back(index);
    }

    void
    cellFinished(std::size_t index, const CellId &id,
                 double wall_seconds) override
    {
        ++finished;
        finishOrder.push_back(index);
        finishedIds.push_back(id);
        EXPECT_GE(wall_seconds, 0.0);
    }

    void
    cellFailed(std::size_t, const CellId &,
               const std::string &) override
    {
        ++failed;
    }

    void
    sweepFinished(double wall_seconds) override
    {
        ++sweepEnds;
        lastWall = wall_seconds;
    }

    void
    runHeartbeat(const HeartbeatSample &hb) override
    {
        ++heartbeats;
        lastHb = hb;
    }
};

Sweep
smallSweep()
{
    Sweep s;
    s.addConfig("ddr2", quick(SystemConfig::ddr2()))
        .addConfig("fbd-ap", quick(SystemConfig::fbdAp()))
        .addMix(mixByName("1C-swim"))
        .addMix(mixByName("1C-gap"));
    return s;
}

TEST(ProgressSinkTest, SweepEmitsCompleteEventStream)
{
    Sweep s = smallSweep();
    RecordingSink sink;
    s.progress(&sink);
    const auto rows = s.run();

    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(sink.sweepStarts, 1u);
    EXPECT_EQ(sink.sweepEnds, 1u);
    EXPECT_EQ(sink.announcedCells, 4u);
    EXPECT_EQ(sink.started, 4u);
    EXPECT_EQ(sink.finished, 4u);
    EXPECT_EQ(sink.failed, 0u);
    EXPECT_GE(sink.lastWall, 0.0);

    // Every cell index appears exactly once in each stream.
    std::vector<std::size_t> sorted = sink.finishOrder;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2, 3}));
    sorted = sink.startOrder;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2, 3}));

    // Cell identity matches the row the same index produced.
    for (std::size_t k = 0; k < sink.finishOrder.size(); ++k) {
        const std::size_t idx = sink.finishOrder[k];
        EXPECT_EQ(sink.finishedIds[k].config, rows[idx].config);
        EXPECT_EQ(sink.finishedIds[k].mix, rows[idx].mix);
        EXPECT_EQ(sink.finishedIds[k].seed, rows[idx].seed);
    }
}

TEST(ProgressSinkTest, SinkDoesNotPerturbRowsOrBytes)
{
    std::ostringstream plain;
    smallSweep().runCsv(plain);

    RecordingSink sink;
    std::ostringstream observed;
    Sweep s = smallSweep();
    s.progress(&sink);
    s.runCsv(observed);

    EXPECT_EQ(plain.str(), observed.str());
    EXPECT_EQ(sink.finished, 4u);
}

TEST(ProgressSinkTest, JsonlStreamIsParseableObjects)
{
    Sweep s = smallSweep();
    std::ostringstream os;
    JsonlProgress jsonl(os);
    s.progress(&jsonl);
    s.run();

    std::istringstream in(os.str());
    std::string line;
    std::size_t n = 0;
    bool sawStart = false, sawEnd = false;
    std::size_t cellEvents = 0;
    while (std::getline(in, line)) {
        const auto pr = json::parse(line);
        ASSERT_TRUE(pr.ok()) << pr.error << "\nline: " << line;
        const json::ValuePtr ev = pr.value->get("event");
        ASSERT_NE(ev, nullptr);
        const std::string name = ev->asString();
        if (name == "sweep_started") {
            sawStart = true;
            EXPECT_EQ(pr.value->get("cells")->asUint64(), 4u);
        } else if (name == "sweep_finished") {
            sawEnd = true;
            EXPECT_EQ(pr.value->get("done")->asUint64(), 4u);
        } else if (name == "cell_started"
                   || name == "cell_finished") {
            ++cellEvents;
            ASSERT_NE(pr.value->get("config"), nullptr);
            ASSERT_NE(pr.value->get("mix"), nullptr);
        }
        ++n;
    }
    EXPECT_TRUE(sawStart);
    EXPECT_TRUE(sawEnd);
    EXPECT_EQ(cellEvents, 8u);  // 4 started + 4 finished
    EXPECT_EQ(n, 10u);          // + sweep start/finish
}

TEST(ProgressSinkTest, MuxFansOut)
{
    RecordingSink a, b;
    ProgressMux mux;
    mux.add(&a);
    mux.add(&b);
    Sweep s = smallSweep();
    s.progress(&mux);
    s.run();
    EXPECT_EQ(a.finished, 4u);
    EXPECT_EQ(b.finished, 4u);
    EXPECT_EQ(a.sweepEnds, 1u);
    EXPECT_EQ(b.sweepEnds, 1u);
}

TEST(ProgressEtaTest, MeanTimesOutstandingOverJobs)
{
    SweepEta eta;
    eta.start(10, 2);
    EXPECT_EQ(eta.etaSeconds(), 0.0);  // nothing measured yet
    eta.finished(4.0);
    eta.finished(2.0);
    // mean 3 s/cell, 8 outstanding, 2 workers -> 12 s.
    EXPECT_DOUBLE_EQ(eta.etaSeconds(), 12.0);
    for (int i = 0; i < 8; ++i)
        eta.finished(3.0);
    EXPECT_DOUBLE_EQ(eta.etaSeconds(), 0.0);
}

TEST(ProgressEtaTest, HeartbeatFractionAndEta)
{
    HeartbeatSample hb;
    hb.instsDone = 25'000;
    hb.instsTarget = 100'000;
    hb.hostSeconds = 5.0;
    hb.instsPerSec = 5'000.0;
    EXPECT_DOUBLE_EQ(hb.fraction(), 0.25);
    EXPECT_DOUBLE_EQ(hb.etaSeconds(), 15.0);

    hb.instsDone = 200'000;  // past the target (drain phase)
    EXPECT_DOUBLE_EQ(hb.fraction(), 1.0);
    EXPECT_DOUBLE_EQ(hb.etaSeconds(), 0.0);

    hb.instsPerSec = 0.0;
    EXPECT_DOUBLE_EQ(hb.etaSeconds(), 0.0);
}

TEST(ProgressPulseTest, BeatsAndReportsMonotoneSamples)
{
    SystemConfig cfg = quick(SystemConfig::fbdAp());
    cfg.benchmarks = mixByName("1C-swim").benches;

    RecordingSink sink;
    System sys(cfg);
    ProgressPulse pulse(sys, ProgressPulse::defaultPeriod, sink);
    pulse.start();
    sys.run();
    pulse.finish();

    EXPECT_GT(pulse.beats(), 0u);
    EXPECT_EQ(sink.heartbeats, pulse.beats());
    // The final sample covers the whole run: warm-up + measure.
    EXPECT_EQ(sink.lastHb.instsTarget, 50'000u);
    EXPECT_GE(sink.lastHb.instsDone, 50'000u);
    EXPECT_DOUBLE_EQ(sink.lastHb.fraction(), 1.0);
    EXPECT_GE(sink.lastHb.hostSeconds, 0.0);
}

TEST(ProgressPulseTest, PulseIsInvisibleToResults)
{
    SystemConfig cfg = quick(SystemConfig::fbdAp());
    cfg.benchmarks = mixByName("1C-swim").benches;

    System bare(cfg);
    const RunResult a = bare.run();

    RecordingSink sink;
    System observed(cfg);
    ProgressPulse pulse(observed, ProgressPulse::defaultPeriod,
                        sink);
    pulse.start();
    const RunResult b = observed.run();
    pulse.finish();

    EXPECT_GT(sink.heartbeats, 0u);
    // Simulated outcomes are bit-identical with the pulse attached.
    EXPECT_EQ(a.measuredTicks, b.measuredTicks);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.prefetch.hits, b.prefetch.hits);
    EXPECT_EQ(a.ipcSum(), b.ipcSum());
    EXPECT_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
    EXPECT_EQ(a.bandwidthGBs, b.bandwidthGBs);
}

} // namespace
