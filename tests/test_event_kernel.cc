/**
 * @file
 * Kernel-order tests: a randomized differential test driving the
 * indexed event queue and a naive reference model through the same
 * operation stream (asserting identical dispatch sequences), and a
 * whole-System determinism test (two identical runs, identical
 * metrics and kernel counters).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "system/config.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

namespace fbdp {
namespace {

/**
 * Reference dispatch-order model: a flat list of live entries, total
 * order (when, priority, seq) recomputed by linear scan at every
 * step.  Deliberately nothing like a heap, so a heap bug cannot be
 * mirrored here.  Sequence numbers advance on every schedule() —
 * including reschedules — exactly like the real queue.
 */
class RefModel
{
  public:
    void
    schedule(int id, Tick when, int prio)
    {
        deschedule(id);
        live.push_back(Entry{when, nextSeq++, id, prio});
    }

    void
    deschedule(int id)
    {
        for (std::size_t i = 0; i < live.size(); ++i) {
            if (live[i].id == id) {
                live.erase(live.begin()
                           + static_cast<std::ptrdiff_t>(i));
                return;
            }
        }
    }

    bool scheduled(int id) const
    {
        for (const Entry &e : live) {
            if (e.id == id)
                return true;
        }
        return false;
    }

    /** Remove and return the next entry in dispatch order. */
    bool
    step(int &id, Tick &when)
    {
        if (live.empty())
            return false;
        std::size_t best = 0;
        for (std::size_t i = 1; i < live.size(); ++i) {
            if (before(live[i], live[best]))
                best = i;
        }
        id = live[best].id;
        when = live[best].when;
        curTick = live[best].when;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(best));
        return true;
    }

    Tick now() const { return curTick; }
    bool empty() const { return live.empty(); }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        int id;
        int prio;
    };

    static bool
    before(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.prio != b.prio)
            return a.prio < b.prio;
        return a.seq < b.seq;
    }

    std::vector<Entry> live;
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
};

/** Deterministic xorshift64* driver RNG (independent of the model). */
struct TestRng
{
    std::uint64_t s;

    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545F4914F6CDD1Dull;
    }

    std::uint64_t pick(std::uint64_t n) { return next() % n; }
};

TEST(EventKernelDifferential, RandomOpsMatchReferenceOrder)
{
    constexpr int population = 48;
    constexpr int ops = 100'000;
    static const int prios[] = {Event::prioData, Event::prioDefault,
                                Event::prioCpu};

    EventQueue eq;
    RefModel ref;
    TestRng rng{0x9E3779B97F4A7C15ull};

    // Each dispatch appends (id, tick) to its log; the two logs must
    // agree element for element.
    std::vector<std::pair<int, Tick>> logQ, logR;

    std::vector<std::unique_ptr<Event>> evs;
    std::vector<int> prioOf(population);
    for (int i = 0; i < population; ++i) {
        prioOf[static_cast<std::size_t>(i)] =
            prios[static_cast<std::size_t>(i) % 3];
        evs.push_back(std::make_unique<Event>(
            [i, &logQ, &eq] { logQ.emplace_back(i, eq.now()); },
            prioOf[static_cast<std::size_t>(i)]));
    }

    auto stepBoth = [&] {
        const bool hadQ = eq.step();
        int id = -1;
        Tick when = 0;
        const bool hadR = ref.step(id, when);
        ASSERT_EQ(hadQ, hadR);
        if (hadR)
            logR.emplace_back(id, when);
    };

    for (int op = 0; op < ops; ++op) {
        const std::uint64_t kind = rng.pick(100);
        if (kind < 60) {
            const int id = static_cast<int>(rng.pick(population));
            // Same-tick schedules are common in the simulator; make
            // them common here too.
            const Tick when = eq.now() + rng.pick(500);
            eq.schedule(evs[static_cast<std::size_t>(id)].get(),
                        when);
            ref.schedule(id, when,
                         prioOf[static_cast<std::size_t>(id)]);
        } else if (kind < 72) {
            const int id = static_cast<int>(rng.pick(population));
            ASSERT_EQ(evs[static_cast<std::size_t>(id)]->scheduled(),
                      ref.scheduled(id));
            eq.deschedule(evs[static_cast<std::size_t>(id)].get());
            ref.deschedule(id);
        } else {
            stepBoth();
            if (HasFatalFailure())
                return;
        }
        ASSERT_EQ(eq.empty(), ref.empty());
    }

    // Drain both queues completely.
    while (!eq.empty() || !ref.empty()) {
        stepBoth();
        if (HasFatalFailure())
            return;
    }

    ASSERT_EQ(logQ.size(), logR.size());
    for (std::size_t i = 0; i < logQ.size(); ++i) {
        EXPECT_EQ(logQ[i], logR[i]) << "dispatch #" << i
                                    << " diverged";
    }
    EXPECT_EQ(eq.now(), ref.now());
    EXPECT_GT(logQ.size(), 10'000u) << "driver exercised too little";
}

TEST(EventKernelDeterminism, TwoIdenticalRunsIdenticalMetrics)
{
    SystemConfig cfg = SystemConfig::fbdAp();
    cfg.measureInsts = 8'000;
    cfg.warmupInsts = 2'000;
    const WorkloadMix &mix = mixByName("2C-1");

    const RunResult a = runMix(cfg, mix);
    const RunResult b = runMix(cfg, mix);

    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i) {
        EXPECT_EQ(a.ipc[i], b.ipc[i]) << "core " << i;
        EXPECT_EQ(a.insts[i], b.insts[i]) << "core " << i;
    }
    EXPECT_EQ(a.measuredTicks, b.measuredTicks);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.prefetch.hits, b.prefetch.hits);
    EXPECT_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
    EXPECT_EQ(a.bandwidthGBs, b.bandwidthGBs);
    EXPECT_EQ(a.ops.actPre, b.ops.actPre);
    EXPECT_EQ(a.ops.cas(), b.ops.cas());
    EXPECT_EQ(a.ops.refresh, b.ops.refresh);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.swPrefetchesSent, b.swPrefetchesSent);
    EXPECT_EQ(a.runInsts, b.runInsts);

    // The kernel profile must be tick-deterministic too (host time
    // excluded, of course).
    EXPECT_EQ(a.kernel.eventsDispatched, b.kernel.eventsDispatched);
    EXPECT_EQ(a.kernel.schedules, b.kernel.schedules);
    EXPECT_EQ(a.kernel.reschedules, b.kernel.reschedules);
    EXPECT_EQ(a.kernel.deschedules, b.kernel.deschedules);
    EXPECT_EQ(a.kernel.peakQueueDepth, b.kernel.peakQueueDepth);
}

} // namespace
} // namespace fbdp
