/**
 * @file
 * The kernel self-profiler's contract (SystemConfig::profileKernel):
 *
 *  - shape: one ShardProfile per queue shard, shard event counts
 *    summing to the kernel total, mailbox traffic consistent between
 *    posters and drainers;
 *  - conservation: the per-shard busy and drain time is measured
 *    inside the event phases, so it never exceeds their wall time;
 *  - determinism of the gateable summary: eventImbalance() and the
 *    shard event counts are exactly equal across runs;
 *  - the EventQueue batch counters the per-shard rows are built from.
 *
 * That profiling leaves simulation results untouched is checked in
 * test_determinism.cc.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "system/system.hh"
#include "workload/mixes.hh"

namespace fbdp {
namespace {

SystemConfig
profiledMachine(unsigned channels)
{
    SystemConfig c = SystemConfig::fbdAp();
    c.logicChannels = channels;
    c.benchmarks = mixByName("2C-1").benches;
    c.warmupInsts = 5'000;
    c.measureInsts = 15'000;
    c.seed = 7;
    return c;
}

RunResult
runProfiled(SystemConfig c, bool profiled)
{
    c.profileKernel = profiled;
    System sys(c);
    return sys.run();
}

} // namespace

TEST(KernelProfileConservation, ShardTimeFitsInEventPhases)
{
    const RunResult r = runProfiled(profiledMachine(4), true);
    ASSERT_TRUE(r.kernel.profiled);
    double busy = 0.0, drain = 0.0;
    for (const ShardProfile &s : r.kernel.shards) {
        EXPECT_GE(s.busySeconds, 0.0) << s.name;
        EXPECT_GE(s.drainSeconds, 0.0) << s.name;
        busy += s.busySeconds;
        drain += s.drainSeconds;
    }
    EXPECT_GT(busy, 0.0);
    // Every shard interval lies inside the timed event phases.
    EXPECT_LE(busy + drain, r.kernel.hostEventSeconds);
}

TEST(KernelProfileShape, ShardRowsCoverEveryQueue)
{
    const unsigned channels = 4;
    const RunResult r = runProfiled(profiledMachine(channels), true);
    ASSERT_TRUE(r.kernel.profiled);
    ASSERT_EQ(r.kernel.shards.size(), 1 + channels);
    EXPECT_EQ(r.kernel.shards[0].name, "core");
    for (unsigned ch = 0; ch < channels; ++ch)
        EXPECT_EQ(r.kernel.shards[1 + ch].name,
                  "ch" + std::to_string(ch));

    // Shard dispatch counts partition the kernel total.
    std::uint64_t events = 0, in = 0, out = 0;
    for (const ShardProfile &s : r.kernel.shards) {
        events += s.events;
        in += s.mailboxIn;
        out += s.mailboxOut;
        EXPECT_GT(s.events, 0u) << s.name;
    }
    EXPECT_EQ(events, r.kernel.eventsDispatched);

    // Mailbox traffic: nothing is drained that was not posted; at
    // most the final round's hand-offs are still in flight when the
    // run stops.
    EXPECT_GT(out, 0u);
    EXPECT_LE(in, out);
}

TEST(KernelProfileShape, UnprofiledRunStaysEmpty)
{
    const RunResult r = runProfiled(profiledMachine(2), false);
    EXPECT_FALSE(r.kernel.profiled);
    EXPECT_TRUE(r.kernel.shards.empty());
    EXPECT_EQ(r.kernel.eventImbalance(), 0.0);
    // The aggregate counters stay on regardless of profiling.
    EXPECT_GT(r.kernel.eventsDispatched, 0u);
}

TEST(KernelProfileShape, EventImbalanceIsDeterministic)
{
    const SystemConfig c = profiledMachine(4);
    const RunResult first = runProfiled(c, true);
    const RunResult second = runProfiled(c, true);
    ASSERT_GT(first.kernel.eventImbalance(), 0.0);
    // Dispatch counts are deterministic, so the summary is exactly
    // equal — this is what lets CI gate it at tolerance zero.
    EXPECT_EQ(first.kernel.eventImbalance(),
              second.kernel.eventImbalance());
    for (std::size_t i = 0; i < first.kernel.shards.size(); ++i) {
        EXPECT_EQ(first.kernel.shards[i].events,
                  second.kernel.shards[i].events)
            << first.kernel.shards[i].name;
    }
}

TEST(EventQueueBatchCounters, SameTickBurstIsCountedOnce)
{
    EventQueue eq;
    int fired = 0;
    std::vector<std::unique_ptr<Event>> evs;
    for (int i = 0; i < 32; ++i)
        evs.push_back(std::make_unique<Event>([&fired] { ++fired; }));
    for (auto &e : evs)
        eq.schedule(e.get(), 100);
    eq.run(100);
    EXPECT_EQ(fired, 32);
    EXPECT_EQ(eq.counters().dispatched, 32u);
    // One long burst: one drain pass, and everything past the
    // burst-switch threshold dispatched from the batch.
    EXPECT_EQ(eq.counters().batchDrains, 1u);
    EXPECT_GT(eq.counters().batchedDispatched, 0u);
    EXPECT_LT(eq.counters().batchedDispatched,
              eq.counters().dispatched);

    // A short group never trips the batch path.
    EventQueue small;
    Event a([] {}), c([] {});
    small.schedule(&a, 50);
    small.schedule(&c, 50);
    small.run(50);
    EXPECT_EQ(small.counters().batchDrains, 0u);
    EXPECT_EQ(small.counters().batchedDispatched, 0u);
}

} // namespace fbdp
