/**
 * @file
 * The pipelined functional pre-warm against a serial reference replay
 * written here: whole L1/L2 tag-array states, hit/miss counters and
 * every generator's next op must match, with the helper thread and
 * inline, for several core counts, partial batches, no ops, and a
 * streamed .fbt core next to a synthetic one.  Also: a throwing
 * generator is rethrown on the caller, a fatal() on the helper still
 * exits 1, and the CPU budget admits a helper only when a unit is free
 * and takes it back when another run starts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/logging.hh"
#include "sim/event_queue.hh"
#include "system/prewarm.hh"
#include "workload/generator.hh"
#include "workload/mixes.hh"
#include "workload/profile.hh"
#include "workload/trace_stream.hh"

namespace fbdp {
namespace {

using Gens = std::vector<std::unique_ptr<Generator>>;

/** The pre-warm generates no memory traffic. */
class NoMemory : public MemoryIface
{
  public:
    void
    read(Addr, int, bool, TickCallback) override
    {
        ADD_FAILURE() << "functional access reached memory";
    }
    void write(Addr, int) override
    {
        ADD_FAILURE() << "functional access reached memory";
    }
};

/** A small L2 so a few thousand ops already evict and write back. */
HierConfig
smallHier()
{
    HierConfig h;
    h.l1Bytes = 8 * 1024;
    h.l2Bytes = 64 * 1024;
    return h;
}

/** One machine's cache side: hierarchy plus its generators. */
struct Side
{
    explicit Side(unsigned cores)
        : hier(&eq, cores, smallHier(), &mem)
    {
    }

    EventQueue eq;
    NoMemory mem;
    CacheHierarchy hier;
    Gens gens;
};

/** Every core's synthetic generator, as System builds them. */
Gens
synthetic(unsigned cores)
{
    const std::vector<std::string> &benches =
        mixByName("4C-1").benches;
    Gens g;
    for (unsigned i = 0; i < cores; ++i)
        g.push_back(std::make_unique<SyntheticGenerator>(
            benchProfile(benches[i]), Addr(i) << 32, 7000 + i, true));
    return g;
}

/** The serial loop the pipeline replaces. */
void
serialWarm(Side &s, std::uint64_t ops_per_core)
{
    for (std::uint64_t k = 0; k < ops_per_core; ++k) {
        for (unsigned i = 0; i < s.gens.size(); ++i) {
            const TraceOp op = s.gens[i]->nextWarm();
            if (op.kind == TraceOp::Kind::Prefetch)
                s.hier.functionalPrefetch(static_cast<int>(i), op.addr);
            else
                s.hier.functionalAccess(static_cast<int>(i), op.addr,
                                        op.kind == TraceOp::Kind::Store);
        }
    }
}

void
expectSameState(Side &ref, Side &got)
{
    const auto cores = static_cast<int>(ref.gens.size());
    for (int i = 0; i < cores; ++i) {
        EXPECT_TRUE(ref.hier.l1Array(i) == got.hier.l1Array(i))
            << "L1 of core " << i;
        EXPECT_EQ(ref.hier.l1Hits(i), got.hier.l1Hits(i));
        EXPECT_EQ(ref.hier.l1Misses(i), got.hier.l1Misses(i));
    }
    EXPECT_TRUE(ref.hier.l2Array() == got.hier.l2Array());
    EXPECT_EQ(ref.hier.l2Hits(), got.hier.l2Hits());
    EXPECT_EQ(ref.hier.l2Misses(), got.hier.l2Misses());
    // The generators resume where the serial loop left them.
    for (std::size_t i = 0; i < ref.gens.size(); ++i) {
        for (int j = 0; j < 3; ++j) {
            const TraceOp a = ref.gens[i]->next();
            const TraceOp b = got.gens[i]->next();
            EXPECT_EQ(a.gap, b.gap) << "core " << i << " op " << j;
            EXPECT_EQ(a.kind, b.kind) << "core " << i << " op " << j;
            EXPECT_EQ(a.addr, b.addr) << "core " << i << " op " << j;
        }
    }
}

/** A helper needs a second CPU to be pinned to. */
bool
hostHasTwoCpus()
{
    return CpuBudget::process().capacity() >= 2;
}

/** Pipelined vs serial, on a helper when @p helper, else inline. */
void
checkAgainstSerial(const std::function<Gens()> &make, unsigned cores,
                   std::uint64_t ops_per_core, bool helper)
{
    Side ref(cores), got(cores);
    ref.gens = make();
    got.gens = make();
    serialWarm(ref, ops_per_core);

    CpuBudget budget(2);
    // An exhausted budget forces the inline draw.
    CpuBudget::Hold run(budget);
    std::unique_ptr<CpuBudget::Hold> other;
    if (!helper)
        other = std::make_unique<CpuBudget::Hold>(budget);
    const bool used =
        functionalPrewarm(got.gens, got.hier, ops_per_core, budget);
    EXPECT_EQ(used, helper && ops_per_core > 0 && hostHasTwoCpus());
    EXPECT_EQ(budget.inUse(), helper ? 1u : 2u);
    expectSameState(ref, got);
}

class PrewarmModes : public ::testing::TestWithParam<bool>
{
};

INSTANTIATE_TEST_SUITE_P(HelperAndInline, PrewarmModes,
                         ::testing::Values(true, false),
                         [](const auto &info) {
                             return info.param ? "helper" : "inline";
                         });

TEST_P(PrewarmModes, OneCoreMatchesSerial)
{
    // Not a multiple of the batch: five full batches and a partial.
    checkAgainstSerial([] { return synthetic(1); }, 1,
                       5 * prewarmBatchOps + 1234, GetParam());
}

TEST_P(PrewarmModes, TwoCoresMatchSerial)
{
    checkAgainstSerial([] { return synthetic(2); }, 2, 9001,
                       GetParam());
}

TEST_P(PrewarmModes, FourCoresMatchSerial)
{
    // 4 * 4096 ops per core: exactly 16 batches.
    checkAgainstSerial([] { return synthetic(4); }, 4, prewarmBatchOps,
                       GetParam());
}

TEST_P(PrewarmModes, FewerOpsThanOneBatch)
{
    checkAgainstSerial([] { return synthetic(3); }, 3, 101, GetParam());
}

TEST_P(PrewarmModes, ZeroOpsTouchesNothing)
{
    checkAgainstSerial([] { return synthetic(2); }, 2, 0, GetParam());
}

/** A streamed .fbt trace written for one test and removed after. */
class TraceFile
{
  public:
    explicit TraceFile(std::uint64_t ops)
        : path(::testing::TempDir() + "fbdp_prewarm_test.fbt")
    {
        SyntheticGenerator gen(benchProfile("mcf"), 0, 11, true);
        TraceWriter w(path, TraceFormat::Fbt, false, "mcf");
        for (std::uint64_t i = 0; i < ops; ++i)
            w.append(gen.next());
        w.close();
    }
    ~TraceFile() { std::remove(path.c_str()); }

    /** A generator on a private stream with small chunks (many chunk
     *  edges, decoded on the background worker). */
    std::unique_ptr<Generator>
    stream(Addr base) const
    {
        TraceSpec spec;
        spec.path = path;
        spec.chunkBytes = 4096;
        return std::make_unique<StreamingTraceGenerator>(spec, base);
    }

    const std::string path;
};

TEST_P(PrewarmModes, StreamedTraceCoreNextToSyntheticCore)
{
    // 3000 recorded ops against 7000 replayed: the stream wraps twice.
    const TraceFile trace(3000);
    const auto make = [&trace] {
        Gens g;
        g.push_back(trace.stream(0));
        g.push_back(std::make_unique<SyntheticGenerator>(
            benchProfile("swim"), Addr(1) << 32, 5, true));
        return g;
    };
    checkAgainstSerial(make, 2, 7000, GetParam());
}

/** Synthetic ops, then a throw (or a fatal()) at op @p limit. */
class FailingGenerator : public Generator
{
  public:
    FailingGenerator(std::uint64_t limit, bool fatal_error)
        : inner(benchProfile("swim"), 0, 3, true), limit(limit),
          fatalError(fatal_error)
    {
    }

    TraceOp
    next() override
    {
        if (++n > limit) {
            if (fatalError)
                fatal("bad op %llu in test trace",
                      static_cast<unsigned long long>(n));
            throw std::runtime_error("generator gave up");
        }
        return inner.next();
    }

    const BenchProfile &profile() const override
    {
        return inner.profile();
    }

  private:
    SyntheticGenerator inner;
    std::uint64_t limit;
    bool fatalError;
    std::uint64_t n = 0;
};

TEST_P(PrewarmModes, GeneratorExceptionIsRethrownOnCaller)
{
    // The throw lands several batches in, while the helper runs ahead
    // of the replay; both sides must stop and the helper be joined.
    for (std::uint64_t limit : {std::uint64_t(0), std::uint64_t(10),
                                std::uint64_t(3 * prewarmBatchOps + 17)}) {
        Side s(2);
        s.gens = synthetic(1);
        s.gens.push_back(std::make_unique<FailingGenerator>(limit, false));
        CpuBudget budget(GetParam() ? 2 : 1);
        CpuBudget::Hold run(budget);
        EXPECT_THROW(functionalPrewarm(s.gens, s.hier, 100000, budget),
                     std::runtime_error)
            << "limit " << limit;
        EXPECT_EQ(budget.inUse(), 1u) << "helper unit not given back";
    }
}

TEST(PrewarmDeathTest, FatalOnTheHelperStillExitsOne)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            Side s(1);
            s.gens.push_back(std::make_unique<FailingGenerator>(
                2 * prewarmBatchOps + 5, true));
            CpuBudget budget(4);
            CpuBudget::Hold run(budget);
            functionalPrewarm(s.gens, s.hier, 100000, budget);
        },
        ::testing::ExitedWithCode(1), "bad op 8198 in test trace");
}

/**
 * Synthetic swim ops (seed 3), noting the thread that drew each
 * one and the budget at the first; at op @p start_run_at it takes a
 * unit, as a run starting on another thread would.
 */
class ProbeGenerator : public Generator
{
  public:
    explicit ProbeGenerator(CpuBudget &b,
                            std::uint64_t start_run_at = ~0ull)
        : budget(b), startRunAt(start_run_at),
          inner(benchProfile("swim"), 0, 3, true)
    {
    }

    TraceOp
    next() override
    {
        if (threads.empty())
            inUseAtFirst = budget.inUse();
        if (threads.size() == startRunAt)
            budget.take();
        threads.push_back(std::this_thread::get_id());
        return inner.next();
    }

    const BenchProfile &profile() const override
    {
        return inner.profile();
    }

    CpuBudget &budget;
    const std::uint64_t startRunAt;
    SyntheticGenerator inner;
    std::vector<std::thread::id> threads;
    unsigned inUseAtFirst = 0;
};

/** Threads of this process, where /proc lists them (else 0). */
std::size_t
liveThreads()
{
    std::error_code ec;
    std::size_t n = 0;
    for (std::filesystem::directory_iterator it("/proc/self/task", ec),
         end;
         !ec && it != end; it.increment(ec))
        ++n;
    return n;
}

TEST(CpuBudgetTest, TryTakeStopsAtCapacityAndTakeDoesNot)
{
    CpuBudget b(2);
    EXPECT_EQ(b.capacity(), 2u);
    EXPECT_TRUE(b.tryTake());
    EXPECT_TRUE(b.tryTake());
    EXPECT_FALSE(b.tryTake());
    EXPECT_EQ(b.inUse(), 2u);
    b.give();
    EXPECT_TRUE(b.tryTake());
    {
        // A run always proceeds, even over capacity.
        CpuBudget::Hold run(b);
        EXPECT_EQ(b.inUse(), 3u);
        EXPECT_FALSE(b.tryTake());
    }
    b.give();
    b.give();
    EXPECT_EQ(b.inUse(), 0u);
}

TEST(CpuBudgetTest, ProcessBudgetCountsAtLeastOneCpu)
{
    EXPECT_GE(CpuBudget::process().capacity(), 1u);
}

TEST(CpuBudgetTest, CpuClaimsAreExclusive)
{
    CpuBudget b(4);
    EXPECT_TRUE(b.claimCpu(3));
    EXPECT_FALSE(b.claimCpu(3));
    EXPECT_TRUE(b.claimCpu(64 + 3));
    b.releaseCpu(3);
    EXPECT_TRUE(b.claimCpu(3));
    EXPECT_FALSE(b.claimCpu(1024)) << "beyond CPU_SETSIZE";
    EXPECT_FALSE(b.claimCpu(-1));
}

TEST(CpuBudgetTest, HelperOnlyWhenAUnitIsFree)
{
    if (!hostHasTwoCpus())
        GTEST_SKIP() << "one CPU in this process's affinity mask";
    const std::thread::id caller = std::this_thread::get_id();
    // A first thread lets a sanitizer runtime start its own.
    std::thread([] {}).join();
    const std::size_t threadsBefore = liveThreads();
    for (unsigned capacity : {1u, 2u}) {
        CpuBudget budget(capacity);
        CpuBudget::Hold run(budget);
        Side s(1);
        auto probe = std::make_unique<ProbeGenerator>(budget);
        ProbeGenerator &p = *probe;
        s.gens.push_back(std::move(probe));
        const bool helper =
            functionalPrewarm(s.gens, s.hier, 3 * prewarmBatchOps,
                              budget);
        if (capacity == 1) {
            // Exhausted: the caller draws every op itself.
            EXPECT_FALSE(helper);
            EXPECT_EQ(p.threads.front(), caller);
            EXPECT_EQ(p.inUseAtFirst, 1u);
        } else {
            EXPECT_TRUE(helper);
            EXPECT_NE(p.threads.front(), caller);
            EXPECT_EQ(p.inUseAtFirst, 2u);
        }
        // The helper is joined and its unit back once it returns.
        EXPECT_EQ(budget.inUse(), 1u);
        EXPECT_EQ(liveThreads(), threadsBefore);
    }
}

TEST(CpuBudgetTest, HelperHandsBackWhenAnotherRunStarts)
{
    if (!hostHasTwoCpus())
        GTEST_SKIP() << "one CPU in this process's affinity mask";
    const std::thread::id caller = std::this_thread::get_id();
    Side ref(1), got(1);
    ref.gens.push_back(std::make_unique<SyntheticGenerator>(
        benchProfile("swim"), 0, 3, true));
    CpuBudget budget(2);
    CpuBudget::Hold run(budget);
    // A run starts while the helper draws batch 1: it stops before
    // batch 2, and the caller draws the rest inline.
    auto probe = std::make_unique<ProbeGenerator>(
        budget, prewarmBatchOps + 7);
    ProbeGenerator &p = *probe;
    got.gens.push_back(std::move(probe));
    const std::uint64_t ops = 5 * prewarmBatchOps + 99;
    serialWarm(ref, ops);
    EXPECT_TRUE(functionalPrewarm(got.gens, got.hier, ops, budget));
    ASSERT_EQ(p.threads.size(), ops);
    EXPECT_NE(p.threads[2 * prewarmBatchOps - 1], caller);
    EXPECT_EQ(p.threads[2 * prewarmBatchOps], caller);
    EXPECT_EQ(p.threads.back(), caller);
    EXPECT_EQ(budget.inUse(), 2u) << "the helper's unit is back";
    budget.give();
    expectSameState(ref, got);
}

} // namespace
} // namespace fbdp
