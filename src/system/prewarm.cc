#include "system/prewarm.hh"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <exception>
#include <optional>
#include <thread>

#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "workload/generator.hh"

namespace fbdp {

namespace {

/** One op as the ring carries it: its line address with the kind in
 *  the (always zero) offset bits. */
using PackedOp = std::uint64_t;

static_assert(static_cast<unsigned>(TraceOp::Kind::Prefetch) < lineBytes,
              "an op kind must fit in a line's offset bits");

/** Batch-counter value meaning "the other side stopped". */
constexpr std::uint64_t stopped = ~std::uint64_t(0);

unsigned
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

using Generators = std::vector<std::unique_ptr<Generator>>;

// Both loops below walk the serial order (position k of core i is op
// k * n + i) with the next op's core in @p core, kept in a register:
// a store per op to a cursor near the other side's would bounce that
// host line between the two CPUs.

/** The helper's side: draw @p count ops into @p out. */
void
fillBatch(const Generators &gens, unsigned &core, PackedOp *out,
          std::size_t count)
{
    const auto cores = static_cast<unsigned>(gens.size());
    unsigned c = core;
    for (std::size_t j = 0; j < count; ++j) {
        const TraceOp op = gens[c]->nextWarm();
        out[j] = lineAlign(op.addr) | static_cast<PackedOp>(op.kind);
        c = c + 1 == cores ? 0 : c + 1;
    }
    core = c;
}

/**
 * The caller's side: apply @p count ops to the tag arrays in FIFO
 * order, reading them from @p in, or with @p Inline drawing each one
 * just before it is applied.  Drawing op by op (not a whole batch,
 * then its replay) lets the generator's serial chain overlap the tag
 * probes in the host core's out-of-order window, as in a plain serial
 * loop.
 */
template <bool Inline>
void
replayBatch(CacheHierarchy &hier, const Generators &gens,
            unsigned &core, const PackedOp *in, std::size_t count)
{
    const auto cores = static_cast<unsigned>(gens.size());
    unsigned c = core;
    for (std::size_t j = 0; j < count; ++j) {
        TraceOp op;
        if constexpr (Inline) {
            op = gens[c]->nextWarm();
        } else {
            op.addr = in[j] & ~Addr(lineBytes - 1);
            op.kind = static_cast<TraceOp::Kind>(in[j] & (lineBytes - 1));
        }
        if (op.kind == TraceOp::Kind::Prefetch)
            hier.functionalPrefetch(static_cast<int>(c), op.addr);
        else
            hier.functionalAccess(static_cast<int>(c), op.addr,
                                  op.kind == TraceOp::Kind::Store);
        c = c + 1 == cores ? 0 : c + 1;
    }
    core = c;
}

/**
 * One CPU each for the two sides, pinned: the caller's own CPU for the
 * replay (another one if a pre-warm already holds it) and a second one
 * from the caller's mask for the helper, both claimed in the budget so
 * that concurrent pre-warms pick distinct CPUs.  Left to the scheduler
 * the two sides ended up on one CPU: a futex wake tends to pull the
 * sleeping side onto the waker's CPU, and the sides then ran in turn,
 * a context switch per ring's worth of batches (measured on a 4-vCPU
 * KVM guest, 1C-swim: 39 ms per pre-warm unpinned, 35 ms inline, 20 ms
 * pinned apart).
 */
class CpuSplit
{
  public:
    /** Claim and pin the caller's CPU, and claim the helper's; if two
     *  CPUs cannot be had, claim and change nothing. */
    explicit CpuSplit(CpuBudget &b) : budget(b)
    {
        if (pthread_getaffinity_np(caller, sizeof(callerMask),
                                   &callerMask) != 0)
            return;
        const int here = sched_getcpu();
        callerCpu = here >= 0 && here < CPU_SETSIZE
                && CPU_ISSET(here, &callerMask) && budget.claimCpu(here)
            ? here
            : claimFree(-1);
        helperCpu = callerCpu < 0 ? -1 : claimFree(callerCpu);
        split = helperCpu >= 0 && pin(caller, callerCpu);
    }

    /** Give the caller its own mask back and both CPUs up. */
    ~CpuSplit()
    {
        if (split)
            pthread_setaffinity_np(caller, sizeof(callerMask),
                                   &callerMask);
        for (int cpu : {callerCpu, helperCpu}) {
            if (cpu >= 0)
                budget.releaseCpu(cpu);
        }
    }

    CpuSplit(const CpuSplit &) = delete;
    CpuSplit &operator=(const CpuSplit &) = delete;

    explicit operator bool() const { return split; }

    /** On the helper thread: move to the helper's CPU. */
    void pinHelper() const { pin(pthread_self(), helperCpu); }

  private:
    static bool
    pin(pthread_t thread, int cpu)
    {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return pthread_setaffinity_np(thread, sizeof(one), &one) == 0;
    }

    /** Claim the first unclaimed CPU of the caller's mask other than
     *  @p skip; -1 if there is none. */
    int
    claimFree(int skip)
    {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (cpu != skip && CPU_ISSET(cpu, &callerMask)
                && budget.claimCpu(cpu))
                return cpu;
        }
        return -1;
    }

    CpuBudget &budget;
    const pthread_t caller = pthread_self();
    cpu_set_t callerMask;
    int callerCpu = -1;
    int helperCpu = -1;
    bool split = false;
};

} // namespace

CpuBudget &
CpuBudget::process()
{
    static CpuBudget budget(affinityCpus());
    return budget;
}

bool
CpuBudget::claimCpu(int cpu)
{
    if (cpu < 0 || cpu >= static_cast<int>(64 * claimed.size()))
        return false;
    const std::uint64_t bit = std::uint64_t(1) << (cpu % 64);
    return !(claimed[cpu / 64].fetch_or(bit, std::memory_order_relaxed)
             & bit);
}

void
CpuBudget::releaseCpu(int cpu)
{
    const std::uint64_t bit = std::uint64_t(1) << (cpu % 64);
    claimed[cpu / 64].fetch_and(~bit, std::memory_order_relaxed);
}

bool
CpuBudget::tryTake()
{
    unsigned n = used.load(std::memory_order_relaxed);
    while (n < cpus) {
        if (used.compare_exchange_weak(n, n + 1,
                                       std::memory_order_relaxed))
            return true;
    }
    return false;
}

bool
functionalPrewarm(const Generators &gens, CacheHierarchy &hier,
                  std::uint64_t ops_per_core, CpuBudget &budget)
{
    const auto cores = static_cast<unsigned>(gens.size());
    const std::uint64_t total = ops_per_core * cores;
    if (total == 0)
        return false;
    const std::uint64_t batches =
        (total + prewarmBatchOps - 1) / prewarmBatchOps;
    const auto batchOps = [total](std::uint64_t b) {
        return static_cast<std::size_t>(std::min<std::uint64_t>(
            prewarmBatchOps, total - b * prewarmBatchOps));
    };
    std::unique_ptr<PackedOp[]> ring;
    const auto slot = [&ring](std::uint64_t b) {
        return ring.get() + (b % prewarmBatches) * prewarmBatchOps;
    };

    // Batches [0, produced) are in the ring and [0, consumed) are
    // replayed.  A side that is done stores `stopped` in its counter;
    // the helper leaves the number of batches it drew in helperDrew.
    std::atomic<std::uint64_t> produced{0};
    std::atomic<std::uint64_t> consumed{0};
    std::uint64_t helperDrew = 0;
    std::exception_ptr helperError;
    std::optional<CpuSplit> split;

    const auto produce = [&] {
        split->pinHelper();
        unsigned core = 0;
        std::uint64_t b = 0;
        try {
            for (; b < batches; ++b) {
                std::uint64_t c =
                    consumed.load(std::memory_order_acquire);
                while (c != stopped && b - c >= prewarmBatches) {
                    consumed.wait(c, std::memory_order_acquire);
                    c = consumed.load(std::memory_order_acquire);
                }
                // Stop if the caller has, or if another run started
                // since this helper was admitted: the caller then
                // draws the rest on its own CPU.
                if (c == stopped || budget.inUse() > budget.capacity())
                    break;
                fillBatch(gens, core, slot(b), batchOps(b));
                produced.store(b + 1, std::memory_order_release);
                produced.notify_one();
            }
        } catch (...) {
            helperError = std::current_exception();
        }
        helperDrew = b;
        produced.store(stopped, std::memory_order_release);
        produced.notify_one();
    };

    std::thread helper;
    if (budget.tryTake()) {
        split.emplace(budget);
        try {
            if (*split) {
                ring = std::make_unique_for_overwrite<PackedOp[]>(
                    prewarmBatches * prewarmBatchOps);
                helper = std::thread(produce);
            }
        } catch (...) {
        }
        if (!helper.joinable()) {
            // No helper to be had: draw inline, unpinned.
            split.reset();
            budget.give();
        }
    }
    const bool started = helper.joinable();

    // Stop the helper, join it, give its unit back and unpin the
    // caller: when it is done, and on every other way out.
    const auto joinHelper = [&] {
        if (!helper.joinable())
            return;
        consumed.store(stopped, std::memory_order_release);
        consumed.notify_one();
        helper.join();
        budget.give();
        split.reset();
    };
    struct Joiner
    {
        const decltype(joinHelper) &join;
        ~Joiner() { join(); }
    } joiner{joinHelper};

    // The consumer: replay batches [0, ready) from the ring, and draw
    // every later one inline once the helper has stopped.
    std::uint64_t ready = 0;
    unsigned core = 0;
    for (std::uint64_t b = 0; b < batches; ++b) {
        if (b == ready && helper.joinable()) {
            std::uint64_t p;
            while ((p = produced.load(std::memory_order_acquire)) <= b)
                produced.wait(p, std::memory_order_acquire);
            if (p == stopped) {
                joinHelper();
                if (helperError)
                    std::rethrow_exception(helperError);
                p = helperDrew;
            }
            ready = p;
        }
        if (b >= ready) {
            replayBatch<true>(hier, gens, core, nullptr, batchOps(b));
            continue;
        }
        replayBatch<false>(hier, gens, core, slot(b), batchOps(b));
        if (helper.joinable()) {
            consumed.store(b + 1, std::memory_order_release);
            consumed.notify_one();
        }
    }
    return started;
}

} // namespace fbdp
