/**
 * @file
 * The functional cache pre-warm of System::run(), pipelined.
 *
 * The pre-warm replays a prefix of every core's op stream through the
 * L1/L2 tag arrays (standing in for the warm state of the paper's
 * SimPoint checkpoints).  It is two independent serial chains: the
 * generators' op draws and the tag replay.  functionalPrewarm() runs
 * them as a producer and a consumer joined by a fixed ring of packed
 * op batches, so the two chains overlap when a second host CPU is
 * free:
 *
 *   - the producer draws every core's nextWarm() in the serial order
 *     (round-robin over cores, @c opsPerCore rounds) and packs each op
 *     into 8 bytes, <tt>lineAlign(addr) | kind</tt>;
 *   - the consumer, always the calling thread, applies the batches in
 *     FIFO order through functionalAccess / functionalPrefetch.
 *
 * The producer runs on a helper thread only when the process-wide
 * CpuBudget has a unit free, and stops early (the caller drawing the
 * rest) once another run over-commits the budget.  Without a helper
 * the same consumer loop draws each op just before applying it.
 * Either way the tag arrays, their counters and every generator end
 * in exactly the state of the serial loop.  The hand-off is two
 * atomic batch counters with C++20 wait/notify: no mutex, no spin, no
 * per-op synchronisation.
 */

#ifndef FBDP_SYSTEM_PREWARM_HH
#define FBDP_SYSTEM_PREWARM_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace fbdp {

class CacheHierarchy;
class Generator;

/**
 * Host CPUs a process may keep busy with simulation threads.  Every
 * System::run() holds one unit for its whole duration, whether or not
 * one is free (a run always proceeds); a pre-warm helper takes a
 * second unit only when one is free.  So FBDP_JOBS workers that
 * already fill the machine start no helpers, and a serial run on a
 * multi-CPU host gets one.  The budget also records which CPUs the
 * pinned pre-warm threads hold, so concurrent pre-warms pick distinct
 * ones.
 */
class CpuBudget
{
  public:
    explicit CpuBudget(unsigned cpus) : cpus(cpus) {}

    CpuBudget(const CpuBudget &) = delete;
    CpuBudget &operator=(const CpuBudget &) = delete;

    /** The process's budget: the CPUs in its affinity mask
     *  (sched_getaffinity), else std::thread::hardware_concurrency,
     *  and at least one. */
    static CpuBudget &process();

    /** Take a unit even when none is free. */
    void take() { used.fetch_add(1, std::memory_order_relaxed); }

    /** Take a unit only when one is free.  @return true if taken. */
    bool tryTake();

    /** Return a unit taken by take() or a successful tryTake(). */
    void give() { used.fetch_sub(1, std::memory_order_relaxed); }

    /** take() for the lifetime of the object, then give(). */
    class Hold
    {
      public:
        explicit Hold(CpuBudget &b) : budget(b) { budget.take(); }
        ~Hold() { budget.give(); }

        Hold(const Hold &) = delete;
        Hold &operator=(const Hold &) = delete;

      private:
        CpuBudget &budget;
    };

    /** Claim host CPU @p cpu for a pinned pre-warm thread.
     *  @return false if another pre-warm holds it. */
    bool claimCpu(int cpu);

    /** Give up a CPU claimed by claimCpu(). */
    void releaseCpu(int cpu);

    unsigned capacity() const { return cpus; }
    unsigned inUse() const
    {
        return used.load(std::memory_order_relaxed);
    }

  private:
    const unsigned cpus;
    std::atomic<unsigned> used{0};
    /** Claimed CPUs, one bit each (CPU_SETSIZE of them). */
    std::array<std::atomic<std::uint64_t>, 1024 / 64> claimed{};
};

/** Ring geometry: batches in flight and packed ops per batch. */
constexpr unsigned prewarmBatches = 4;
constexpr unsigned prewarmBatchOps = 4096;

/**
 * Replay @p ops_per_core ops of every generator in @p gens through
 * @p hier's tag arrays (k outer, cores inner; core i is gens[i]).  A
 * helper thread produces the ops when @p budget has a unit free; it is
 * joined, and its unit given back, before this returns or throws.  An
 * exception on either side stops both and is rethrown here.
 *
 * @return true when a helper thread produced the ops.
 */
bool functionalPrewarm(const std::vector<std::unique_ptr<Generator>> &gens,
                       CacheHierarchy &hier, std::uint64_t ops_per_core,
                       CpuBudget &budget = CpuBudget::process());

} // namespace fbdp

#endif // FBDP_SYSTEM_PREWARM_HH
