/**
 * @file
 * fbdp_bench — the repository's benchmark: whole-cell host time of
 * the simulator on three workloads, checked against stored results.
 *
 *   fbdp_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
 *   fbdp_bench --workload W --write-expected A-B
 *
 * Run it from the root of a checkout (perfbench/run.py does): the
 * stored results are read from perfbench/expected, and the recorded
 * traces and span files go to .bench_build/perfbench/work.
 *
 * One process runs one workload: set-up (repeated, median reported),
 * then whole repetitions of the workload until --seconds have passed.
 * Every cell of every repetition is checked against the stored
 * expected result.  The last stdout line is one JSON object with the
 * end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1);
 * the lines above it print the same metrics, and a few more, by name
 * with their unit.  README.md documents the workloads and metrics.
 *
 * The traced run alternates untraced and traced repetitions.  Traced
 * ones switch on SystemConfig::profileKernel and ::attribution (both
 * bit-invisible) and keep spans in memory; the spans are written as
 * Chrome trace_event JSON to the work directory at exit.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "expected.hh"
#include "power/power_model.hh"
#include "system/metrics.hh"
#include "system/results.hh"
#include "system/statsjson.hh"
#include "system/sweep.hh"
#include "system/system.hh"
#include "workload/trace_stream.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using fbdp::RunResult;

/** Process epoch: span timestamps are seconds since this. */
const Clock::time_point epoch = Clock::now();

double
now()
{
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

// ------------------------------------------------------------------ //
// Command line                                                        //
// ------------------------------------------------------------------ //

const std::string expectedDir = "perfbench/expected";
const std::string workDir = ".bench_build/perfbench/work";

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool regenerate = false;  ///< store results of seedLo..seedHi
    std::uint64_t seedLo = 0, seedHi = 0;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "fbdp_bench: " << why << "\n"
              << "usage: fbdp_bench --workload W [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "       fbdp_bench --workload W --write-expected A-B\n"
                 "workloads: sweep-short cell-long trace-irregular\n";
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-')
        usage(flag + " needs a non-negative integer, got '" + text
              + "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(a + " needs a value");
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = parseCount(a, v);
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(parseCount(a, v));
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--write-expected") {
            const auto dash = v.find('-');
            if (dash == std::string::npos)
                usage("--write-expected takes a seed range A-B");
            o.regenerate = true;
            o.seedLo = parseCount(a, v.substr(0, dash));
            o.seedHi = parseCount(a, v.substr(dash + 1));
        } else {
            usage("unknown option " + a);
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        usage("unknown workload '" + o.workload + "'");
    return o;
}

// ------------------------------------------------------------------ //
// Running cells                                                       //
// ------------------------------------------------------------------ //

/** One executed cell with its host-time stamps (seconds since the
 *  process epoch). */
struct CellRun
{
    bool ok = false;
    std::string error;
    std::string text;       ///< cellText(): the checked result
    std::string statsJson;  ///< writeRunStatsJson output, until checked
    RunResult result;
    std::thread::id thread;
    double begin = 0.0;         ///< cell start
    double constructEnd = 0.0;  ///< System built
    double runEnd = 0.0;        ///< System::run() returned
    double end = 0.0;           ///< outputs written

    double wall() const { return end - begin; }
    double construct() const { return constructEnd - begin; }
    double run() const { return runEnd - constructEnd; }
    double output() const { return end - runEnd; }
    /** run() wall minus the event-driven phases: the functional
     *  pre-warm plus result collection. */
    double prewarm() const
    {
        return run() - result.kernel.hostEventSeconds;
    }
};

/** One whole repetition of a workload. */
struct Rep
{
    bool traced = false;
    double begin = 0.0;
    double wall = 0.0;
    std::vector<CellRun> cells;
};

CellRun
runCell(const Cell &cell)
{
    CellRun c;
    c.thread = std::this_thread::get_id();
    c.begin = now();
    try {
        fbdp::System sys(cell.cfg);
        c.constructEnd = now();
        fbdp::SweepRow row{cell.config, cell.mix, cell.cfg.seed,
                           sys.run()};
        c.runEnd = now();
        c.text = cellText(row);
        std::ostringstream js;
        fbdp::writeRunStatsJson(sys, row, js);
        c.statsJson = js.str();
        c.result = std::move(row.result);
        c.ok = true;
    } catch (const std::exception &e) {
        c.error = e.what();
    }
    c.end = now();
    return c;
}

/** Run every cell once on @p workers (a pool like fbdp::runCells;
 *  1 runs on the calling thread). */
Rep
runRep(std::vector<Cell> cells, unsigned workers, bool traced)
{
    for (Cell &c : cells) {
        c.cfg.profileKernel = traced;
        c.cfg.attribution = traced;
    }
    Rep r;
    r.traced = traced;
    r.begin = now();
    if (workers <= 1) {
        for (const Cell &c : cells)
            r.cells.push_back(runCell(c));
    } else {
        fbdp::ThreadPool pool(workers);
        std::vector<std::future<CellRun>> pending;
        for (const Cell &c : cells)
            pending.push_back(pool.submit([&c] { return runCell(c); }));
        for (auto &f : pending)
            r.cells.push_back(f.get());
    }
    r.wall = now() - r.begin;
    return r;
}

// ------------------------------------------------------------------ //
// Checking outputs                                                    //
// ------------------------------------------------------------------ //

/** Deterministic kernel counters of a run: must repeat exactly across
 *  repetitions and between traced and untraced runs.  (The
 *  transaction-pool counters are per thread, not per run, so they are
 *  left out.) */
std::string
kernelCounts(const RunResult &r)
{
    const fbdp::KernelProfile &k = r.kernel;
    return fbdp::csprintf(
        "insts=%llu events=%llu schedules=%llu reschedules=%llu "
        "deschedules=%llu peak_depth=%llu batch_drains=%llu "
        "batched=%llu",
        static_cast<unsigned long long>(r.runInsts),
        static_cast<unsigned long long>(k.eventsDispatched),
        static_cast<unsigned long long>(k.schedules),
        static_cast<unsigned long long>(k.reschedules),
        static_cast<unsigned long long>(k.deschedules),
        static_cast<unsigned long long>(k.peakQueueDepth),
        static_cast<unsigned long long>(k.batchDrains),
        static_cast<unsigned long long>(k.batchedEvents));
}

/** Cell-by-cell check of every repetition. */
class Checker
{
  public:
    Checker(const Expected &e, std::size_t cells)
        : exp(e), refText(cells), refCounts(cells)
    {}

    void
    check(Rep &rep, const std::vector<Cell> &cells)
    {
        for (std::size_t i = 0; i < rep.cells.size(); ++i) {
            CellRun &c = rep.cells[i];
            ++attempted;
            std::string why = verdict(i, c);
            c.statsJson = std::string();
            if (why.empty())
                continue;
            ++failed;
            if (failed <= 5)
                std::cerr << "FAIL " << cells[i].config << "/"
                          << cells[i].mix
                          << (rep.traced ? " (traced): " : ": ") << why
                          << "\n";
        }
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    std::string
    verdict(std::size_t i, const CellRun &c)
    {
        if (!c.ok)
            return "aborted: " + c.error;
        if (exp.known()) {
            std::string why = exp.mismatch(i, c.text);
            if (!why.empty())
                return "result differs from the stored one: " + why;
        } else if (refText[i].empty()) {
            refText[i] = c.text;
        } else if (c.text != refText[i]) {
            return "result differs between repetitions";
        }
        const std::string counts = kernelCounts(c.result);
        if (refCounts[i].empty())
            refCounts[i] = counts;
        else if (counts != refCounts[i])
            return "kernel counts differ between repetitions: "
                + counts + " vs " + refCounts[i];
        const auto parsed = fbdp::json::parse(c.statsJson);
        if (!parsed.ok())
            return "stats JSON does not parse: " + parsed.error;
        return "";
    }

    const Expected &exp;
    std::vector<std::string> refText;
    std::vector<std::string> refCounts;
};

// ------------------------------------------------------------------ //
// Statistics                                                          //
// ------------------------------------------------------------------ //

/** Linear-interpolated quantile @p q of @p v (0 when empty). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::string note;  ///< printed in the report only
};

// ------------------------------------------------------------------ //
// Spans                                                               //
// ------------------------------------------------------------------ //

struct Span
{
    std::string name;
    std::thread::id thread;
    double begin = 0.0;
    double end = 0.0;
    long rep = -1;       ///< repetition index, -1 outside reps
    std::string cell;    ///< "config/mix", empty outside cells
};

class SpanLog
{
  public:
    void
    add(std::string name, double begin, double end, long rep = -1,
        std::string cell = {},
        std::thread::id t = std::this_thread::get_id())
    {
        spans.push_back({std::move(name), t, begin, end, rep,
                         std::move(cell)});
    }

    /** Spans of one traced repetition: the repetition, then per cell
     *  the cell with its construct / run / output children. */
    void
    addRep(const Rep &r, long index, const std::vector<Cell> &cells)
    {
        add("rep", r.begin, r.begin + r.wall, index);
        for (std::size_t i = 0; i < r.cells.size(); ++i) {
            const CellRun &c = r.cells[i];
            const std::string id = cells[i].config + "/" + cells[i].mix;
            add("cell", c.begin, c.end, index, id, c.thread);
            add("construct", c.begin, c.constructEnd, index, id,
                c.thread);
            add("run", c.constructEnd, c.runEnd, index, id, c.thread);
            add("output", c.runEnd, c.end, index, id, c.thread);
        }
    }

    /** Chrome trace_event JSON (Perfetto / about:tracing). */
    void
    write(const std::string &path) const
    {
        std::map<std::thread::id, unsigned> tids;
        tids[std::this_thread::get_id()] = 0;
        std::ofstream out(path);
        out << "{\"traceEvents\":[\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            const unsigned tid =
                tids.emplace(s.thread, tids.size()).first->second;
            out << fbdp::csprintf(
                "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                "\"args\":{\"rep\":%ld,\"cell\":\"%s\"}}%s\n",
                fbdp::jsonEscape(s.name).c_str(), s.begin * 1e6,
                (s.end - s.begin) * 1e6, tid, s.rep,
                fbdp::jsonEscape(s.cell).c_str(),
                i + 1 < spans.size() ? "," : "");
        }
        out << "]}\n";
        if (!out)
            fatal("cannot write %s", path.c_str());
    }

  private:
    std::vector<Span> spans;
};

// ------------------------------------------------------------------ //
// Side measurements of the traced run                                 //
// ------------------------------------------------------------------ //

struct SideTimes
{
    double nextNs = 0.0;      ///< per Generator::next()
    double accessNs = 0.0;    ///< per functionalAccess/Prefetch
    double decodeMops = 0.0;  ///< trace decode rate, 0 without traces
};

/**
 * Time the functional pre-warm loop of System::run() in two halves on
 * a fresh System per distinct mix of the first configuration: every
 * core's Generator::next() ops first, then the same ops, in the same
 * order, through CacheHierarchy::functionalAccess.
 */
SideTimes
measureSide(const Workload &w, const std::vector<Cell> &cells,
            SpanLog &spans)
{
    SideTimes st;
    double nextS = 0, accessS = 0, ops = 0;
    for (const Cell &cell : cells) {
        if (cell.config != w.configs.front().first)
            continue;
        const double t0 = now();
        fbdp::System sys(cell.cfg);
        const unsigned n = cell.cfg.nCores();
        // The op count System::run() replays when none is configured.
        const std::uint64_t per_core = cell.cfg.functionalWarmupOps
            ? cell.cfg.functionalWarmupOps
            : 20 * (cell.cfg.hier.l2Bytes / fbdp::lineBytes) / n;
        std::vector<fbdp::TraceOp> trace;
        trace.reserve(per_core * n);
        const double t1 = now();
        for (std::uint64_t k = 0; k < per_core; ++k)
            for (unsigned i = 0; i < n; ++i)
                trace.push_back(sys.generator(i).next());
        const double t2 = now();
        fbdp::CacheHierarchy &hier = sys.hierarchy();
        for (std::size_t j = 0; j < trace.size(); ++j) {
            const fbdp::TraceOp &op = trace[j];
            const int core = static_cast<int>(j % n);
            if (op.kind == fbdp::TraceOp::Kind::Prefetch)
                hier.functionalPrefetch(core, op.addr);
            else
                hier.functionalAccess(
                    core, op.addr, op.kind == fbdp::TraceOp::Kind::Store);
        }
        const double t3 = now();
        const std::string id = cell.config + "/" + cell.mix;
        spans.add("side.construct", t0, t1, -1, id);
        spans.add("side.generator_next", t1, t2, -1, id);
        spans.add("side.functional_access", t2, t3, -1, id);
        nextS += t2 - t1;
        accessS += t3 - t2;
        ops += static_cast<double>(trace.size());
    }
    st.nextNs = ratio(nextS, ops) * 1e9;
    st.accessNs = ratio(accessS, ops) * 1e9;

    double decodeS = 0, decoded = 0;
    for (const std::string &path : w.traces) {
        fbdp::TraceSpec spec;
        spec.path = path;
        const double t0 = now();
        fbdp::TracePassReader reader(spec, /*background=*/true);
        fbdp::TraceOp op;
        while (reader.next(&op))
            decoded += 1.0;
        const double t1 = now();
        spans.add("side.trace_decode", t0, t1, -1, path);
        decodeS += t1 - t0;
    }
    st.decodeMops = ratio(decoded, decodeS) / 1e6;
    return st;
}

// ------------------------------------------------------------------ //
// Per-layer metrics of one traced repetition                          //
// ------------------------------------------------------------------ //

/** Per-layer metrics of traced repetition @p rep, with the side
 *  measurements @p side. */
std::vector<Metric>
layerMetrics(const Rep &rep, unsigned workers, const SideTimes &side,
             bool has_traces)
{
    double construct = 0, prewarm = 0, event = 0, output = 0, wall = 0;
    double kinsts = 0, runInsts = 0, events = 0, schedules = 0;
    double coreBusy = 0, chanBusy = 0, drain = 0, ipc = 0;
    double robStall = 0, mshrStall = 0, coreTicks = 0;
    double reads = 0, writes = 0, latSum = 0, bw = 0;
    double dmdSamples = 0, dmdP50 = 0, dmdP95 = 0;
    double actPre = 0, cas = 0, refresh = 0, energy = 0;
    double l2Hits = 0, l2Misses = 0, swPf = 0;
    double pfIssued = 0, pfHits = 0, pfLate = 0, pfUnused = 0;
    std::uint64_t peakDepth = 0, batchDrains = 0;
    fbdp::ClassPhaseBreakdown demand, prefHit;
    const fbdp::PowerModel power;
    const double n = static_cast<double>(rep.cells.size());

    for (const CellRun &c : rep.cells) {
        const RunResult &r = c.result;
        const fbdp::KernelProfile &k = r.kernel;
        construct += c.construct();
        prewarm += c.prewarm();
        event += k.hostEventSeconds;
        output += c.output();
        wall += c.wall();

        kinsts += r.totalInsts() / 1000.0;
        runInsts += static_cast<double>(r.runInsts);
        events += static_cast<double>(k.eventsDispatched);
        schedules += static_cast<double>(k.schedules);
        peakDepth = std::max(peakDepth, k.peakQueueDepth);
        batchDrains += k.batchDrains;
        for (std::size_t s = 0; s < k.shards.size(); ++s) {
            (s == 0 ? coreBusy : chanBusy) += k.shards[s].busySeconds;
            drain += k.shards[s].drainSeconds;
        }

        ipc += r.ipcSum();
        for (const auto &cc : r.attribution.cores) {
            robStall += static_cast<double>(cc.stall[0]);
            mshrStall += static_cast<double>(cc.stall[3]);
            coreTicks += static_cast<double>(cc.windowTicks);
        }

        reads += static_cast<double>(r.reads);
        writes += static_cast<double>(r.writes);
        latSum += r.avgReadLatencyNs * static_cast<double>(r.reads);
        bw += r.bandwidthGBs;
        const double ds = static_cast<double>(r.latDemand.samples);
        dmdSamples += ds;
        dmdP50 += r.latDemand.p50Ns * ds;
        dmdP95 += r.latDemand.p95Ns * ds;
        demand.merge(r.attribution.total.cls[static_cast<unsigned>(
            fbdp::LatClass::DemandRead)]);
        prefHit.merge(r.attribution.total.cls[static_cast<unsigned>(
            fbdp::LatClass::PrefHit)]);

        actPre += static_cast<double>(r.ops.actPre);
        cas += static_cast<double>(r.ops.cas());
        refresh += static_cast<double>(r.ops.refresh);
        energy += power.dynamicEnergy(r.ops);

        l2Hits += static_cast<double>(r.l2Hits);
        l2Misses += static_cast<double>(r.l2Misses);
        swPf += static_cast<double>(r.swPrefetchesSent);

        pfIssued += static_cast<double>(r.prefetch.issued);
        pfHits += static_cast<double>(r.prefetch.hits);
        pfLate += static_cast<double>(r.prefetch.lateHits);
        pfUnused += static_cast<double>(r.prefetch.evictedUnused
                                        + r.prefetch.invalidatedUnused);
    }

    auto phase = [&](fbdp::LatPhase p) {
        return demand.meanPhaseNs(static_cast<unsigned>(p));
    };
    using P = fbdp::LatPhase;
    return {
        {"system.construct_s", "s", construct / n, "mean per cell"},
        {"system.prewarm_s", "s", prewarm / n,
         "mean per cell, run() wall minus event phases"},
        {"system.event_s", "s", event / n, "mean per cell"},
        {"system.output_s", "s", output / n,
         "mean per cell: CSV rows + stats JSON"},
        {"system.prewarm_share", "ratio", ratio(prewarm, wall),
         "of summed cell wall"},
        {"runner.busy_share", "ratio", ratio(wall, workers * rep.wall),
         fbdp::csprintf("sum of cell wall / (%u workers x wall)",
                        workers)},
        {"workload.next_ns", "ns", side.nextNs,
         "per Generator::next(), side System"},
        {"workload.trace_decode_mops_s", "Mops/s", side.decodeMops,
         has_traces ? "TracePassReader over each trace"
                    : "no traces in this workload"},
        {"cache.functional_access_ns", "ns", side.accessNs,
         "per functional access, side System"},
        {"cache.l2_miss_rate", "ratio",
         ratio(l2Misses, l2Hits + l2Misses), ""},
        {"cache.sw_prefetches_per_kinst", "1/kinst", ratio(swPf, kinsts),
         ""},
        {"sim.events_per_kinst", "1/kinst",
         ratio(events, runInsts / 1000.0), "whole run, warm-up included"},
        {"sim.schedules_per_event", "ratio", ratio(schedules, events),
         ""},
        {"sim.host_ns_per_event", "ns", ratio(event, events) * 1e9, ""},
        {"sim.event_minsts_per_s", "Minsts/s",
         ratio(runInsts, event) / 1e6,
         "event phases only (what fbdpsim --profile calls sim-rate)"},
        {"sim.peak_queue_depth", "count",
         static_cast<double>(peakDepth), "max over cells"},
        {"sim.batch_drains", "count", static_cast<double>(batchDrains),
         "summed over cells"},
        {"sim.core_shard_busy_s", "s", coreBusy / n, "mean per cell"},
        {"sim.channel_shard_busy_s", "s", chanBusy / n,
         "mean per cell, all channel shards"},
        {"sim.mailbox_drain_s", "s", drain / n, "mean per cell"},
        {"cpu.ipc_sum", "ipc", ipc / n, "mean per cell"},
        {"cpu.stall_rob_share", "ratio", ratio(robStall, coreTicks),
         "of core window cycles"},
        {"cpu.stall_mshr_share", "ratio", ratio(mshrStall, coreTicks),
         "of core window cycles"},
        {"mc.reads_per_kinst", "1/kinst", ratio(reads, kinsts), ""},
        {"mc.writes_per_kinst", "1/kinst", ratio(writes, kinsts), ""},
        {"mc.read_latency_ns", "ns", ratio(latSum, reads), ""},
        {"mc.bandwidth_gbs", "GB/s", bw / n, "mean per cell"},
        {"mc.demand_p50_ns", "ns", ratio(dmdP50, dmdSamples), ""},
        {"mc.demand_p95_ns", "ns", ratio(dmdP95, dmdSamples), ""},
        {"mc.queue_ns", "ns", phase(P::Queue), "demand-read mean"},
        {"mc.sched_ns", "ns", phase(P::Sched), "demand-read mean"},
        {"mc.south_ns", "ns", phase(P::South), "demand-read mean"},
        {"mc.north_ns", "ns", phase(P::North), "demand-read mean"},
        {"dram.act_pre_per_kinst", "1/kinst", ratio(actPre, kinsts), ""},
        {"dram.cas_per_kinst", "1/kinst", ratio(cas, kinsts), ""},
        {"dram.refresh", "count", refresh / n, "mean per cell"},
        {"dram.bank_prep_ns", "ns", phase(P::BankPrep),
         "demand-read mean"},
        {"dram.bank_ns", "ns", phase(P::Bank), "demand-read mean"},
        {"prefetch.issued_per_kinst", "1/kinst", ratio(pfIssued, kinsts),
         ""},
        {"prefetch.coverage", "ratio", ratio(pfHits, reads),
         "prefetch hits / reads"},
        {"prefetch.efficiency", "ratio", ratio(pfHits, pfIssued),
         "useful / issued"},
        {"prefetch.lateness", "ratio", ratio(pfLate, pfHits),
         "late hits / hits"},
        {"prefetch.pollution", "ratio", ratio(pfUnused, pfIssued),
         "unused evicted or invalidated / issued"},
        {"prefetch.amb_ns", "ns",
         prefHit.meanPhaseNs(static_cast<unsigned>(P::Amb)),
         "prefetch-hit mean"},
        {"power.dyn_energy_per_kinst", "CAU/kinst", ratio(energy, kinsts),
         "column-access units"},
    };
}

// ------------------------------------------------------------------ //
// Output                                                              //
// ------------------------------------------------------------------ //

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void
printReport(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::cout << fbdp::csprintf("  %-32s %14.6g %-10s", m.name.c_str(),
                                    m.value, m.unit.c_str());
        if (!m.note.empty())
            std::cout << "  " << m.note;
        std::cout << "\n";
    }
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "")
                  << fbdp::csprintf(
                         "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         metrics[i].name.c_str(), metrics[i].value,
                         metrics[i].unit.c_str());
    std::cout << "}}" << std::endl;
}

/** Mean IPC gain of fbd-ap over fbd across the mixes, in percent
 *  (the Fig. 7 quantity; sweep-short only). */
double
apGainPct(const Rep &rep, const std::vector<Cell> &cells)
{
    std::map<std::string, double> fbd, ap;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].config == "fbd")
            fbd[cells[i].mix] = rep.cells[i].result.ipcSum();
        else if (cells[i].config == "fbd-ap")
            ap[cells[i].mix] = rep.cells[i].result.ipcSum();
    }
    double sum = 0.0;
    for (const auto &[mix, base] : fbd)
        sum += ratio(ap[mix], base) - 1.0;
    return 100.0 * sum / static_cast<double>(fbd.size());
}

/** The paper's mean Fig. 7 gain of FBD-AP at one core. */
constexpr double paperApGainPct = 16.0;

/** Regenerate the stored results: each seed's cells run serially
 *  through fbdp::Sweep, the reference the benchmark's 2-worker pool
 *  must reproduce byte for byte. */
int
writeMode(const Options &o)
{
    for (std::uint64_t seed = o.seedLo; seed <= o.seedHi; ++seed) {
        const Workload w = setUp(o.workload, seed, workDir);
        const std::vector<Cell> cells = w.cells();
        fbdp::Sweep sweep;
        for (const auto &[name, cfg] : w.configs)
            sweep.addConfig(name, cfg);
        for (const fbdp::WorkloadMix &mix : w.mixes)
            sweep.addMix(mix);
        sweep.jobs(1);
        std::vector<std::string> texts;
        const std::vector<fbdp::SweepRow> rows = sweep.run();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            fbdp_assert(rows[i].config == cells[i].config
                            && rows[i].mix == cells[i].mix,
                        "sweep row order differs from the cell order");
            texts.push_back(cellText(rows[i]));
        }
        writeExpected(expectedDir, o.workload, seed, texts,
                      seed == defaultSeed || seed == heldOutSeed);
        for (const std::string &t : w.traces)
            std::filesystem::remove(t);
        std::cerr << o.workload << " seed " << seed << ": "
                  << texts.size() << " cells stored\n";
    }
    return 0;
}

int
benchMain(const Options &o)
{
    std::cout << "# fbdp perfbench: workload=" << o.workload
              << " seed=" << o.seed << " seconds=" << o.seconds
              << " trace=" << o.trace << "\n";
    SpanLog spans;

    // Set-up: the configurations, any trace recording and the cell
    // list.  It is timed in batches of at least 20 ms, so that a
    // set-up of a few microseconds is timed as steadily as one of a
    // second, and re-timed between repetitions (within a tenth of the
    // run) so that the batches sample the host over the whole run as
    // the repetitions do.  setup_s is the median over batches of the
    // time per set-up.
    Workload w;
    std::vector<Cell> cells;
    auto setUpOnce = [&] {
        w = setUp(o.workload, o.seed, workDir);
        cells = w.cells();
    };
    double t0 = 0.0;
    for (int cold = 0; cold < 2; ++cold) {  // the second one calibrates
        t0 = now();
        setUpOnce();
        spans.add("setup", t0, now());
    }
    const std::size_t batch =
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     0.02 / (now() - t0)));
    std::vector<double> setups;
    double setupSpent = 0.0;
    auto timeSetUp = [&] {
        const double b0 = now();
        for (std::size_t k = 0; k < batch; ++k)
            setUpOnce();
        const double b1 = now();
        setups.push_back((b1 - b0) / static_cast<double>(batch));
        setupSpent += b1 - b0;
        spans.add("setup", b0, b1);
    };
    timeSetUp();
    const Expected exp =
        Expected::load(expectedDir, o.workload, o.seed, cells.size());
    if (!exp.known())
        std::cerr << "note: no stored results for seed " << o.seed
                  << "; checking that repetitions agree instead\n";

    // Timed repetitions; a traced run alternates untraced and traced.
    Checker checker(exp, cells.size());
    std::vector<Rep> reps;
    const std::size_t min_reps = o.trace ? 4 : 3;
    // Peak RSS through set-up and the first repetition.  Later ones
    // re-use freed memory, and glibc's per-thread arenas then make the
    // whole-run peak depend on thread timing.
    double firstPassRss = 0.0;
    const double start = now();
    while (reps.size() < min_reps || now() - start < o.seconds) {
        if (!reps.empty()
            && (setups.size() < 3 || setupSpent < 0.1 * o.seconds))
            timeSetUp();
        const bool traced = o.trace && reps.size() % 2 == 1;
        Rep r = runRep(cells, w.workers, traced);
        checker.check(r, cells);
        std::cerr << "# rep " << reps.size()
                  << (traced ? " traced" : " untraced") << " wall "
                  << r.wall << " s\n";
        if (traced)
            spans.addRep(r, static_cast<long>(reps.size()), cells);
        reps.push_back(std::move(r));
        if (reps.size() == 1)
            firstPassRss = peakRssMb();
    }

    auto walls = [&](bool traced) {
        std::vector<double> v;
        for (const Rep &r : reps)
            if (r.traced == traced)
                v.push_back(r.wall);
        return v;
    };
    const double untracedWall = median(walls(false));
    std::vector<Metric> metrics;
    std::vector<Metric> extra;  // report only: see README.md

    if (!o.trace) {
        std::vector<double> rates, cellWalls;
        for (const Rep &r : reps) {
            double insts = 0;
            for (const CellRun &c : r.cells) {
                insts += static_cast<double>(c.result.runInsts);
                cellWalls.push_back(c.wall());
            }
            rates.push_back(insts / r.wall / 1e6);
        }
        const std::string n = fbdp::csprintf("n=%zu", cellWalls.size());
        const double p80 = quantile(cellWalls, 0.8);
        metrics = {
            {"wall_s", "s", untracedWall,
             fbdp::csprintf("median of %zu repetitions", reps.size())},
            {"sim_minsts_per_s", "Minsts/s", median(rates),
             "whole cells: run insts / wall"},
            {"cell_s.p50", "s", median(cellWalls), n},
            {"setup_s", "s", median(setups),
             fbdp::csprintf("per set-up, median of %zu batches of %zu",
                            setups.size(), batch)},
            {"peak_rss_mb", "MiB", firstPassRss,
             "set-up and first repetition"},
        };
        if (o.workload == "sweep-short") {
            const double gain = apGainPct(reps.front(), cells);
            extra = {
                {"cell_s.p80", "s", p80,
                 fbdp::csprintf("%s, %zd beyond", n.c_str(),
                                std::count_if(cellWalls.begin(),
                                              cellWalls.end(),
                                              [p80](double v) {
                                                  return v > p80;
                                              }))},
                {"ap_gain_pct", "%", gain,
                 "simulated: mean IPC gain of fbd-ap over fbd"},
                {"ap_gain_err_pp", "pp", std::abs(gain - paperApGainPct),
                 "vs the paper's 16.0 % (an M5 result, not hardware)"},
            };
        }
    } else {
        // Elementwise median of every traced repetition's layers.
        const SideTimes side = measureSide(w, cells, spans);
        std::vector<std::vector<Metric>> per;
        for (const Rep &r : reps)
            if (r.traced)
                per.push_back(layerMetrics(r, w.workers, side,
                                           !w.traces.empty()));
        metrics = per.front();
        for (std::size_t m = 0; m < metrics.size(); ++m) {
            std::vector<double> v;
            for (const auto &p : per)
                v.push_back(p[m].value);
            metrics[m].value = median(v);
        }
        const double tracedWall = median(walls(true));
        metrics.push_back({"trace.overhead_s", "s",
                           tracedWall - untracedWall,
                           fbdp::csprintf("traced %.4f s - untraced "
                                          "%.4f s wall",
                                          tracedWall, untracedWall)});
        const std::string path = fbdp::csprintf(
            "%s/spans-%s-seed%llu.json", workDir.c_str(),
            o.workload.c_str(), static_cast<unsigned long long>(o.seed));
        spans.write(path);
        std::cout << "# spans: " << path << "\n";
    }
    extra.push_back({"cells_failed", "cells",
                     static_cast<double>(checker.failed),
                     fbdp::csprintf("of %llu attempted; results checked "
                                    "against: %s",
                                    static_cast<unsigned long long>(
                                        checker.attempted),
                                    exp.source())});

    for (const std::string &t : w.traces)
        std::filesystem::remove(t);

    printReport(metrics);
    printReport(extra);
    printResult(checker.failed == 0, checker.attempted, checker.failed,
                metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Options o = perfbench::parseOptions(argc, argv);
    std::filesystem::create_directories(perfbench::workDir);
    return o.regenerate ? perfbench::writeMode(o)
                           : perfbench::benchMain(o);
}
