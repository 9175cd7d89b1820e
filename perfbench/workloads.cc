#include "workloads.hh"

#include "common/logging.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"
#include "workload/trace_stream.hh"

namespace perfbench {

using fbdp::SystemConfig;

namespace {

/** Window of one cell: measured instructions, warm-up a quarter. */
SystemConfig
window(SystemConfig c, std::uint64_t measure, std::uint64_t seed)
{
    c.measureInsts = measure;
    c.warmupInsts = measure / 4;
    c.seed = seed;
    return c;
}

/** example_design_space's grid at 1 core and 20k instructions. */
Workload
sweepShort(std::uint64_t seed)
{
    constexpr std::uint64_t insts = 20'000;
    Workload w;
    w.name = "sweep-short";
    w.workers = 2;
    w.configs = {
        {"ddr2", window(SystemConfig::ddr2(), insts, seed)},
        {"fbd", window(SystemConfig::fbdBase(), insts, seed)},
        {"fbd-ap", window(SystemConfig::fbdAp(), insts, seed)},
    };
    for (unsigned k : {2u, 8u}) {
        SystemConfig c = window(SystemConfig::fbdAp(), insts, seed);
        c.regionLines = k;
        w.configs.emplace_back("fbd-ap-k" + std::to_string(k), c);
    }
    w.mixes = fbdp::mixesFor(1);
    return w;
}

/** One 4-core streaming-FP cell, long enough that events dominate. */
Workload
cellLong(std::uint64_t seed)
{
    Workload w;
    w.name = "cell-long";
    SystemConfig c = window(SystemConfig::fbdAp(), 5'000'000, seed);
    c.threads = 1;
    w.configs = {{"fbd-ap", c}};
    w.mixes = {fbdp::mixByName("4C-1")};
    return w;
}

/** Ops recorded per trace.  A cell consumes ~760k per core (655k in
 *  the functional pre-warm, the rest in the timed window), so replay
 *  never wraps around. */
constexpr std::uint64_t traceOps = 1'000'000;

/** Two cores replaying streamed .fbt traces of mcf and vortex. */
Workload
traceIrregular(std::uint64_t seed, const std::string &work_dir)
{
    Workload w;
    w.name = "trace-irregular";
    fbdp::WorkloadMix mix{"mcf+vortex", {}};
    const std::vector<std::string> benches = {"mcf", "vortex"};
    for (unsigned i = 0; i < benches.size(); ++i) {
        const std::string path = fbdp::csprintf(
            "%s/%s-%s-seed%llu.fbt", work_dir.c_str(), w.name.c_str(),
            benches[i].c_str(), static_cast<unsigned long long>(seed));
        // Same per-core seeding as System gives a synthetic core.
        fbdp::SyntheticGenerator gen(fbdp::benchProfile(benches[i]), 0,
                                     seed * 1000 + i, true);
        fbdp::TraceWriter out(path, fbdp::TraceFormat::Fbt, false,
                              benches[i], traceOps);
        for (std::uint64_t k = 0; k < traceOps; ++k)
            out.append(gen.next());
        out.close();
        w.traces.push_back(path);
        mix.benches.push_back("trace:" + path + ",stream=on");
    }
    w.configs = {{"fbd-ap", window(SystemConfig::fbdAp(), 1'000'000,
                                   seed)}};
    w.mixes = {mix};
    return w;
}

} // namespace

std::vector<Cell>
Workload::cells() const
{
    std::vector<Cell> out;
    for (const auto &[name, cfg] : configs) {
        for (const fbdp::WorkloadMix &mix : mixes) {
            Cell c{name, mix.name, cfg};
            c.cfg.benchmarks = mix.benches;
            out.push_back(std::move(c));
        }
    }
    return out;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sweep-short", "cell-long", "trace-irregular"};
    return names;
}

Workload
setUp(const std::string &name, std::uint64_t seed,
      const std::string &work_dir)
{
    if (name == "sweep-short")
        return sweepShort(seed);
    if (name == "cell-long")
        return cellLong(seed);
    if (name == "trace-irregular")
        return traceIrregular(seed, work_dir);
    fatal("unknown workload '%s'", name.c_str());
}

} // namespace perfbench
