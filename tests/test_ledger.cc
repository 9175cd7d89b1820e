/**
 * @file
 * Cross-run ledger: records must append and re-read exactly
 * (including 64-bit counters), history analysis must trend the right
 * records (digest grouping, lastN windows), flag planted drift and
 * stay quiet on identical records, and damage must be loud.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "system/ledger.hh"
#include "system/manifest.hh"
#include "system/rundiff.hh"
#include "system/sweep.hh"

using namespace fbdp;

namespace {

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

/** A synthetic ledger record: full control over digest and metrics. */
std::string
record(const std::string &digest, double ips, std::uint64_t reads,
       const std::string &config = "fbd-ap",
       const std::string &mix = "1C-swim")
{
    return std::string("{\"schema\": \"") + ledgerSchema
        + "\", \"manifest\": {\"tool\": \"fbdp\", \"config_digest\": \""
        + digest + "\"}, \"config\": \"" + config + "\", \"mix\": \""
        + mix + "\", \"seed\": 1, \"metrics\": {\"insts_per_sec\": "
        + json::encodeNumber(ips) + ", \"reads\": "
        + json::encodeNumber(reads) + "}}";
}

std::vector<json::ValuePtr>
parseAll(const std::vector<std::string> &lines)
{
    std::vector<json::ValuePtr> out;
    for (const auto &l : lines) {
        const auto pr = json::parse(l);
        EXPECT_TRUE(pr.ok()) << pr.error;
        out.push_back(pr.value);
    }
    return out;
}

TEST(LedgerRecordTest, RealRowRoundTripsExactly)
{
    Sweep s;
    SystemConfig cfg = SystemConfig::fbdAp();
    cfg.warmupInsts = 10'000;
    cfg.measureInsts = 40'000;
    s.addConfig("fbd-ap", cfg).addMix(mixByName("1C-swim"));
    const auto rows = s.run();
    ASSERT_EQ(rows.size(), 1u);

    SystemConfig cellCfg = cfg;
    cellCfg.benchmarks = mixByName("1C-swim").benches;
    const RunManifest m = RunManifest::capture(cellCfg);
    const std::string line = ledgerRecordJson(m, rows[0]);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    const auto pr = json::parse(line);
    ASSERT_TRUE(pr.ok()) << pr.error;
    EXPECT_EQ(pr.value->get("schema")->asString(), ledgerSchema);
    EXPECT_EQ(pr.value->get("config")->asString(), "fbd-ap");
    EXPECT_EQ(pr.value->get("mix")->asString(), "1C-swim");
    EXPECT_EQ(pr.value->get("manifest")
                  ->get("config_digest")->asString(),
              m.configDigest);

    // Counters survive the transit exactly.
    const json::ValuePtr met = pr.value->get("metrics");
    ASSERT_NE(met, nullptr);
    ASSERT_TRUE(met->get("reads")->isInteger());
    EXPECT_EQ(met->get("reads")->asUint64(), rows[0].result.reads);
    EXPECT_EQ(met->get("amb_hits")->asUint64(),
              rows[0].result.prefetch.hits);
    EXPECT_EQ(met->get("ipc_sum")->asNumber(),
              rows[0].result.ipcSum());
}

TEST(LedgerFileTest, AppendAndReadBack)
{
    const std::string path = tmpPath("ledger_rw.jsonl");
    std::remove(path.c_str());

    std::string err;
    ASSERT_TRUE(appendLedgerRecord(
        path, record("aaaabbbbccccdddd", 100.0, 42), &err))
        << err;
    const std::uint64_t big = (1ULL << 53) + 1;
    ASSERT_TRUE(appendLedgerRecord(
        path, record("aaaabbbbccccdddd", 110.0, big), &err))
        << err;

    const auto records = readLedger(path, &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_EQ(records.size(), 2u);
    // Append order is preserved and counters are exact.
    EXPECT_EQ(records[0]->get("metrics")->get("reads")->asUint64(),
              42u);
    EXPECT_EQ(records[1]->get("metrics")->get("reads")->asUint64(),
              big);
    std::remove(path.c_str());
}

TEST(LedgerFileTest, MalformedLineIsLoud)
{
    const std::string path = tmpPath("ledger_bad.jsonl");
    {
        std::ofstream os(path);
        os << record("aaaabbbbccccdddd", 100.0, 1) << "\n";
        os << "this is not json\n";
    }
    std::string err;
    const auto records = readLedger(path, &err);
    EXPECT_FALSE(err.empty());
    EXPECT_TRUE(records.empty());
    std::remove(path.c_str());
}

TEST(LedgerHistoryTest, IdenticalRecordsAreClean)
{
    const auto records = parseAll({
        record("aaaabbbbccccdddd", 100.0, 42),
        record("aaaabbbbccccdddd", 100.0, 42),
        record("aaaabbbbccccdddd", 100.0, 42),
    });
    const HistoryReport rep =
        analyzeHistory(records, HistoryOptions{});
    ASSERT_TRUE(rep.ok()) << rep.error;
    EXPECT_EQ(rep.window, 3u);
    EXPECT_EQ(rep.digest, "aaaabbbbccccdddd");
    EXPECT_FALSE(rep.drifted());
}

TEST(LedgerHistoryTest, PlantedRateDropDrifts)
{
    // Newest record is 20% slower than its two predecessors: beyond
    // the default 10% tolerance, so the trend must flag it.
    const auto records = parseAll({
        record("aaaabbbbccccdddd", 100.0, 42),
        record("aaaabbbbccccdddd", 100.0, 42),
        record("aaaabbbbccccdddd", 80.0, 42),
    });
    const HistoryReport rep =
        analyzeHistory(records, HistoryOptions{});
    ASSERT_TRUE(rep.ok()) << rep.error;
    EXPECT_TRUE(rep.drifted());

    // The same drop inside a wider tolerance passes.
    HistoryOptions loose;
    loose.tolerance = 0.25;
    EXPECT_FALSE(analyzeHistory(records, loose).drifted());

    // Drift is two-sided by default: an *improvement* is also worth
    // noticing...
    const auto faster = parseAll({
        record("aaaabbbbccccdddd", 100.0, 42),
        record("aaaabbbbccccdddd", 120.0, 42),
    });
    EXPECT_TRUE(
        analyzeHistory(faster, HistoryOptions{}).drifted());
    // ...unless the caller asks for higher-is-better gating only.
    HistoryOptions higher;
    higher.direction = DiffDirection::HigherBetter;
    EXPECT_FALSE(analyzeHistory(faster, higher).drifted());
}

TEST(LedgerHistoryTest, DigestSelectsTheTrendLine)
{
    const auto records = parseAll({
        record("1111111111111111", 100.0, 1),
        record("1111111111111111", 100.0, 1),
        record("2222222222222222", 500.0, 9),
        record("2222222222222222", 200.0, 9),  // -60%: drifts
    });

    // Default: the newest record's digest (2222...).
    HistoryReport rep = analyzeHistory(records, HistoryOptions{});
    ASSERT_TRUE(rep.ok()) << rep.error;
    EXPECT_EQ(rep.digest, "2222222222222222");
    EXPECT_EQ(rep.matching, 2u);
    EXPECT_TRUE(rep.drifted());

    // Explicit digest picks the other, clean line.
    HistoryOptions opt;
    opt.digest = "1111111111111111";
    rep = analyzeHistory(records, opt);
    ASSERT_TRUE(rep.ok()) << rep.error;
    EXPECT_EQ(rep.matching, 2u);
    EXPECT_FALSE(rep.drifted());
}

TEST(LedgerHistoryTest, LastNTrimsOldRecords)
{
    // Ancient slow records would mask a recent regression; --last
    // scopes the baseline to the recent past.
    const auto records = parseAll({
        record("aaaabbbbccccdddd", 10.0, 42),
        record("aaaabbbbccccdddd", 100.0, 42),
        record("aaaabbbbccccdddd", 100.0, 42),
        record("aaaabbbbccccdddd", 80.0, 42),
    });
    HistoryOptions opt;
    opt.lastN = 3;
    const HistoryReport rep = analyzeHistory(records, opt);
    ASSERT_TRUE(rep.ok()) << rep.error;
    EXPECT_EQ(rep.window, 3u);
    EXPECT_TRUE(rep.drifted());  // 80 vs mean(100, 100)
}

TEST(LedgerHistoryTest, WindowOfOneIsAnError)
{
    const auto records =
        parseAll({record("aaaabbbbccccdddd", 100.0, 42)});
    const HistoryReport rep =
        analyzeHistory(records, HistoryOptions{});
    EXPECT_FALSE(rep.ok());
    EXPECT_FALSE(rep.error.empty());
}

TEST(LedgerHistoryTest, OnlyAndIgnoreFilterMetrics)
{
    const auto records = parseAll({
        record("aaaabbbbccccdddd", 100.0, 42),
        record("aaaabbbbccccdddd", 80.0, 42),
    });
    HistoryOptions opt;
    opt.ignore = {"insts_per_sec"};
    const HistoryReport rep = analyzeHistory(records, opt);
    ASSERT_TRUE(rep.ok()) << rep.error;
    EXPECT_FALSE(rep.drifted());  // the drifting metric is ignored

    HistoryOptions only;
    only.only = {"no_such_metric"};
    const HistoryReport rep2 = analyzeHistory(records, only);
    ASSERT_TRUE(rep2.ok()) << rep2.error;
    EXPECT_EQ(rep2.diff.compared, 0u);  // caller turns this into
                                        // exit 2, not a clean pass
}

TEST(LedgerFlattenTest, ManifestIsNotAMetric)
{
    const auto pr =
        json::parse(record("aaaabbbbccccdddd", 100.0, 42));
    ASSERT_TRUE(pr.ok()) << pr.error;

    // Default flattening skips manifest members at any depth, so a
    // rundiff of two ledger records never diffs git SHAs or hosts.
    const auto flat = flattenJson(pr.value);
    for (const auto &[key, entry] : flat)
        EXPECT_EQ(key.find("manifest"), std::string::npos) << key;
    EXPECT_NE(flat.count("metrics.insts_per_sec"), 0u);

    const auto full = flattenJson(pr.value, true);
    EXPECT_NE(full.count("manifest.config_digest"), 0u);
}

} // namespace
