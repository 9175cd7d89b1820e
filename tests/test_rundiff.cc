/**
 * @file
 * The JSON reader and the run-diff engine behind fbdp-report: parsing
 * (values, escapes, errors), flattening (dotted paths, name-keyed
 * arrays), and the comparison policy (tolerance, direction, filters,
 * strict mode).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "system/rundiff.hh"

using namespace fbdp;

// ---------------------------------------------------------------- //
// JSON parser                                                      //
// ---------------------------------------------------------------- //

TEST(JsonParseTest, ScalarsAndNesting)
{
    const auto pr = json::parse(
        R"({"a": 1.5, "b": "hi", "c": [true, false, null],
            "d": {"e": -2e3}})");
    ASSERT_TRUE(pr.ok()) << pr.error;
    const json::ValuePtr v = pr.value;
    EXPECT_DOUBLE_EQ(v->get("a")->asNumber(), 1.5);
    EXPECT_EQ(v->get("b")->asString(), "hi");
    const auto &arr = v->get("c")->asArray();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_TRUE(arr[0]->asBool());
    EXPECT_FALSE(arr[1]->asBool());
    EXPECT_TRUE(arr[2]->isNull());
    EXPECT_DOUBLE_EQ(v->get("d")->get("e")->asNumber(), -2000.0);
    EXPECT_EQ(v->get("missing"), nullptr);
}

TEST(JsonParseTest, StringEscapes)
{
    const auto pr = json::parse(R"({"s": "a\"b\\c\n\tA"})");
    ASSERT_TRUE(pr.ok()) << pr.error;
    EXPECT_EQ(pr.value->get("s")->asString(), "a\"b\\c\n\tA");
}

TEST(JsonParseTest, DuplicateKeysLaterWins)
{
    const auto pr = json::parse(R"({"k": 1, "k": 2})");
    ASSERT_TRUE(pr.ok()) << pr.error;
    EXPECT_DOUBLE_EQ(pr.value->get("k")->asNumber(), 2.0);
}

TEST(JsonParseTest, ErrorsCarryLineNumbers)
{
    const auto pr = json::parse("{\n  \"a\": 1,\n  \"b\": }\n");
    ASSERT_FALSE(pr.ok());
    EXPECT_NE(pr.error.find("line 3"), std::string::npos) << pr.error;
}

TEST(JsonParseTest, RejectsTrailingGarbageAndBadLiterals)
{
    EXPECT_FALSE(json::parse("{} extra").ok());
    EXPECT_FALSE(json::parse("truthy").ok());
    EXPECT_FALSE(json::parse("[1, 2").ok());
    EXPECT_FALSE(json::parse("\"open").ok());
    EXPECT_FALSE(json::parse("12..5").ok());
    EXPECT_FALSE(json::parse("").ok());
}

TEST(JsonParseTest, MissingFileReportsIoError)
{
    const auto pr = json::parseFile("/nonexistent/no.json");
    ASSERT_FALSE(pr.ok());
    EXPECT_NE(pr.error.find("cannot open"), std::string::npos);
}

// ---------------------------------------------------------------- //
// Flattening                                                       //
// ---------------------------------------------------------------- //

TEST(FlattenTest, DottedPathsAndIndexedArrays)
{
    const auto pr = json::parse(
        R"({"run": {"ipc": 1.25, "mix": "2C-1"},
            "list": [10, 20]})");
    ASSERT_TRUE(pr.ok());
    const auto flat = flattenJson(pr.value);

    ASSERT_TRUE(flat.count("run.ipc"));
    EXPECT_TRUE(flat.at("run.ipc").numeric);
    EXPECT_DOUBLE_EQ(flat.at("run.ipc").num, 1.25);
    EXPECT_EQ(flat.at("run.mix").text, "2C-1");
    EXPECT_DOUBLE_EQ(flat.at("list.0").num, 10.0);
    EXPECT_DOUBLE_EQ(flat.at("list.1").num, 20.0);
}

TEST(FlattenTest, NamedArrayElementsKeyByName)
{
    // google-benchmark layout: reordering named entries must not
    // change the paths.
    const auto pr = json::parse(
        R"({"benchmarks": [
              {"name": "BM_A", "items_per_second": 100},
              {"name": "BM_B", "items_per_second": 200}]})");
    ASSERT_TRUE(pr.ok());
    const auto flat = flattenJson(pr.value);
    EXPECT_DOUBLE_EQ(
        flat.at("benchmarks.BM_A.items_per_second").num, 100.0);
    EXPECT_DOUBLE_EQ(
        flat.at("benchmarks.BM_B.items_per_second").num, 200.0);
}

// ---------------------------------------------------------------- //
// Diffing                                                          //
// ---------------------------------------------------------------- //

namespace {

std::map<std::string, FlatEntry>
flatOf(const std::string &text)
{
    const auto pr = json::parse(text);
    EXPECT_TRUE(pr.ok()) << pr.error;
    return flattenJson(pr.value);
}

} // anonymous namespace

TEST(DiffTest, IdenticalRunsPassAtZeroTolerance)
{
    const auto a = flatOf(R"({"x": 1.0, "s": "same", "n": 0})");
    DiffOptions opt;
    opt.tolerance = 0.0;
    opt.strict = true;
    const DiffReport r = diffRuns(a, a, opt);
    EXPECT_EQ(r.compared, 3u);
    EXPECT_TRUE(r.changed.empty());
    EXPECT_FALSE(r.failed());
}

TEST(DiffTest, TwoSidedToleranceGatesBothDirections)
{
    const auto a = flatOf(R"({"v": 100})");
    DiffOptions opt;
    opt.tolerance = 0.10;

    EXPECT_FALSE(diffRuns(a, flatOf(R"({"v": 109})"), opt).failed());
    EXPECT_FALSE(diffRuns(a, flatOf(R"({"v": 91})"), opt).failed());
    EXPECT_TRUE(diffRuns(a, flatOf(R"({"v": 111})"), opt).failed());
    EXPECT_TRUE(diffRuns(a, flatOf(R"({"v": 89})"), opt).failed());
}

TEST(DiffTest, HigherBetterOnlyFailsOnDrops)
{
    const auto a = flatOf(R"({"rate": 100})");
    DiffOptions opt;
    opt.tolerance = 0.10;
    opt.direction = DiffDirection::HigherBetter;

    // A big improvement is reported but is not a regression.
    const DiffReport up = diffRuns(a, flatOf(R"({"rate": 150})"), opt);
    EXPECT_EQ(up.changed.size(), 1u);
    EXPECT_FALSE(up.failed());

    const DiffReport dn = diffRuns(a, flatOf(R"({"rate": 80})"), opt);
    EXPECT_TRUE(dn.failed());
}

TEST(DiffTest, LowerBetterOnlyFailsOnRises)
{
    const auto a = flatOf(R"({"latency": 100})");
    DiffOptions opt;
    opt.tolerance = 0.10;
    opt.direction = DiffDirection::LowerBetter;

    EXPECT_FALSE(
        diffRuns(a, flatOf(R"({"latency": 50})"), opt).failed());
    EXPECT_TRUE(
        diffRuns(a, flatOf(R"({"latency": 120})"), opt).failed());
}

TEST(DiffTest, PerKeyToleranceOverridesDefault)
{
    const auto a = flatOf(R"({"noisy": 100, "stable": 100})");
    const auto b = flatOf(R"({"noisy": 140, "stable": 104})");
    DiffOptions opt;
    opt.tolerance = 0.02;
    opt.keyTolerances["noisy"] = 0.50;
    const DiffReport r = diffRuns(a, b, opt);
    ASSERT_EQ(r.changed.size(), 1u);
    EXPECT_EQ(r.changed[0].key, "stable");
    EXPECT_TRUE(r.failed());
}

TEST(DiffTest, OnlyAndIgnoreFilterPaths)
{
    const auto a =
        flatOf(R"({"kernel": {"events_per_sec": 1e6}, "run": {"ipc": 1}})");
    const auto b =
        flatOf(R"({"kernel": {"events_per_sec": 5e6}, "run": {"ipc": 2}})");

    DiffOptions only;
    only.tolerance = 0.0;
    only.only = {"run."};
    const DiffReport ro = diffRuns(a, b, only);
    EXPECT_EQ(ro.compared, 1u);
    EXPECT_TRUE(ro.failed()); // run.ipc changed

    DiffOptions ign;
    ign.tolerance = 0.0;
    ign.ignore = {"events_per_sec", "ipc"};
    EXPECT_FALSE(diffRuns(a, b, ign).failed());
}

TEST(DiffTest, MissingKeysOnlyFailUnderStrict)
{
    const auto a = flatOf(R"({"x": 1, "gone": 2})");
    const auto b = flatOf(R"({"x": 1, "added": 3})");
    DiffOptions opt;
    const DiffReport lax = diffRuns(a, b, opt);
    EXPECT_EQ(lax.onlyA, std::vector<std::string>{"gone"});
    EXPECT_EQ(lax.onlyB, std::vector<std::string>{"added"});
    EXPECT_FALSE(lax.failed());

    opt.strict = true;
    EXPECT_TRUE(diffRuns(a, b, opt).failed());
}

TEST(DiffTest, TextAndKindMismatchesAlwaysFail)
{
    DiffOptions opt; // generous numeric tolerance is irrelevant
    opt.tolerance = 10.0;
    EXPECT_TRUE(diffRuns(flatOf(R"({"m": "2C-1"})"),
                         flatOf(R"({"m": "2C-2"})"), opt).failed());
    // A number on one side and a string on the other is a mismatch.
    EXPECT_TRUE(diffRuns(flatOf(R"({"m": 1})"),
                         flatOf(R"({"m": "1x"})"), opt).failed());
}

TEST(DiffTest, ZeroBaselineDoesNotDivideByZero)
{
    const auto a = flatOf(R"({"v": 0})");
    const auto b = flatOf(R"({"v": 0.5})");
    DiffOptions opt;
    opt.tolerance = 0.10;
    const DiffReport r = diffRuns(a, b, opt);
    EXPECT_TRUE(r.failed());
    EXPECT_TRUE(std::isfinite(r.changed[0].relDelta));
}

TEST(DiffTest, ZeroBaselinePrintsFromZero)
{
    const auto a = flatOf(R"({"hits": 0, "rate": 100})");
    const auto b = flatOf(R"({"hits": 495, "rate": 150})");
    DiffOptions opt;
    opt.tolerance = 0.0;
    const DiffReport r = diffRuns(a, b, opt);
    // The label changes; the regression decision does not.
    ASSERT_EQ(r.changed.size(), 2u);
    EXPECT_TRUE(r.failed());
    std::ostringstream os;
    printDiffReport(r, os, false);
    const std::string out = os.str();
    EXPECT_NE(out.find("hits  0 -> 495  (from 0)\n"), std::string::npos)
        << out;
    EXPECT_NE(out.find("rate  100 -> 150  (+50.00%)\n"),
              std::string::npos)
        << out;
}
