/**
 * @file
 * Property-based verification of the DRAM timing model.
 *
 * A random agent drives legal command sequences into a Dimm using
 * only the earliest*() queries, logging every command it applies.  An
 * independent verifier then re-checks the whole schedule against the
 * Table 2 constraints pairwise.  If the earliest*() bookkeeping ever
 * under-constrains a command, the verifier catches it.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/random.hh"
#include "dram/dimm.hh"

namespace fbdp {
namespace {

enum class Cmd { Act, Rd, Wr, Pre };

struct LogEntry
{
    Cmd cmd;
    unsigned bank;
    Tick at;
    unsigned nCas = 1;
    Tick dataEnd = 0;
};

/** Independent re-check of a command schedule. */
void
verifySchedule(const std::vector<LogEntry> &log, const DramTiming &t)
{
    // Per-bank state while replaying.
    struct BankState {
        Tick lastAct = 0;
        bool everAct = false;
        Tick lastPre = 0;
        bool everPre = false;
        Tick lastCasEnd = 0;      // end of last RD/WR burst window
        Tick minPreAfterRd = 0;   // lastRd + tRPD
        Tick minPreAfterWr = 0;   // lastWr + tWPD
        bool open = false;
    };
    std::map<unsigned, BankState> banks;
    Tick lastActAnyBank = 0;
    bool everActAnyBank = false;
    Tick lastWrDataEnd = 0;

    for (const auto &e : log) {
        BankState &b = banks[e.bank];
        switch (e.cmd) {
          case Cmd::Act:
            ASSERT_FALSE(b.open) << "ACT on open bank @" << e.at;
            if (b.everAct) {
                ASSERT_GE(e.at, b.lastAct + t.tRC)
                    << "tRC violated @" << e.at;
            }
            if (b.everPre) {
                ASSERT_GE(e.at, b.lastPre + t.tRP)
                    << "tRP violated @" << e.at;
            }
            if (everActAnyBank && lastActAnyBank != e.at) {
                ASSERT_GE(e.at, lastActAnyBank + t.tRRD)
                    << "tRRD violated @" << e.at;
            }
            b.lastAct = e.at;
            b.everAct = true;
            b.open = true;
            lastActAnyBank = e.at;
            everActAnyBank = true;
            break;
          case Cmd::Rd: {
            ASSERT_TRUE(b.open) << "RD on closed bank @" << e.at;
            ASSERT_GE(e.at, b.lastAct + t.tRCD)
                << "tRCD violated @" << e.at;
            ASSERT_GE(e.at, b.lastCasEnd)
                << "CAS overlap @" << e.at;
            ASSERT_GE(e.at, lastWrDataEnd + t.tWTR)
                << "tWTR violated @" << e.at;
            const Tick last_cas = e.at + (e.nCas - 1) * t.casGap();
            b.lastCasEnd = last_cas + t.casGap();
            b.minPreAfterRd = last_cas + t.tRPD;
            break;
          }
          case Cmd::Wr:
            ASSERT_TRUE(b.open) << "WR on closed bank @" << e.at;
            ASSERT_GE(e.at, b.lastAct + t.tRCD);
            ASSERT_GE(e.at, b.lastCasEnd);
            b.lastCasEnd = e.at + t.casGap();
            b.minPreAfterWr = e.at + t.tWPD;
            lastWrDataEnd = std::max(lastWrDataEnd, e.dataEnd);
            break;
          case Cmd::Pre:
            ASSERT_TRUE(b.open) << "PRE on closed bank @" << e.at;
            ASSERT_GE(e.at, b.lastAct + t.tRAS)
                << "tRAS violated @" << e.at;
            ASSERT_GE(e.at, b.minPreAfterRd)
                << "tRPD violated @" << e.at;
            ASSERT_GE(e.at, b.minPreAfterWr)
                << "tWPD violated @" << e.at;
            b.lastPre = e.at;
            b.everPre = true;
            b.open = false;
            break;
        }
    }
}

class TimingPropertyTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TimingPropertyTest, RandomOpenPageAgent)
{
    DramTiming t = DramTiming::forDataRate(667);
    Dimm dimm(&t, 4);
    Rng rng(GetParam());
    std::vector<LogEntry> log;

    Tick now = 0;
    for (int step = 0; step < 4000; ++step) {
        now += rng.below(nsToTicks(12));
        const unsigned bank = static_cast<unsigned>(rng.below(4));
        const Bank &b = dimm.bank(bank);
        const unsigned choice =
            static_cast<unsigned>(rng.below(10));
        if (!b.rowOpen()) {
            // Closed: activate (or idle).
            if (choice < 7) {
                const Tick at = dimm.earliestAct(bank, now);
                dimm.activate(bank, at, rng.below(1000));
                log.push_back({Cmd::Act, bank, at, 1, 0});
            }
        } else if (choice < 4) {
            const Tick at = dimm.earliestRead(bank, now);
            const unsigned n = 1 + static_cast<unsigned>(
                rng.below(4));
            dimm.read(bank, at, n, false);
            log.push_back({Cmd::Rd, bank, at, n, 0});
        } else if (choice < 7) {
            const Tick at = dimm.earliestWrite(bank, now);
            // tWTR guard lives in earliestRead only; writes are
            // bounded by the bank CAS window.
            const Tick end = dimm.write(bank, at, false);
            log.push_back({Cmd::Wr, bank, at, 1, end});
        } else {
            const Tick at = dimm.earliestPrecharge(bank, now);
            dimm.precharge(bank, at);
            log.push_back({Cmd::Pre, bank, at, 1, 0});
        }
    }

    ASSERT_GT(log.size(), 1000u);
    verifySchedule(log, t);

    // Operation accounting agrees with the log.
    std::uint64_t acts = 0, rds = 0, wrs = 0;
    for (const auto &e : log) {
        acts += e.cmd == Cmd::Act ? 1 : 0;
        rds += e.cmd == Cmd::Rd ? e.nCas : 0;
        wrs += e.cmd == Cmd::Wr ? 1 : 0;
    }
    EXPECT_EQ(dimm.counts().actPre, acts);
    EXPECT_EQ(dimm.counts().rdCas, rds);
    EXPECT_EQ(dimm.counts().wrCas, wrs);
}

TEST_P(TimingPropertyTest, RandomClosePageAgent)
{
    DramTiming t = DramTiming::forDataRate(
        GetParam() % 2 ? 800 : 533);
    Dimm dimm(&t, 4);
    Rng rng(GetParam() * 7919);
    std::vector<LogEntry> log;

    Tick now = 0;
    for (int step = 0; step < 3000; ++step) {
        now += rng.below(nsToTicks(20));
        const unsigned bank = static_cast<unsigned>(rng.below(4));
        if (dimm.bank(bank).rowOpen())
            continue;  // its auto-pre is logged below as Pre
        const Tick act_at = dimm.earliestAct(bank, now);
        dimm.activate(bank, act_at, rng.below(1000));
        log.push_back({Cmd::Act, bank, act_at, 1, 0});

        const bool write = rng.chance(0.3);
        if (write) {
            const Tick cas_at = dimm.earliestWrite(bank, act_at
                                                   + t.tRCD);
            // Record the implied precharge of the auto-pre.
            const Tick pre_at = std::max(act_at + t.tRAS,
                                         cas_at + t.tWPD);
            const Tick end = dimm.write(bank, cas_at, true);
            log.push_back({Cmd::Wr, bank, cas_at, 1, end});
            log.push_back({Cmd::Pre, bank, pre_at, 1, 0});
        } else {
            const unsigned n = 1 + static_cast<unsigned>(
                rng.below(8));
            const Tick cas_at = dimm.earliestRead(bank, act_at
                                                  + t.tRCD);
            const Tick last_cas = cas_at + (n - 1) * t.casGap();
            const Tick pre_at = std::max(act_at + t.tRAS,
                                         last_cas + t.tRPD);
            dimm.read(bank, cas_at, n, true);
            log.push_back({Cmd::Rd, bank, cas_at, n, 0});
            log.push_back({Cmd::Pre, bank, pre_at, 1, 0});
        }
    }

    verifySchedule(log, t);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimingPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 17u,
                                           42u, 1234u));

} // namespace
} // namespace fbdp
