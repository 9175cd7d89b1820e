/**
 * @file
 * SystemConfig preset and derivation tests.
 */

#include <gtest/gtest.h>

#include "system/config.hh"

namespace fbdp {
namespace {

TEST(ConfigTest, Ddr2Preset)
{
    SystemConfig c = SystemConfig::ddr2();
    EXPECT_FALSE(c.fbd);
    EXPECT_FALSE(c.ambPrefetch.enabled());
    EXPECT_EQ(static_cast<int>(c.scheme),
              static_cast<int>(Interleave::Cacheline));
    EXPECT_EQ(c.logicChannels, 2u);
    EXPECT_EQ(c.dimmsPerChannel, 4u);
    EXPECT_EQ(c.banksPerDimm, 4u);
    EXPECT_EQ(c.dataRate, 667u);
    EXPECT_TRUE(c.swPrefetch);
}

TEST(ConfigTest, FbdApPresetMatchesSection52Defaults)
{
    SystemConfig c = SystemConfig::fbdAp();
    EXPECT_TRUE(c.fbd);
    EXPECT_EQ(c.ambPrefetch.policy, "region");
    EXPECT_EQ(static_cast<int>(c.scheme),
              static_cast<int>(Interleave::MultiCacheline));
    EXPECT_EQ(c.regionLines, 4u);
    EXPECT_EQ(c.ambPrefetch.entries, 64u);
    EXPECT_EQ(c.ambPrefetch.ways, 0u) << "fully associative default";
    EXPECT_FALSE(c.mcBufPrefetch.enabled());
    EXPECT_FALSE(c.apFullLatency);
}

TEST(ConfigTest, Table1ProcessorDefaults)
{
    SystemConfig c;
    EXPECT_EQ(c.rob, 196u);
    EXPECT_EQ(c.lq, 32u);
    EXPECT_EQ(c.sq, 32u);
    EXPECT_EQ(c.hier.l1Bytes, 64u * 1024u);
    EXPECT_EQ(c.hier.l1Ways, 2u);
    EXPECT_EQ(c.hier.l2Bytes, 4u * 1024u * 1024u);
    EXPECT_EQ(c.hier.l2Ways, 4u);
    EXPECT_EQ(c.hier.l2HitLatency, 15u * cpuCyclePs);
    EXPECT_EQ(c.hier.l1Mshrs, 32u);
    EXPECT_EQ(c.hier.l2Mshrs, 64u);
}

TEST(ConfigTest, ControllerDerivation)
{
    SystemConfig c = SystemConfig::fbdAp();
    ControllerConfig cc = c.controllerConfig();
    EXPECT_TRUE(cc.fbd);
    EXPECT_EQ(cc.ambPrefetch.spec(), c.ambPrefetch.spec());
    EXPECT_FALSE(cc.mcBufPrefetch.enabled());
    EXPECT_EQ(cc.nDimms, 4u);
    EXPECT_EQ(cc.timing.memCycle, 3000u);
    EXPECT_FALSE(cc.openPage);
    EXPECT_EQ(cc.cmdDelay, nsToTicks(3));

    // A non-default spec reaches the controller verbatim.
    c.ambPrefetch = PrefetchConfig::parse("dspatch,degree=2,throttle=0.8");
    cc = c.controllerConfig();
    EXPECT_EQ(cc.ambPrefetch.spec(), c.ambPrefetch.spec());
    EXPECT_EQ(cc.ambPrefetch.spec(),
              "dspatch,degree=2,entries=64,ways=0,throttle=0.8");
}

TEST(ConfigTest, Ddr2CommandPathIncludesRegisterAnd2T)
{
    SystemConfig c = SystemConfig::ddr2();
    ControllerConfig cc = c.controllerConfig();
    EXPECT_EQ(cc.cmdDelay, nsToTicks(3) + 2 * cc.timing.memCycle);
}

TEST(ConfigTest, PageSchemeTurnsOnOpenPage)
{
    SystemConfig c = SystemConfig::fbdBase();
    c.scheme = Interleave::Page;
    EXPECT_TRUE(c.controllerConfig().openPage);
}

TEST(ConfigTest, ApRequiresCompatibleScheme)
{
    SystemConfig c = SystemConfig::fbdAp();
    c.scheme = Interleave::Cacheline;
    EXPECT_DEATH(c.controllerConfig(), "multi-cacheline or page");
}

TEST(ConfigTest, ApRequiresFbd)
{
    SystemConfig c = SystemConfig::fbdAp();
    c.fbd = false;
    EXPECT_DEATH(c.controllerConfig(), "requires FB-DIMM");
}

TEST(ConfigTest, McBufferRequiresRegionPreservingScheme)
{
    SystemConfig c = SystemConfig::fbdBase();
    c.mcBufPrefetch.policy = "region";
    EXPECT_DEATH(c.controllerConfig(),
                 "MC buffer needs region-preserving interleaving");
}

TEST(ConfigTest, AddressMapDerivation)
{
    SystemConfig c = SystemConfig::fbdAp();
    c.logicChannels = 4;
    c.regionLines = 8;
    AddressMapConfig mc = c.addressMapConfig();
    EXPECT_EQ(mc.channels, 4u);
    EXPECT_EQ(mc.regionLines, 8u);
    EXPECT_EQ(static_cast<int>(mc.scheme),
              static_cast<int>(Interleave::MultiCacheline));
}

TEST(ConfigTest, CoreCountFollowsBenchmarks)
{
    SystemConfig c;
    EXPECT_EQ(c.nCores(), 0u);
    c.benchmarks = {"swim", "vpr", "gap"};
    EXPECT_EQ(c.nCores(), 3u);
}

} // namespace
} // namespace fbdp
