#include "system/config.hh"

#include "common/logging.hh"

namespace fbdp {

SystemConfig
SystemConfig::ddr2()
{
    SystemConfig c;
    c.fbd = false;
    c.scheme = Interleave::Cacheline;
    return c;
}

SystemConfig
SystemConfig::fbdBase()
{
    SystemConfig c;
    c.fbd = true;
    c.scheme = Interleave::Cacheline;
    return c;
}

SystemConfig
SystemConfig::fbdAp()
{
    SystemConfig c;
    c.fbd = true;
    c.scheme = Interleave::MultiCacheline;
    c.regionLines = 4;
    // The canned FBD-AP spec.
    c.ambPrefetch = PrefetchConfig{"region", 0, 64, 0, 0.0};
    return c;
}

ControllerConfig
SystemConfig::controllerConfig() const
{
    if (ambPrefetch.enabled()) {
        if (!fbd)
            fatal("ambPrefetch: AMB prefetching requires FB-DIMM "
                  "(fbd = false)");
        if (scheme == Interleave::Cacheline)
            fatal("ambPrefetch: AMB prefetching needs multi-cacheline "
                  "or page interleaving (Section 3.2), not scheme = "
                  "cacheline");
    }
    if (mcBufPrefetch.enabled()) {
        if (ambPrefetch.enabled())
            fatal("ambPrefetch and mcBufPrefetch are exclusive");
        if (scheme == Interleave::Cacheline)
            fatal("mcBufPrefetch: the MC buffer needs region-preserving "
                  "interleaving, not scheme = cacheline");
    }
    ControllerConfig cc;
    static_cast<ControllerSettings &>(cc) = *this;
    cc.nDimms = dimmsPerChannel;
    cc.timing = DramTiming::forDataRate(dataRate);
    if (!fbd) {
        // Command path of the conventional DDR2 channel: a register
        // buffering cycle (the AMB plays this role on FB-DIMM, costed
        // via the chain delay) plus 2T command timing, which stub-bus
        // channels loaded with four DIMMs need for signal integrity.
        cc.cmdDelay = nsToTicks(3) + 2 * cc.timing.memCycle;
    }
    cc.openPage = (scheme == Interleave::Page);
    return cc;
}

AddressMapConfig
SystemConfig::addressMapConfig() const
{
    AddressMapConfig mc;
    mc.channels = logicChannels;
    mc.dimmsPerChannel = dimmsPerChannel;
    mc.banksPerDimm = banksPerDimm;
    mc.regionLines = regionLines;
    mc.scheme = scheme;
    return mc;
}

} // namespace fbdp
