#include "prefetch/prefetch_config.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>

#include "common/logging.hh"
#include "prefetch/policy.hh"

namespace fbdp {

namespace {

/** A whole unsigned decimal that fits an unsigned, else fatal(). */
unsigned
parseUnsigned(const std::string &key, const std::string &val,
              const std::string &spec)
{
    // strtoull alone would skip blanks, accept a sign and wrap a
    // negative value round to a huge one.
    const char *s = val.c_str();
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(s[0])) || *end != '\0'
        || errno == ERANGE || v > UINT_MAX)
        fatal("prefetch spec key '%s' has value '%s', not an unsigned "
              "integer <= %u (spec '%s')",
              key.c_str(), val.c_str(), UINT_MAX, spec.c_str());
    return static_cast<unsigned>(v);
}

} // namespace

PrefetchConfig
PrefetchConfig::parse(const std::string &spec, const PrefetchConfig &dflt)
{
    PrefetchConfig pc = dflt;

    std::size_t pos = 0;
    bool first = true;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;

        if (first) {
            first = false;
            if (tok.empty())
                fatal("empty prefetch policy spec");
            pc.policy = tok;
            continue;
        }
        if (tok.empty())
            continue;

        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos)
            fatal("prefetch spec token '%s' is not key=value "
                  "(spec '%s')", tok.c_str(), spec.c_str());
        const std::string key = tok.substr(0, eq);
        const std::string val = tok.substr(eq + 1);
        if (val.empty())
            fatal("prefetch spec key '%s' has no value (spec '%s')",
                  key.c_str(), spec.c_str());

        if (key == "degree") {
            pc.degree = parseUnsigned(key, val, spec);
        } else if (key == "entries") {
            pc.entries = parseUnsigned(key, val, spec);
        } else if (key == "ways") {
            pc.ways = parseUnsigned(key, val, spec);
        } else if (key == "throttle") {
            char *end = nullptr;
            pc.throttle = std::strtod(val.c_str(), &end);
            if (*end != '\0')
                fatal("prefetch spec key 'throttle' has value '%s', "
                      "not a number (spec '%s')",
                      val.c_str(), spec.c_str());
            // Written so that NaN fails too.
            if (!(pc.throttle >= 0.0 && pc.throttle <= 1.0))
                fatal("prefetch spec key 'throttle' has value '%s', "
                      "outside [0,1] (spec '%s')",
                      val.c_str(), spec.c_str());
        } else {
            fatal("unknown prefetch spec key '%s' (spec '%s'; known: "
                  "degree, entries, ways, throttle)",
                  key.c_str(), spec.c_str());
        }
    }

    // The buffer shape must be one AmbCache can build.
    if (pc.entries < 1)
        fatal("prefetch spec key 'entries' has value '%u'; the buffer "
              "needs at least 1 line (spec '%s')",
              pc.entries, spec.c_str());
    if (pc.ways != 0 && pc.entries % pc.ways != 0)
        fatal("prefetch spec key 'ways' has value '%u', which does not "
              "divide entries=%u (spec '%s')",
              pc.ways, pc.entries, spec.c_str());

    if (!PolicyRegistry::instance().has(pc.policy)) {
        std::string known;
        for (const auto &n : PolicyRegistry::instance().names()) {
            if (!known.empty())
                known += ", ";
            known += n;
        }
        fatal("unknown prefetch policy '%s' in spec '%s' "
              "(registered: %s)",
              pc.policy.c_str(), spec.c_str(), known.c_str());
    }
    return pc;
}

std::string
PrefetchConfig::spec() const
{
    std::string s = policy;
    if (degree)
        s += csprintf(",degree=%u", degree);
    s += csprintf(",entries=%u,ways=%u", entries, ways);
    if (throttle > 0.0)
        s += csprintf(",throttle=%g", throttle);
    return s;
}

} // namespace fbdp
