#include "expected.hh"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/logging.hh"
#include "system/manifest.hh"

namespace perfbench {

namespace {

/** Lines of cellText() per cell. */
constexpr std::size_t linesPerCell = 3;

std::string
hexDigest(const std::string &text)
{
    return fbdp::csprintf(
        "%016llx",
        static_cast<unsigned long long>(fbdp::fnv1a64(text)));
}

std::string
seedFile(const std::string &dir, const std::string &workload,
         std::uint64_t seed)
{
    return fbdp::csprintf("%s/%s/seed-%llu.txt", dir.c_str(),
                          workload.c_str(),
                          static_cast<unsigned long long>(seed));
}

std::string
digestFile(const std::string &dir, const std::string &workload)
{
    return dir + "/" + workload + "/digests.txt";
}

/** digests.txt as seed -> the rest of its line. */
std::map<std::uint64_t, std::string>
readDigestLines(const std::string &path)
{
    std::map<std::uint64_t, std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::uint64_t seed = 0;
        if (!(ls >> seed))
            fatal("%s: malformed line '%s'", path.c_str(), line.c_str());
        std::string rest;
        std::getline(ls, rest);
        lines[seed] = rest;
    }
    return lines;
}

} // namespace

std::string
cellText(const fbdp::SweepRow &row)
{
    using fbdp::ResultSchema;
    return ResultSchema::sweepRows().csvRow(row) + '\n'
        + ResultSchema::prefetchStats().csvRow(row) + '\n'
        + ResultSchema::powerStats().csvRow(row) + '\n';
}

Expected
Expected::load(const std::string &dir, const std::string &workload,
               std::uint64_t seed, std::size_t cells)
{
    Expected e;
    const std::string full = seedFile(dir, workload, seed);
    if (std::ifstream in{full}) {
        std::string line, cell;
        std::size_t n = 0;
        while (std::getline(in, line)) {
            cell += line + '\n';
            if (++n % linesPerCell == 0) {
                e.texts.push_back(cell);
                e.digests.push_back(hexDigest(cell));
                cell.clear();
            }
        }
        if (e.texts.size() != cells || !cell.empty())
            fatal("%s holds %zu cells, the workload has %zu",
                  full.c_str(), e.texts.size(), cells);
        return e;
    }
    const auto lines = readDigestLines(digestFile(dir, workload));
    const auto it = lines.find(seed);
    if (it == lines.end())
        return e;
    std::istringstream ls(it->second);
    for (std::string d; ls >> d;)
        e.digests.push_back(d);
    if (e.digests.size() != cells)
        fatal("%s: seed %llu lists %zu cells, the workload has %zu",
              digestFile(dir, workload).c_str(),
              static_cast<unsigned long long>(seed), e.digests.size(),
              cells);
    return e;
}

const char *
Expected::source() const
{
    if (!texts.empty())
        return "full text";
    return known() ? "digests" : "none";
}

std::string
Expected::mismatch(std::size_t i, const std::string &text) const
{
    if (!texts.empty()) {
        if (text == texts[i])
            return "";
        return "expected\n" + texts[i] + "got\n" + text;
    }
    const std::string d = hexDigest(text);
    if (d == digests[i])
        return "";
    return "digest " + d + " != expected " + digests[i] + "; got\n"
        + text;
}

void
writeExpected(const std::string &dir, const std::string &workload,
              std::uint64_t seed,
              const std::vector<std::string> &cell_texts, bool full)
{
    std::filesystem::create_directories(dir + "/" + workload);
    const std::string dpath = digestFile(dir, workload);
    auto lines = readDigestLines(dpath);
    std::string rest;
    for (const std::string &t : cell_texts) {
        rest += ' ';
        rest += hexDigest(t);
    }
    lines[seed] = rest;
    std::ofstream out(dpath);
    for (const auto &[s, r] : lines)
        out << s << r << '\n';
    if (!out)
        fatal("cannot write %s", dpath.c_str());

    if (full) {
        const std::string fpath = seedFile(dir, workload, seed);
        std::ofstream f(fpath);
        for (const std::string &t : cell_texts)
            f << t;
        if (!f)
            fatal("cannot write %s", fpath.c_str());
    }
}

} // namespace perfbench
