#include "system/rundiff.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>

namespace fbdp {

namespace {

/** Guard against divide-by-zero when the baseline is zero. */
constexpr double relEps = 1e-12;

void
flattenInto(const json::ValuePtr &v, const std::string &prefix,
            bool include_manifest,
            std::map<std::string, FlatEntry> &out)
{
    if (!v)
        return;
    switch (v->kind()) {
      case json::Value::Kind::Object:
        for (const auto &[key, child] : v->members()) {
            // Manifest blocks are provenance (timestamps, SHA, host),
            // not metrics: every pair of runs differs there, so
            // diffing them would drown real changes in noise.
            if (!include_manifest
                && (key == "manifest" || key == "fbdp_manifest"))
                continue;
            const std::string path =
                prefix.empty() ? key : prefix + "." + key;
            flattenInto(child, path, include_manifest, out);
        }
        return;
      case json::Value::Kind::Array: {
        const auto &items = v->asArray();
        for (std::size_t i = 0; i < items.size(); ++i) {
            // Key array elements by their "name" member when present
            // (google-benchmark's layout) so reordering named entries
            // does not shift every downstream path.
            std::string label = std::to_string(i);
            if (items[i] && items[i]->isObject()) {
                if (json::ValuePtr nm = items[i]->get("name");
                    nm && nm->isString())
                    label = nm->asString();
            }
            const std::string path =
                prefix.empty() ? label : prefix + "." + label;
            flattenInto(items[i], path, include_manifest, out);
        }
        return;
      }
      case json::Value::Kind::Number: {
        FlatEntry e;
        e.numeric = true;
        e.num = v->asNumber();
        out[prefix] = std::move(e);
        return;
      }
      case json::Value::Kind::String: {
        FlatEntry e;
        e.text = v->asString();
        out[prefix] = std::move(e);
        return;
      }
      case json::Value::Kind::Bool: {
        FlatEntry e;
        e.text = v->asBool() ? "true" : "false";
        out[prefix] = std::move(e);
        return;
      }
      case json::Value::Kind::Null: {
        FlatEntry e;
        e.text = "null";
        out[prefix] = std::move(e);
        return;
      }
    }
}

bool
containsAny(const std::string &key,
            const std::vector<std::string> &pats)
{
    for (const std::string &p : pats) {
        if (key.find(p) != std::string::npos)
            return true;
    }
    return false;
}

bool
selected(const std::string &key, const DiffOptions &opt)
{
    if (!opt.only.empty() && !containsAny(key, opt.only))
        return false;
    if (containsAny(key, opt.ignore))
        return false;
    return true;
}

} // namespace

std::map<std::string, FlatEntry>
flattenJson(const json::ValuePtr &v, bool include_manifest)
{
    std::map<std::string, FlatEntry> out;
    flattenInto(v, "", include_manifest, out);
    return out;
}

DiffReport
diffRuns(const std::map<std::string, FlatEntry> &a,
         const std::map<std::string, FlatEntry> &b,
         const DiffOptions &opt)
{
    DiffReport r;
    r.strictUsed = opt.strict;

    for (const auto &[key, ea] : a) {
        if (!selected(key, opt))
            continue;
        auto itb = b.find(key);
        if (itb == b.end()) {
            r.onlyA.push_back(key);
            continue;
        }
        const FlatEntry &eb = itb->second;
        ++r.compared;

        DiffEntry d;
        d.key = key;

        if (!ea.numeric || !eb.numeric) {
            // Text values must match exactly; kind mismatches (a
            // number vs a string) also land here.
            d.textA = ea.numeric ? std::to_string(ea.num) : ea.text;
            d.textB = eb.numeric ? std::to_string(eb.num) : eb.text;
            if (d.textA != d.textB) {
                d.textMismatch = true;
                r.changed.push_back(std::move(d));
            } else {
                r.withinTol.push_back(std::move(d));
            }
            continue;
        }

        d.a = ea.num;
        d.b = eb.num;
        d.relDelta =
            (d.b - d.a) / std::max(std::abs(d.a), relEps);

        double tol = opt.tolerance;
        if (auto itTol = opt.keyTolerances.find(key);
            itTol != opt.keyTolerances.end())
            tol = itTol->second;

        bool beyond;
        if (tol == 0.0)
            beyond = d.a != d.b;
        else
            beyond = std::abs(d.relDelta) > tol;

        if (beyond) {
            switch (opt.direction) {
              case DiffDirection::TwoSided:
                d.regression = true;
                break;
              case DiffDirection::HigherBetter:
                d.regression = d.b < d.a;
                break;
              case DiffDirection::LowerBetter:
                d.regression = d.b > d.a;
                break;
            }
            r.changed.push_back(std::move(d));
        } else {
            r.withinTol.push_back(std::move(d));
        }
    }

    for (const auto &[key, eb] : b) {
        if (!selected(key, opt))
            continue;
        if (a.find(key) == a.end())
            r.onlyB.push_back(key);
    }

    return r;
}

void
printDiffReport(const DiffReport &r, std::ostream &os, bool verbose)
{
    auto line = [&os](const DiffEntry &e, const char *tag) {
        os << "  " << tag << " " << e.key;
        if (e.textMismatch) {
            os << "  '" << e.textA << "' -> '" << e.textB << "'\n";
            return;
        }
        os << "  " << e.a << " -> " << e.b;
        // A change from 0 has no meaningful relative size (relDelta
        // divides by a tiny guard), so say where it started instead.
        if (e.a == 0.0) {
            os << "  (from 0)\n";
            return;
        }
        os << "  (" << std::showpos << std::fixed << std::setprecision(2)
           << e.relDelta * 100.0 << "%" << std::noshowpos
           << std::defaultfloat << std::setprecision(6) << ")\n";
    };

    std::vector<const DiffEntry *> regressions, drifts;
    for (const DiffEntry &e : r.changed) {
        (e.regression || e.textMismatch ? regressions : drifts)
            .push_back(&e);
    }

    os << "compared " << r.compared << " key(s): "
       << regressions.size() << " regression(s), "
       << drifts.size() << " non-regressing change(s), "
       << r.withinTol.size() << " within tolerance\n";

    for (const DiffEntry *e : regressions)
        line(*e, "FAIL");
    for (const DiffEntry *e : drifts)
        line(*e, "note");

    if (!r.onlyA.empty()) {
        os << "  keys only in run A: " << r.onlyA.size() << "\n";
        if (verbose) {
            for (const std::string &k : r.onlyA)
                os << "    - " << k << "\n";
        }
    }
    if (!r.onlyB.empty()) {
        os << "  keys only in run B: " << r.onlyB.size() << "\n";
        if (verbose) {
            for (const std::string &k : r.onlyB)
                os << "    + " << k << "\n";
        }
    }
    if (verbose) {
        for (const DiffEntry &e : r.withinTol) {
            if (!e.textMismatch && e.a != e.b)
                line(e, "  ok");
        }
    }
}

} // namespace fbdp
