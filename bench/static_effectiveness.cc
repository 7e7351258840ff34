/**
 * @file
 * Static-analysis effectiveness over the Table 2 testbed: run each
 * check preset (the lint rules, the analyze passes) on the buggy and
 * fixed form of each of the 20 bugs and report which rules fire on the
 * buggy form only (a detection), on both forms (noise), and what the
 * fixed designs draw in total.
 *
 * The lint rules pattern-match the Table 1 bug shapes; the analyze
 * passes prove whole-design dataflow facts (stuck constants, dead
 * guards, definite assignment, scheduler races, clock-domain
 * crossings). Together they measure how far static analysis alone gets
 * before the monitors and LossCheck have to take over.
 *
 * Runs both presets; exit 1 when either misses its gate.
 */

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/analyze.hh"
#include "bench_util.hh"
#include "common/logging.hh"
#include "lint/lint.hh"

using namespace hwdbg;
using namespace hwdbg::bugs;
using namespace hwdbg::bench;

namespace
{

struct Preset
{
    const char *name;
    const char *title;
    /** What a detection is proven from, for the summary line. */
    const char *source;
    std::vector<analyze::Diagnostic> (*run)(const hdl::Module &mod);
    const char *expected;
    /** Gate: at least this many buggy-only detections... */
    int minDetected;
    /** ...and, when set, no rule firing on a fixed design only (a
     *  false alarm a fix would introduce). */
    bool quietOnFixes;
};

const Preset kPresets[] = {
    {"lint", "Static lint", "the buggy source",
     [](const hdl::Module &mod) { return lint::runLint(mod); },
     "the 8 structural/protocol bugs (D3, D4, D11, C1, C3, S1, S2, "
     "S3); timing-, value-, and workload-dependent bugs need the "
     "dynamic tools",
     5, false},
    {"analyze", "Dataflow analysis", "dataflow facts",
     [](const hdl::Module &mod) { return analyze::runAnalyze(mod); },
     "the constant-provable bugs (D2's truncated tag bit, D3's stuck "
     "ready outputs, D4's dead occupancy chain, C1's unreachable reset "
     "cascade); value- and timing-dependent bugs still need the "
     "dynamic tools",
     4, true},
};

std::string
join(const std::set<std::string> &names)
{
    std::string out;
    for (const auto &name : names) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out.empty() ? "-" : out;
}

bool
runPreset(const Preset &preset)
{
    std::printf("%s over the 20 Table 2 testbed bugs\n", preset.title);
    std::printf("%-4s %-27s %-42s %s\n", "Bug", "subclass",
                "buggy-only rules (detections)", "both-forms rules");
    std::printf("%s\n", std::string(104, '-').c_str());

    auto ruleHits = [&](const TestbedBug &bug, bool buggy) {
        std::multiset<std::string> hits;
        for (const auto &diag : preset.run(*buildDesign(bug, buggy).mod))
            hits.insert(diag.rule);
        return hits;
    };

    int detected = 0;
    int fixed_diags = 0;
    int fixed_only = 0;
    std::map<std::string, int> perRule;
    for (const auto &bug : testbedBugs()) {
        auto buggy = ruleHits(bug, true);
        auto fixed = ruleHits(bug, false);
        fixed_diags += static_cast<int>(fixed.size());

        std::set<std::string> buggy_only, both;
        for (const auto &rule : std::set<std::string>(buggy.begin(),
                                                      buggy.end())) {
            if (fixed.count(rule))
                both.insert(rule);
            else
                buggy_only.insert(rule);
        }
        for (const auto &rule : std::set<std::string>(fixed.begin(),
                                                      fixed.end()))
            fixed_only += !buggy.count(rule);
        if (!buggy_only.empty())
            ++detected;
        for (const auto &rule : buggy_only)
            ++perRule[rule];

        std::printf("%-4s %-27s %-42s %s\n", bug.id.c_str(),
                    bug.subclass.c_str(), join(buggy_only).c_str(),
                    join(both).c_str());
    }

    std::printf("%s\n", std::string(104, '-').c_str());
    std::printf("Detections per rule:\n");
    for (const auto &[rule, count] : perRule)
        std::printf("  %-24s %d\n", rule.c_str(), count);
    std::printf("Detected %d/20 bugs from %s alone; %d diagnostic(s) on "
                "the 20 fixed designs, %d rule(s) fire on fixed designs "
                "only\n",
                detected, preset.source, fixed_diags, fixed_only);
    std::printf("Expected: %s\n", preset.expected);

    bool ok = detected >= preset.minDetected &&
              (!preset.quietOnFixes || fixed_only == 0);
    std::printf("Match (%s): %s\n\n", preset.name, ok ? "ok" : "FAIL");
    return ok;
}

} // namespace

int
main()
{
    bool ok = true;
    for (const auto &preset : kPresets)
        ok = runPreset(preset) && ok;
    return ok ? 0 : 1;
}
