/**
 * @file
 * The paper's §6.3 case study, reproduced step by step: debugging the
 * Grayscale accelerator's buffer overflow (testbed bug D2).
 *
 * The CPU-side software notices the acceleration task hangs. The
 * developer then:
 *  1. runs FSM Monitor - the read FSM reached RD_FINISH but the write
 *     FSM is stuck in WR_DATA, so the hang is in write-side logic;
 *  2. runs Statistics Monitor - all 8 memory responses arrived but
 *     fewer pixels were written: data is lost between the response
 *     capture and the write engine;
 *  3. runs LossCheck - the reorder buffer 'rob' is named as the precise
 *     location of the loss.
 */

#include <cstdio>

#include "bugbase/testbed.hh"
#include "bugbase/workloads.hh"
#include "core/fsm_monitor.hh"
#include "core/losscheck.hh"
#include "core/stats_monitor.hh"
#include "hdl/parser.hh"
#include "hdl/printer.hh"
#include "sim/simulator.hh"

using namespace hwdbg;
using namespace hwdbg::bugs;
using namespace hwdbg::core;

namespace
{

sim::Simulator
buildSim(hdl::ModulePtr mod)
{
    hdl::Design design = hdl::parse(hdl::printModule(*mod));
    return sim::Simulator(elab::elaborate(design, "grayscale").mod);
}

} // namespace

int
main()
{
    const TestbedBug &bug = bugById("D2");
    auto elaborated = buildDesign(bug, true);

    std::printf("=== Debugging Grayscale's buffer overflow (D2) ===\n");
    {
        sim::Simulator sim(buildDesign(bug, true).mod);
        WorkloadResult result = runWorkload(bug, sim);
        std::printf("\nSymptom: the acceleration task hangs "
                    "(done never asserts; %llu of 8 pixels written)\n",
                    (unsigned long long)result.outputsProduced);
    }

    // Step 1: FSM Monitor.
    std::printf("\nStep 1: FSM Monitor\n");
    const analyze::Context facts(*elaborated.mod);
    FsmMonitorResult fsm_mon = applyFsmMonitor(*elaborated.mod, facts);
    std::printf("  detected FSMs:");
    for (const auto &var : fsm_mon.monitored)
        std::printf(" %s", var.c_str());
    std::printf("\n");
    {
        sim::Simulator sim = buildSim(fsm_mon.module);
        runWorkload(bug, sim);
        auto final_states =
            finalStates(fsmTrace(sim.log()), fsm_mon.monitored);
        for (const auto &[var, value] : final_states)
            std::printf("  %s finished in state %s\n", var.c_str(),
                        stateName(var, value,
                                  elaborated.constants).c_str());
    }
    std::printf("  -> the read side completed; the hang is in "
                "write-related logic.\n");

    // Step 2: Statistics Monitor.
    std::printf("\nStep 2: Statistics Monitor\n");
    StatsMonitorOptions stat_opts;
    for (const auto &[name, signal] : bug.monitors.statEvents)
        stat_opts.events.push_back(
            StatsEvent{name, hdl::parseExprText(signal)});
    StatsMonitorResult stat_mon =
        applyStatsMonitor(*elaborated.mod, stat_opts);
    {
        sim::Simulator sim = buildSim(stat_mon.module);
        runWorkload(bug, sim);
        for (const auto &[name, signal] : bug.monitors.statEvents)
            std::printf("  %-5s = %llu\n", name.c_str(),
                        (unsigned long long)sim.peekU64(
                            StatsMonitorResult::counterSignal(name)));
    }
    std::printf("  -> responses arrived but pixels are missing: data "
                "loss between read and write.\n");

    // Step 3: LossCheck.
    std::printf("\nStep 3: LossCheck (%s --[valid %s]--> %s)\n",
                bug.lossCheck->source.c_str(),
                bug.lossCheck->sourceValid.c_str(),
                bug.lossCheck->sink.c_str());
    auto run = [&](hdl::ModulePtr mod, bool trigger) {
        sim::Simulator sim = buildSim(mod);
        if (trigger)
            runWorkload(bug, sim);
        else
            driveGroundTruth(bug, sim);
        return sim.log();
    };
    LossCheckReport report = runLossCheck(
        facts, *bug.lossCheck,
        [&](hdl::ModulePtr mod) { return run(mod, false); },
        [&](hdl::ModulePtr mod) { return run(mod, true); });
    std::printf("  LossCheck generated %d lines of checking logic\n",
                report.generatedLines);
    for (const auto &reg : report.reported)
        std::printf("  -> potential data loss at register '%s'\n",
                    reg.c_str());
    std::printf("\nRoot cause: %s.\n", bug.rootCauseNote.c_str());
    return 0;
}
