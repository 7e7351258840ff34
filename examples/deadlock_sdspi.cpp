/**
 * @file
 * Debugging the SDSPI deadlock (testbed bug C1) with FSM Monitor and
 * Dependency Monitor, plus a waveform dump for comparison.
 *
 * The command engine never accepts a command. FSM Monitor shows the
 * FSM produced zero transitions; Dependency Monitor reveals the
 * circular tx_go <-> rx_go enable dependency - the paper's §3.3.1
 * deadlock pattern (both initialized to 0). As a contrast to the
 * tool-based flow, the example also dumps the VCD waveform a developer
 * would otherwise have to inspect manually.
 */

#include <cstdio>

#include "bugbase/testbed.hh"
#include "bugbase/workloads.hh"
#include "core/dep_monitor.hh"
#include "core/fsm_monitor.hh"
#include "hdl/parser.hh"
#include "hdl/printer.hh"
#include "sim/simulator.hh"
#include "trace/vcd.hh"

using namespace hwdbg;
using namespace hwdbg::bugs;
using namespace hwdbg::core;

int
main()
{
    const TestbedBug &bug = bugById("C1");
    auto elaborated = buildDesign(bug, true);

    std::printf("=== Debugging the SDSPI deadlock (C1) ===\n\n");
    {
        sim::Simulator sim(buildDesign(bug, true).mod);
        WorkloadResult result = runWorkload(bug, sim);
        std::printf("Symptom: %s\n\n", result.detail.c_str());
    }

    // FSM Monitor: the command FSM never moves.
    const analyze::Context facts(*elaborated.mod);
    FsmMonitorResult fsm_mon = applyFsmMonitor(*elaborated.mod, facts);
    {
        hdl::Design d = hdl::parse(hdl::printModule(*fsm_mon.module));
        sim::Simulator sim(elab::elaborate(d, "sdspi").mod);
        runWorkload(bug, sim);
        auto trace = fsmTrace(sim.log());
        std::printf("FSM Monitor: 'state' made %zu transitions "
                    "(stuck in C_IDLE since reset)\n", trace.size());
    }

    // Dependency Monitor: why is the enable never set?
    for (const char *var : {"tx_go", "rx_go"}) {
        DepMonitorOptions opts;
        opts.variable = var;
        opts.cycles = 2;
        DepMonitorResult mon =
            applyDepMonitor(*elaborated.mod, facts, opts);
        std::printf("Dependency Monitor: %s depends on {", var);
        bool first = true;
        for (const auto &[reg, dist] : mon.chain) {
            if (reg == var)
                continue;
            std::printf("%s%s (%d cycle%s)", first ? "" : ", ",
                        reg.c_str(), dist, dist == 1 ? "" : "s");
            first = false;
        }
        std::printf("}\n");
    }
    std::printf("-> tx_go waits on rx_go and rx_go waits on tx_go: a "
                "circular dependency with both reset to 0.\n");

    // The old way: a waveform.
    {
        sim::Simulator sim(buildDesign(bug, true).mod);
        trace::VcdRecorder vcd(sim);
        sim.poke("rst", uint64_t(1));
        uint64_t t = 0;
        auto tick = [&] {
            sim.poke("clk", uint64_t(0));
            sim.eval();
            vcd.sample(t++);
            sim.poke("clk", uint64_t(1));
            sim.eval();
            vcd.sample(t++);
        };
        tick();
        sim.poke("rst", uint64_t(0));
        sim.poke("cmd_valid", uint64_t(1));
        for (int i = 0; i < 20; ++i)
            tick();
        vcd.writeFile("sdspi_deadlock.vcd");
        std::printf("\nFor comparison, the raw waveform was written to "
                    "sdspi_deadlock.vcd (%llu samples) - the manual "
                    "alternative to the tool flow above.\n",
                    (unsigned long long)t);
    }

    std::printf("\nFix: initialize one side of the cycle at reset "
                "(tx_go <= 1).\n");
    return 0;
}
