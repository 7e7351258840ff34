/**
 * @file
 * Shared helpers for the table/figure reproduction benches.
 */

#ifndef HWDBG_BENCH_BENCH_UTIL_HH
#define HWDBG_BENCH_BENCH_UTIL_HH

#include <memory>
#include <string>

#include "bugbase/testbed.hh"
#include "bugbase/workloads.hh"
#include "core/dep_monitor.hh"
#include "core/fsm_monitor.hh"
#include "core/losscheck.hh"
#include "core/signalcat.hh"
#include "core/stats_monitor.hh"
#include "hdl/parser.hh"
#include "hdl/printer.hh"
#include "sim/simulator.hh"

namespace hwdbg::bench
{

/** Apply the bug's configured monitors (FSM/Stat/Dep) to @p mod, each
 *  reading its facts from @p facts, a Context over the base design. */
inline hdl::ModulePtr
applyMonitors(const bugs::TestbedBug &bug, hdl::ModulePtr mod,
              const analyze::Context &facts)
{
    if (bug.monitors.fsm)
        mod = core::applyFsmMonitor(*mod, facts).module;
    if (!bug.monitors.statEvents.empty()) {
        core::StatsMonitorOptions opts;
        for (const auto &[name, signal] : bug.monitors.statEvents)
            opts.events.push_back(
                core::StatsEvent{name, hdl::parseExprText(signal)});
        mod = core::applyStatsMonitor(*mod, opts).module;
    }
    if (!bug.monitors.depVariable.empty()) {
        core::DepMonitorOptions opts;
        opts.variable = bug.monitors.depVariable;
        opts.cycles = bug.monitors.depCycles;
        mod = core::applyDepMonitor(*mod, facts, opts).module;
    }
    return mod;
}

/**
 * The full debugging deployment for a bug: monitors, LossCheck when the
 * bug has a loss configuration, and SignalCat converting all logging to
 * the on-FPGA recorder with @p buffer_depth entries.
 */
inline hdl::ModulePtr
applyFullInstrumentation(const bugs::TestbedBug &bug, hdl::ModulePtr mod,
                         uint32_t buffer_depth,
                         bool with_losscheck = false)
{
    const hdl::ModulePtr base = mod;
    const analyze::Context facts(*base);
    mod = applyMonitors(bug, mod, facts);
    if (with_losscheck && bug.lossCheck)
        mod = core::applyLossCheck(*mod, facts, *bug.lossCheck).module;
    core::SignalCatOptions opts;
    opts.bufferDepth = buffer_depth;
    return core::applySignalCat(*mod, opts).module;
}

/** Round-trip an instrumented module through the code generator and
 *  construct a simulator over it. */
inline std::unique_ptr<sim::Simulator>
simulateModule(hdl::ModulePtr mod)
{
    hdl::Design design = hdl::parse(hdl::printModule(*mod));
    return std::make_unique<sim::Simulator>(
        elab::elaborate(design, design.modules[0]->name).mod);
}

} // namespace hwdbg::bench

#endif // HWDBG_BENCH_BENCH_UTIL_HH
