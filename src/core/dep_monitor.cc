#include "core/dep_monitor.hh"

#include "common/logging.hh"
#include "core/instrument.hh"
#include "elab/elaborate.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hwdbg::core
{

using namespace hdl;

DepMonitorResult
applyDepMonitor(const Module &mod, const analyze::Context &facts,
                const DepMonitorOptions &opts)
{
    obs::ObsSpan span("instrument.dep_monitor");
    HWDBG_STAT_INC("instrument.dep_monitor.runs", 1);
    if (opts.variable.empty())
        fatal("Dependency Monitor: no variable specified");
    if (!facts.module().findNet(opts.variable))
        fatal("Dependency Monitor: no signal named '%s'",
              opts.variable.c_str());

    DepMonitorResult result;
    result.chain =
        facts.graph().backwardSlice(opts.variable, opts.cycles,
                                    opts.followData, opts.followControl);

    InstrumentBuilder builder(mod);
    std::string clock = designClock(mod);

    for (const auto &[reg, dist] : result.chain) {
        const NetItem *net = builder.module()->findNet(reg);
        if (!net)
            continue; // IP-internal endpoint
        if (net->array)
            continue; // memories are tracked through their read ports
        std::string prev = "__dep_prev_" + reg;
        builder.addReg(prev, elab::netWidth(*net));

        auto disp = std::make_shared<DisplayStmt>();
        disp->format = "[DepMonitor] " + reg + " = %h (dist " +
                       std::to_string(dist) + ")";
        disp->args.push_back(mkId(reg));

        auto branch = std::make_shared<IfStmt>();
        branch->cond = mkBinary(BinaryOp::Ne, mkId(prev), mkId(reg));
        branch->thenStmt = disp;
        builder.addClockedStmt(clock, branch);

        auto update = std::make_shared<AssignStmt>();
        update->lhs = mkId(prev);
        update->rhs = mkId(reg);
        update->nonblocking = true;
        builder.addClockedStmt(clock, update);
    }

    builder.finish();
    result.module = builder.module();
    result.generatedLines = builder.generatedLines();
    return result;
}

std::vector<DepUpdate>
depUpdates(const std::vector<sim::EvalContext::LogLine> &log)
{
    std::vector<DepUpdate> updates;
    const std::string prefix = "[DepMonitor] ";
    for (const auto &line : log) {
        if (line.text.rfind(prefix, 0) != 0)
            continue;
        std::string body = line.text.substr(prefix.size());
        size_t eq = body.find(" = ");
        if (eq == std::string::npos)
            continue;
        size_t paren = body.find(" (", eq);
        DepUpdate update;
        update.cycle = line.cycle;
        update.variable = body.substr(0, eq);
        update.value = body.substr(
            eq + 3,
            paren == std::string::npos ? std::string::npos
                                       : paren - eq - 3);
        updates.push_back(std::move(update));
    }
    return updates;
}

} // namespace hwdbg::core
