#include "core/fsm_monitor.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/logging.hh"
#include "common/testhooks.hh"
#include "core/instrument.hh"
#include "elab/elaborate.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hwdbg::core
{

using namespace hdl;

FsmMonitorResult
applyFsmMonitor(const Module &mod, const analyze::Context &facts,
                const FsmMonitorOptions &opts)
{
    obs::ObsSpan span("instrument.fsm_monitor");
    HWDBG_STAT_INC("instrument.fsm_monitor.runs", 1);
    FsmMonitorResult result;
    result.fsms = facts.fsms();

    std::vector<std::string> monitored;
    for (const auto &fsm : result.fsms)
        if (!opts.exclude.count(fsm.stateVar))
            monitored.push_back(fsm.stateVar);
    for (const auto &forced : opts.forceInclude)
        if (std::find(monitored.begin(), monitored.end(), forced) ==
            monitored.end())
            monitored.push_back(forced);

    InstrumentBuilder builder(mod);
    std::string default_clock = designClock(mod);

    for (const auto &var : monitored) {
        const NetItem *net = builder.module()->findNet(var);
        if (!net)
            fatal("FSM Monitor: no signal named '%s'", var.c_str());
        uint32_t width = elab::netWidth(*net);

        std::string clock = default_clock;
        for (const auto &fsm : result.fsms)
            if (fsm.stateVar == var && !fsm.clock.empty())
                clock = fsm.clock;

        std::string prev = "__fsm_prev_" + var;
        builder.addReg(prev, width);

        auto disp = std::make_shared<DisplayStmt>();
        disp->format = "[FSMMonitor] " + var + ": %d -> %d";
        if (mutationOn(MUT_INSTR_FSM_SWAP)) {
            disp->args.push_back(mkId(var));
            disp->args.push_back(mkId(prev));
        } else {
            disp->args.push_back(mkId(prev));
            disp->args.push_back(mkId(var));
        }

        auto branch = std::make_shared<IfStmt>();
        branch->cond =
            mkBinary(BinaryOp::Ne, mkId(prev), mkId(var));
        branch->thenStmt = disp;
        builder.addClockedStmt(clock, branch);

        auto update = std::make_shared<AssignStmt>();
        update->lhs = mkId(prev);
        update->rhs = mkId(var);
        update->nonblocking = true;
        builder.addClockedStmt(clock, update);
    }

    builder.finish();
    result.module = builder.module();
    result.monitored = std::move(monitored);
    result.generatedLines = builder.generatedLines();
    return result;
}

std::vector<FsmTraceEntry>
fsmTrace(const std::vector<sim::EvalContext::LogLine> &log)
{
    std::vector<FsmTraceEntry> trace;
    const std::string prefix = "[FSMMonitor] ";
    for (const auto &line : log) {
        if (line.text.rfind(prefix, 0) != 0)
            continue;
        std::string body = line.text.substr(prefix.size());
        size_t colon = body.find(": ");
        size_t arrow = body.find(" -> ");
        if (colon == std::string::npos || arrow == std::string::npos)
            continue;
        FsmTraceEntry entry;
        entry.cycle = line.cycle;
        entry.stateVar = body.substr(0, colon);
        entry.fromState = std::strtoull(
            body.substr(colon + 2, arrow - colon - 2).c_str(), nullptr,
            10);
        entry.toState = std::strtoull(body.substr(arrow + 4).c_str(),
                                      nullptr, 10);
        trace.push_back(std::move(entry));
    }
    return trace;
}

std::map<std::string, uint64_t>
finalStates(const std::vector<FsmTraceEntry> &trace,
            const std::vector<std::string> &monitored)
{
    std::map<std::string, uint64_t> out;
    for (const auto &var : monitored)
        out[var] = 0;
    for (const auto &entry : trace)
        out[entry.stateVar] = entry.toState;
    return out;
}

std::string
stateName(const std::string &state_var, uint64_t value,
          const std::map<std::string, Bits> &constants)
{
    // Constants in the same flattened scope as the variable are state
    // name candidates; when several share the value (e.g. RD_IDLE and
    // WR_IDLE both 0), prefer the one sharing the longest
    // case-insensitive prefix with the variable name ("wr_state" ->
    // "WR_...").
    std::string scope;
    size_t sep = state_var.rfind("__");
    if (sep != std::string::npos)
        scope = state_var.substr(0, sep + 2);
    std::string local_var =
        scope.empty() ? state_var : state_var.substr(scope.size());

    auto common_prefix = [](const std::string &a, const std::string &b) {
        size_t i = 0;
        while (i < a.size() && i < b.size() &&
               std::tolower(static_cast<unsigned char>(a[i])) ==
                   std::tolower(static_cast<unsigned char>(b[i])))
            ++i;
        return i;
    };

    std::string best;
    size_t best_prefix = 0;
    for (const auto &[name, bits] : constants) {
        bool same_scope =
            scope.empty() ? name.find("__") == std::string::npos
                          : name.rfind(scope, 0) == 0;
        if (!same_scope || bits.compare(Bits(64, value)) != 0)
            continue;
        std::string local =
            scope.empty() ? name : name.substr(scope.size());
        size_t prefix = common_prefix(local, local_var);
        if (best.empty() || prefix > best_prefix) {
            best = local;
            best_prefix = prefix;
        }
    }
    return best.empty() ? std::to_string(value) : best;
}

} // namespace hwdbg::core
