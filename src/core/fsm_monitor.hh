/**
 * @file
 * FSM Monitor: automatic state-machine tracing (§4.2).
 *
 * Statically detects FSM state variables (analyze::Context::fsms()) and
 * instruments the design with logic that emits a log message on every
 * state change. After execution, fsmTrace() reconstructs per-FSM
 * state-transition traces from the log — a user-friendly abstraction of
 * the execution compared to a raw waveform. Developers can patch the
 * detector's mistakes by forcing extra state variables in or filtering
 * detected ones out (§4.2).
 */

#ifndef HWDBG_CORE_FSM_MONITOR_HH
#define HWDBG_CORE_FSM_MONITOR_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/context.hh"
#include "sim/eval.hh"

namespace hwdbg::core
{

struct FsmMonitorOptions
{
    /** Extra state variables the developer knows about (heuristic
     *  misses, e.g. two-process FSMs). */
    std::set<std::string> forceInclude;
    /** Detected variables to ignore for the current bug. */
    std::set<std::string> exclude;
    /**
     * Flattened-parameter values (ElabResult::constants); used to print
     * symbolic state names in traces.
     */
    std::map<std::string, Bits> constants;
};

struct FsmMonitorResult
{
    hdl::ModulePtr module;
    std::vector<analyze::FsmInfo> fsms;
    /** Monitored variables (detected + forced - excluded). */
    std::vector<std::string> monitored;
    int generatedLines = 0;
};

/**
 * Instrument @p mod, monitoring the FSMs of @p facts: a Context over
 * @p mod, or over the base design an earlier monitor instrumented into
 * @p mod (monitors read the facts of the design under debug, not of
 * each other's output).
 */
FsmMonitorResult applyFsmMonitor(const hdl::Module &mod,
                                 const analyze::Context &facts,
                                 const FsmMonitorOptions &opts = {});

/** One observed transition of a monitored FSM. */
struct FsmTraceEntry
{
    uint64_t cycle;
    std::string stateVar;
    uint64_t fromState;
    uint64_t toState;
};

/** Extract FSM Monitor transitions from a simulation/SignalCat log. */
std::vector<FsmTraceEntry>
fsmTrace(const std::vector<sim::EvalContext::LogLine> &log);

/** The last observed state per variable (the "where is it stuck" view).
 *  Variables that never transitioned are reported in state 0. */
std::map<std::string, uint64_t>
finalStates(const std::vector<FsmTraceEntry> &trace,
            const std::vector<std::string> &monitored);

/**
 * Render a state value symbolically using elaborated constants, e.g.
 * value 2 of "u_c__state" -> "WR_DATA" when some constant of that scope
 * equals 2. Falls back to the decimal value.
 */
std::string stateName(const std::string &state_var, uint64_t value,
                      const std::map<std::string, Bits> &constants);

} // namespace hwdbg::core

#endif // HWDBG_CORE_FSM_MONITOR_HH
