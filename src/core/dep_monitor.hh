/**
 * @file
 * Dependency Monitor: provenance tracking for a variable (§4.3).
 *
 * Statically computes the registers a developer-specified variable may
 * depend on within the previous k cycles (through control and/or data
 * dependencies, traversing combinational logic freely and charging one
 * cycle per register crossing, with blackbox IPs handled through their
 * port dependency models), then instruments the design to log every
 * update to each register in the chain.
 */

#ifndef HWDBG_CORE_DEP_MONITOR_HH
#define HWDBG_CORE_DEP_MONITOR_HH

#include <map>
#include <string>
#include <vector>

#include "analyze/context.hh"
#include "sim/eval.hh"

namespace hwdbg::core
{

struct DepMonitorOptions
{
    /** Variable whose provenance is wanted. */
    std::string variable;
    /** Cycle horizon k. */
    int cycles = 4;
    bool followData = true;
    bool followControl = true;
};

struct DepMonitorResult
{
    hdl::ModulePtr module;
    /** Dependency chain: register -> minimum cycle distance. */
    std::map<std::string, int> chain;
    int generatedLines = 0;
};

/** Instrument @p mod with the chain of opts.variable in the dependency
 *  graph of @p facts (a Context over @p mod or over the base design it
 *  was instrumented from, as for applyFsmMonitor). */
DepMonitorResult applyDepMonitor(const hdl::Module &mod,
                                 const analyze::Context &facts,
                                 const DepMonitorOptions &opts);

/** One observed update of a monitored dependency. */
struct DepUpdate
{
    uint64_t cycle;
    std::string variable;
    /** New value, rendered in hex. */
    std::string value;
};

/** Extract Dependency Monitor updates from a log. */
std::vector<DepUpdate>
depUpdates(const std::vector<sim::EvalContext::LogLine> &log);

} // namespace hwdbg::core

#endif // HWDBG_CORE_DEP_MONITOR_HH
