/**
 * @file
 * LossCheck: precise data-loss localization (§4.5).
 *
 * Given a Source register (with its valid signal) and a Sink register,
 * LossCheck statically builds the propagation-relation table between
 * them, finds every register on a Source-to-Sink propagation sequence,
 * and instruments the design with shadow state per on-path register R:
 *
 *   A(R)  -- R is assigned this cycle (some relation into R fires);
 *   V(R)  -- R is assigned a *valid* value this cycle (the firing
 *            relation's source currently holds valid data, tracked by a
 *            per-register validity shadow register seeded from the
 *            Source's valid signal);
 *   P(R)  -- R propagates this cycle (some on-path relation out of R
 *            fires);
 *   N(R)  -- "needs propagation", Equation 1:
 *            N(R) <= V(R) | (N(R) & ~P(R));
 *
 * and the loss predicate, Equation 2:  A(R) & ~P(R) & N(R), which fires
 * a log message naming R as the precise location of a potential data
 * loss.
 *
 * False-positive filtering (§4.5.3): run the instrumented design on a
 * passing ("ground truth") workload first, collect the registers that
 * report loss there (intentional drops), and suppress them in the buggy
 * run. runLossCheck() packages that two-phase flow.
 */

#ifndef HWDBG_CORE_LOSSCHECK_HH
#define HWDBG_CORE_LOSSCHECK_HH

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "analyze/context.hh"
#include "sim/eval.hh"

namespace hwdbg::core
{

struct LossCheckOptions
{
    /** Source register or top-level input carrying the tracked data. */
    std::string source;
    /** Valid signal qualifying the Source (§2.3 valid interface). */
    std::string sourceValid;
    /** Sink register the data should eventually reach. */
    std::string sink;
};

struct LossCheckResult
{
    hdl::ModulePtr module;
    /** Stateful signals on some Source->Sink propagation sequence. */
    std::set<std::string> onPath;
    /** Registers actually instrumented with shadow state. */
    std::set<std::string> instrumented;
    int generatedLines = 0;
};

/** Instrument @p mod over the relations and dependency graph of
 *  @p facts (a Context over @p mod or over the base design it was
 *  instrumented from, as for applyFsmMonitor). */
LossCheckResult applyLossCheck(const hdl::Module &mod,
                               const analyze::Context &facts,
                               const LossCheckOptions &opts);

/** Registers reported as lossy in a log (deduplicated). */
std::set<std::string>
lossRegisters(const std::vector<sim::EvalContext::LogLine> &log);

/** Outcome of the two-phase (filtered) LossCheck flow. */
struct LossCheckReport
{
    /** Loss sites surviving false-positive filtering. */
    std::set<std::string> reported;
    /** Sites observed on the ground-truth run (intentional drops). */
    std::set<std::string> filtered;
    int generatedLines = 0;
};

/**
 * Run the full LossCheck flow: instrument the module of @p facts,
 * execute the ground-truth workload (a passing test) to learn
 * intentional drops, then execute the failing workload and report the
 * remaining loss sites. Each workload callback receives the
 * instrumented module, simulates it, and returns the log.
 */
LossCheckReport runLossCheck(
    const analyze::Context &facts, const LossCheckOptions &opts,
    const std::function<std::vector<sim::EvalContext::LogLine>(
        hdl::ModulePtr)> &ground_truth_workload,
    const std::function<std::vector<sim::EvalContext::LogLine>(
        hdl::ModulePtr)> &failing_workload);

} // namespace hwdbg::core

#endif // HWDBG_CORE_LOSSCHECK_HH
