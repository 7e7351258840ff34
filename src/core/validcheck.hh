/**
 * @file
 * ValidCheck: use-without-valid detection.
 *
 * An extension built on LossCheck's data-propagation machinery, in the
 * direction the paper's §7 suggests ("the core data propagation logic
 * of LossCheck could be generalized and adapted to other sophisticated
 * FPGA debugging tools"): it targets the use-without-valid subclass of
 * the bug study (§3.3.4), where a data signal guarded by a valid
 * interface is consumed while the valid signal is low, e.g.
 *
 *     sum <= sum + data;          // data_valid ignored
 *
 * For each (data, valid) pair the developer names, ValidCheck finds
 * every assignment whose right-hand side reads the data signal and
 * instruments the design to report uses whose path constraint can fire
 * while valid is low.
 */

#ifndef HWDBG_CORE_VALIDCHECK_HH
#define HWDBG_CORE_VALIDCHECK_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/context.hh"
#include "sim/eval.hh"

namespace hwdbg::core
{

/** A data signal and the valid signal qualifying it (§2.3). */
struct ValidPair
{
    std::string data;
    std::string valid;
};

struct ValidCheckOptions
{
    std::vector<ValidPair> pairs;
};

struct ValidCheckResult
{
    hdl::ModulePtr module;
    /** Number of data-signal uses instrumented per pair (data name ->
     *  use count), the static half of the analysis. */
    std::map<std::string, int> usesInstrumented;
    int generatedLines = 0;
};

/** Instrument the module of @p facts, over its assigns(). */
ValidCheckResult applyValidCheck(const analyze::Context &facts,
                                 const ValidCheckOptions &opts);

/** One reported use-without-valid occurrence. */
struct InvalidUse
{
    uint64_t cycle;
    /** Data signal consumed while invalid. */
    std::string data;
    /** Register the invalid value flowed into. */
    std::string target;
};

/** Extract ValidCheck reports from a log (deduplicated by target). */
std::vector<InvalidUse>
invalidUses(const std::vector<sim::EvalContext::LogLine> &log);

} // namespace hwdbg::core

#endif // HWDBG_CORE_VALIDCHECK_HH
