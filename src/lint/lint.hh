/**
 * @file
 * Static lint over the elaborated Verilog AST.
 *
 * The linter is the pattern-rule preset of the one check registry
 * (analyze/context.hh): each rule statically matches one of the code
 * patterns the paper's Table 1 bug study found in real FPGA projects
 * (inferred latches, multiple drivers, combinational loops, dead FSM
 * states, bit truncation, sticky flags, circular enables, FIFO pushes
 * without backpressure, and valid/ready handshake violations). Running
 * the linter before simulation complements the dynamic tools
 * (SignalCat, the monitors, LossCheck): the rules flag the bug
 * pattern, the dynamic tools then localize the failing instance.
 */

#ifndef HWDBG_LINT_LINT_HH
#define HWDBG_LINT_LINT_HH

#include <set>
#include <string>
#include <vector>

#include "analyze/context.hh"
#include "hdl/ast.hh"

namespace hwdbg::lint
{

using analyze::Diagnostic;
using analyze::hasErrors;
using analyze::renderJson;
using analyze::renderText;
using analyze::Severity;
using analyze::severityName;

/** The full rule registry, in presentation order. */
const std::vector<analyze::Check> &lintRules();

/** Registry entry for @p id, or nullptr. */
const analyze::Check *ruleById(const std::string &id);

struct LintOptions
{
    /** Rule ids to run; empty means every registered rule. */
    std::set<std::string> rules;
};

/**
 * Run the (selected) rules over an elaborated module and return the
 * diagnostics in stable (location, rule) order.
 */
std::vector<Diagnostic> runLint(const hdl::Module &mod,
                                const LintOptions &opts = {});

} // namespace hwdbg::lint

#endif // HWDBG_LINT_LINT_HH
