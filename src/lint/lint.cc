#include "lint/lint.hh"

#include "lint/rules.hh"

namespace hwdbg::lint
{

using analyze::Check;

const std::vector<Check> &
lintRules()
{
    // Each rule targets one Table 1 bug subclass from the paper's bug
    // study; the DESIGN.md lint section documents the mapping.
    static const std::vector<Check> rules = {
        {"incomplete-case",
         "case in a combinational process covers neither all selector "
         "values nor a default",
         checkIncompleteCase, Severity::Warning, "Incomplete Implementation"},
        {"inferred-latch",
         "combinational process leaves a target unassigned on some "
         "path, inferring a latch",
         checkInferredLatch, Severity::Warning, "Failure-to-Update"},
        {"blocking-in-seq",
         "blocking assignment inside a clocked process",
         checkBlockingInSeq, Severity::Warning, "Signal Asynchrony"},
        {"nonblocking-in-comb",
         "nonblocking assignment inside a combinational process",
         checkNonblockingInComb, Severity::Warning, "Signal Asynchrony"},
        {"width-trunc",
         "assignment silently truncates a wider value",
         checkWidthTruncation, Severity::Warning, "Bit Truncation"},
        {"multi-driven",
         "signal driven from more than one process or assignment",
         checkMultiDriven, Severity::Error, "Signal Asynchrony"},
        {"comb-loop",
         "zero-delay combinational feedback loop",
         analyze::checkCombLoop, Severity::Error, "Deadlock"},
        {"undriven",
         "signal is read (or exported) but nothing ever drives it",
         checkUndriven, Severity::Error, "Failure-to-Update"},
        {"unused-signal",
         "internal signal is driven but its value is never read",
         checkUnusedSignal, Severity::Warning, "Incomplete Implementation"},
        {"unused-input",
         "input port is never read",
         checkUnusedInput, Severity::Warning, "Incomplete Implementation"},
        {"fifo-no-backpressure",
         "FIFO request ignores the primitive's full/empty flag",
         checkFifoNoBackpressure, Severity::Error, "Buffer Overflow"},
        {"fsm-unreachable",
         "FSM state is unreachable from the reset state",
         checkFsmUnreachable, Severity::Warning, "Incomplete Implementation"},
        {"fsm-no-exit",
         "FSM state has no outgoing transition",
         checkFsmNoExit, Severity::Warning, "Deadlock"},
        {"sticky-flag",
         "flag set during operation is only ever cleared by reset",
         checkStickyFlag, Severity::Warning, "Failure-to-Update"},
        {"enable-deadlock",
         "flags that reset to 0 require each other to ever assert",
         checkEnableDeadlock, Severity::Error, "Deadlock"},
        {"handshake-drop",
         "valid deasserted without consulting ready",
         checkHandshakeDrop, Severity::Error, "Protocol Violation"},
        {"handshake-unstable",
         "data changes while valid is high and ready is low",
         checkHandshakeUnstable, Severity::Error, "Protocol Violation"},
    };
    return rules;
}

const Check *
ruleById(const std::string &id)
{
    return analyze::findCheck(lintRules(), id);
}

std::vector<Diagnostic>
runLint(const hdl::Module &mod, const LintOptions &opts)
{
    return analyze::runChecks("lint", "lint rule", lintRules(), opts.rules,
                              mod);
}

} // namespace hwdbg::lint
