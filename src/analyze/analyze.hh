/**
 * @file
 * Dataflow static analysis over an elaborated design (`hwdbg analyze`).
 *
 * Where `hwdbg lint` pattern-matches local AST shapes, the analyze
 * framework computes whole-design dataflow facts — a known-bits
 * constant fixpoint across processes (fixpoint.hh), the signals each
 * process assigns on every path (mustAssign, context.hh), and the
 * signal dependency graph — and derives diagnostics from them:
 *
 *   const  dead logic: guards proven always-false/true, outputs or
 *          output bits stuck at a constant, signals that never reach
 *          an observable sink
 *   xinit  definite assignment: registers read before any assignment
 *          can reach them (X in four-state simulation)
 *   race   scheduler order dependence: blocking writes in clocked
 *          processes read by sibling same-clock processes, mixed
 *          blocking/nonblocking drivers, multi-process NBA drivers
 *   cdc    clock-domain crossings without a synchronizer stage
 *   loop   combinational loops (the same check as lint's comb-loop
 *          rule)
 *
 * The passes are the analyze preset of the one check registry
 * (context.hh): they share the lazily built facts, diagnostic sink and
 * run loop with the lint rules. The race pass's verdicts are
 * cross-examined dynamically by the fuzz process-permutation oracle
 * (fuzz/oracles.hh, Oracle::Order).
 */

#ifndef HWDBG_ANALYZE_ANALYZE_HH
#define HWDBG_ANALYZE_ANALYZE_HH

#include <set>
#include <string>
#include <vector>

#include "analyze/context.hh"
#include "hdl/ast.hh"

namespace hwdbg::analyze
{

/** The pass registry, in presentation order. */
const std::vector<Check> &analyzePasses();

/** Registry entry for @p id, or nullptr. */
const Check *passById(const std::string &id);

struct AnalyzeOptions
{
    /** Pass ids to run; empty means every registered pass. */
    std::set<std::string> passes;
};

/** Ids of the passes @p opts selects, in registry order, so a report's
 *  pass list does not depend on how the selection was spelled. */
std::vector<std::string> selectedPasses(const AnalyzeOptions &opts);

/**
 * Run the (selected) passes over an elaborated module and return the
 * diagnostics in stable (location, rule) order.
 */
std::vector<Diagnostic> runAnalyze(const hdl::Module &mod,
                                   const AnalyzeOptions &opts = {});

/**
 * Versioned report file ("hwdbg-analyze" version 1):
 *   {"format":"hwdbg-analyze","version":1,"build":{...},
 *    "passes":[...],"diagnostics":[...]}
 * Deterministic byte-for-byte for the same input and build.
 */
std::string renderAnalyzeJson(const std::vector<std::string> &passes,
                              const std::vector<Diagnostic> &diags);

/**
 * Check an hwdbg-analyze report against its schema (`hwdbg obscheck`):
 * exact field order, known pass ids, build provenance. Returns "" when
 * valid, else the first violation.
 */
std::string checkAnalyzeJson(const std::string &text);

} // namespace hwdbg::analyze

#endif // HWDBG_ANALYZE_ANALYZE_HH
