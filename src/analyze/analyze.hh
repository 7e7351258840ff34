/**
 * @file
 * Dataflow static analysis over an elaborated design (`hwdbg analyze`).
 *
 * Where `hwdbg lint` pattern-matches local AST shapes, the analyze
 * framework computes whole-design dataflow facts — a known-bits
 * constant fixpoint across processes (fixpoint.hh), per-process
 * must-assign solutions over statement CFGs (cfg.hh/solver.hh), and
 * the signal dependency graph — and derives diagnostics from them:
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
 *   loop   combinational loops (shared emitter with lint; identical
 *          findings dedupe)
 *
 * Diagnostics reuse the lint severity/rendering infrastructure; the
 * race pass's verdicts are cross-examined dynamically by the fuzz
 * process-permutation oracle (fuzz/oracles.hh, Oracle::Order).
 */

#ifndef HWDBG_ANALYZE_ANALYZE_HH
#define HWDBG_ANALYZE_ANALYZE_HH

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/depgraph.hh"
#include "analyze/domain.hh"
#include "analyze/fixpoint.hh"
#include "hdl/ast.hh"
#include "lint/diagnostic.hh"

namespace hwdbg::analyze
{

class AnalyzeContext;

struct AnalyzePass
{
    std::string id;
    std::string description;
    void (*run)(AnalyzeContext &ctx) = nullptr;
};

/** The pass registry, in presentation order. */
const std::vector<AnalyzePass> &analyzePasses();

/** Registry entry for @p id, or nullptr. */
const AnalyzePass *passById(const std::string &id);

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
std::vector<lint::Diagnostic> runAnalyze(const hdl::Module &mod,
                                         const AnalyzeOptions &opts = {});

/**
 * Versioned report file ("hwdbg-analyze" version 1):
 *   {"format":"hwdbg-analyze","version":1,"build":{...},
 *    "passes":[...],"diagnostics":[...]}
 * Deterministic byte-for-byte for the same input and build.
 */
std::string renderAnalyzeJson(const std::vector<std::string> &passes,
                              const std::vector<lint::Diagnostic> &diags);

/**
 * Validate an hwdbg-analyze JSON report (`hwdbg obscheck`). Returns ""
 * when valid, else the first violation.
 */
std::string checkAnalyzeJson(const std::string &text);

/**
 * Shared facts the passes read: signal table, dependency graph,
 * constant fixpoint, and per-process read sets, each computed once on
 * first use.
 */
class AnalyzeContext
{
  public:
    explicit AnalyzeContext(const hdl::Module &mod);
    ~AnalyzeContext();

    const hdl::Module &module() const { return *mod_; }
    const SignalTable &signals() const { return sigs_; }
    const analysis::DepGraph &graph();
    const ConstFixpoint &fixpoint();

    /**
     * Signals read anywhere inside @p proc: assignment right-hand
     * sides, branch and case conditions, $display arguments, and
     * lvalue index expressions.
     */
    const std::set<std::string> &procReads(const hdl::AlwaysItem *proc);

    /** Declaration location of @p name (module location fallback). */
    hdl::SourceLoc declLoc(const std::string &name) const;

    void report(lint::Diagnostic diag);
    /** Sorted diagnostics accumulated so far (consumes them). */
    std::vector<lint::Diagnostic> take();

  private:
    const hdl::Module *mod_;
    SignalTable sigs_;
    std::unique_ptr<analysis::DepGraph> graph_;
    std::unique_ptr<ConstFixpoint> fix_;
    std::map<const hdl::AlwaysItem *, std::set<std::string>> reads_;
    std::vector<lint::Diagnostic> diags_;
};

} // namespace hwdbg::analyze

#endif // HWDBG_ANALYZE_ANALYZE_HH
