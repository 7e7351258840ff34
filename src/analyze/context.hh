/**
 * @file
 * The one static-analysis context shared by `hwdbg lint` and
 * `hwdbg analyze`: a lazily built fact store over an elaborated module,
 * the diagnostic sink, the check registry type, and the run loop.
 *
 * Lint rules and analyze passes are both Checks, entries of a preset
 * table (lint::lintRules(), analyze::analyzePasses()) that runChecks()
 * executes over one Context. Every fact is built on its first use and
 * then shared by the later checks of the run, so a run pays only for
 * the facts its selected checks read:
 *
 *   signals()     declarations: widths, kinds, directions, locations,
 *                 declaration order
 *   graph()       the signal dependency graph
 *   assigns()     every guarded assignment, in module order
 *   fsms()        detected state machines
 *   fixpoint()    the known-bits constant fixpoint over assigns()
 *   isRead() / driversOf()   the module-wide read/drive census
 *   procReads()   per-process read sets
 *   isResetName() / isClockName() / isResetBranchGuard()
 *                 reset and clock names and the reset polarity
 */

#ifndef HWDBG_ANALYZE_CONTEXT_HH
#define HWDBG_ANALYZE_CONTEXT_HH

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/depgraph.hh"
#include "analysis/fsm_detect.hh"
#include "analysis/guards.hh"
#include "analyze/diagnostic.hh"
#include "analyze/domain.hh"
#include "analyze/fixpoint.hh"
#include "hdl/ast.hh"

namespace hwdbg::analyze
{

class Context;

/** One registry entry: a lint rule or an analyze pass. */
struct Check
{
    std::string id;
    std::string description;
    void (*run)(Context &ctx) = nullptr;
    /** What Context::report(loc, ...) stamps on the check's findings.
     *  Passes that emit several rule ids report whole diagnostics. */
    Severity severity = Severity::Warning;
    std::string subclass = {};
};

/** The entry of @p table named @p id, or nullptr. */
const Check *findCheck(const std::vector<Check> &table,
                       const std::string &id);

/**
 * Run the checks of @p table that @p selected names (all when empty)
 * over @p mod, in table order, and return the diagnostics in stable
 * (location, rule) order. An unknown id is an HdlError
 * "unknown <what> 'id'". Records a @p preset span with one
 * "<preset>.<id>" span per check, and when metrics are on the
 * "<preset>.runs", "<preset>.diagnostics" and "<preset>.hits.<rule>"
 * counters.
 */
std::vector<Diagnostic> runChecks(const std::string &preset,
                                  const char *what,
                                  const std::vector<Check> &table,
                                  const std::set<std::string> &selected,
                                  const hdl::Module &mod);

/** One driving site of a signal, for multi-drive reporting. */
struct DriverSite
{
    /** The always block, continuous assign, or instance. */
    const hdl::Item *item = nullptr;
    hdl::SourceLoc loc;
};

/**
 * Signals @p stmt itself reads, nested statements excluded: branch
 * and case conditions and labels, assignment right-hand sides, lvalue
 * indices and part-select bounds, and $display arguments. A
 * self-indexed lvalue such as `a[a]` reads `a`.
 */
void stmtReads(const hdl::Stmt &stmt, std::set<std::string> &out);

/** Call @p fn on @p stmt and every statement nested in it. */
void forEachStmt(const hdl::StmtPtr &stmt,
                 const std::function<void(const hdl::Stmt &)> &fn);

/** Flatten a guard's && tree into its conjuncts. */
std::vector<hdl::ExprPtr> conjuncts(const hdl::ExprPtr &expr);

/** True when @p expr references @p name anywhere. */
bool mentions(const hdl::ExprPtr &expr, const std::string &name);

class Context
{
  public:
    explicit Context(const hdl::Module &mod);

    const hdl::Module &module() const { return *mod_; }
    const SignalTable &signals();
    const analysis::DepGraph &graph();
    const std::vector<analysis::GuardedAssign> &assigns();
    const std::vector<analysis::FsmInfo> &fsms();
    /** Known-bits fixpoint; its per-assign vectors index assigns(). */
    const ConstFixpoint &fixpoint();

    /** Declaration location of @p name (module location fallback). */
    hdl::SourceLoc declLoc(const std::string &name);

    /** True when the signal's value is read anywhere in the module
     *  (expressions, guards, lvalue indices, instance inputs, or a
     *  sensitivity list). Output ports are not implicitly "read". */
    bool isRead(const std::string &name);
    /** Driving sites (always blocks, assigns, instance outputs). */
    const std::vector<DriverSite> &driversOf(const std::string &name);
    /** Signals read anywhere inside @p proc (stmtReads over its body). */
    const std::set<std::string> &procReads(const hdl::AlwaysItem *proc);

    /** Inputs named like a reset. */
    bool isResetName(const std::string &name);
    /** Signals named like a clock, and every sensitivity signal. */
    bool isClockName(const std::string &name);
    /**
     * True when the guard selects the reset branch of a process: it
     * has a conjunct asserting a reset signal with the polarity the
     * design actually resets on (a bare `rst` conjunct for active-high
     * designs, `!rst_n` for active-low ones). Guards that merely carry
     * the negated reset (every non-reset branch does) return false.
     */
    bool isResetBranchGuard(const hdl::ExprPtr &guard);

    /** Make @p check the running check report(loc, ...) stamps. */
    void beginCheck(const Check &check) { current_ = &check; }
    /** Report a finding of the running check, stamped with its id,
     *  severity and subclass. */
    void report(const hdl::SourceLoc &loc, std::string message,
                std::vector<std::string> signals = {});
    /** Report a finding under an explicit rule. */
    void report(std::string rule, Severity severity, std::string subclass,
                const hdl::SourceLoc &loc, std::string message,
                std::vector<std::string> signals);
    /** Sorted diagnostics accumulated so far (consumes them). */
    std::vector<Diagnostic> take();

  private:
    struct Census
    {
        std::set<std::string> reads;
        std::map<std::string, std::vector<DriverSite>> drivers;
    };
    const Census &census();
    const std::set<std::string> &resets();
    const std::set<std::string> &clocks();

    const hdl::Module *mod_;
    const Check *current_ = nullptr;
    std::optional<SignalTable> sigs_;
    std::optional<analysis::DepGraph> graph_;
    std::optional<std::vector<analysis::GuardedAssign>> assigns_;
    std::optional<std::vector<analysis::FsmInfo>> fsms_;
    std::optional<ConstFixpoint> fix_;
    std::optional<Census> census_;
    std::map<const hdl::AlwaysItem *, std::set<std::string>> procReads_;
    std::optional<std::set<std::string>> resets_;
    /** Resets asserted as a bare positive guard conjunct somewhere. */
    std::optional<std::set<std::string>> activeHighResets_;
    std::optional<std::set<std::string>> clocks_;
    std::vector<Diagnostic> diags_;
};

/** The comb-loop check: lint's `comb-loop` rule and analyze's `loop`
 *  pass, reported under rule id "comb-loop". */
void checkCombLoop(Context &ctx);

} // namespace hwdbg::analyze

#endif // HWDBG_ANALYZE_CONTEXT_HH
