/**
 * @file
 * The one fact store per module, and the check run loop `hwdbg lint`
 * and `hwdbg analyze` share.
 *
 * Every static fact any tool reads about a module comes from the one
 * Context over it, built on first use and shared by every later reader
 * (checks, monitors, the debugger, serve sessions, the estimators and
 * the bytecode lowerer):
 *
 *   signals()    declarations: widths, kinds, directions, locations,
 *                declaration order
 *   assigns()    every guarded assignment, in module order
 *   assignsOf()  each target's assignments, as indices into assigns()
 *   displays()   every $display in a clocked process, with its guard
 *   graph()      the signal dependency graph (over assigns())
 *   fsms()       detected state machines (over assigns())
 *   relations()  register propagation relations (over graph())
 *   fixpoint()   the known-bits constant fixpoint (over assigns())
 *   wires()      each singly driven wire's defining expression
 *
 * A module never changes once a Context exists over it (instrumentation
 * makes a new module, with its own Context), so facts are never
 * invalidated. The fact accessors are const and thread-safe: each fact
 * is built under its own std::once_flag, later reads take no lock, and
 * each build counts in "analyze.fact.<name>.builds". The non-const rest
 * (the census, reset and clock names, the diagnostic sink) serves one
 * single-threaded runChecks() run of a preset table (lint::lintRules(),
 * analyze::analyzePasses()).
 */

#ifndef HWDBG_ANALYZE_CONTEXT_HH
#define HWDBG_ANALYZE_CONTEXT_HH

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analyze/diagnostic.hh"
#include "analyze/domain.hh"
#include "analyze/facts.hh"
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

/** Called per statement with the signals assigned before it. */
using MustAssignVisit = std::function<void(
    const hdl::Stmt &, const std::set<std::string> &assigned)>;

/**
 * Signals assigned on every path through @p stmt, given @p assigned
 * already assigned on entry. Any write, full or partial, counts. An
 * `if` yields the intersection of its arms (a missing else arm
 * assigns nothing); a `case` the intersection of its arms, with
 * @p assigned joining it when there is no default. The statement
 * subset has no loops, so one walk over the tree is exact.
 *
 * @p visit, when set, is called at each non-block statement in source
 * pre-order with the signals assigned before that statement.
 */
std::set<std::string> mustAssign(const hdl::StmtPtr &stmt,
                                 std::set<std::string> assigned,
                                 const MustAssignVisit &visit = {});

/** Flatten a guard's && tree into its conjuncts. */
std::vector<hdl::ExprPtr> conjuncts(const hdl::ExprPtr &expr);

/** True when @p expr references @p name anywhere. */
bool mentions(const hdl::ExprPtr &expr, const std::string &name);

class Context
{
  public:
    explicit Context(const hdl::Module &mod);

    const hdl::Module &module() const { return *mod_; }
    const SignalTable &signals() const;
    const std::vector<GuardedAssign> &assigns() const;
    /** Target -> indices into assigns() of its assignments. */
    const AssignIndex &assignsOf() const;
    const std::vector<GuardedDisplay> &displays() const;
    const DepGraph &graph() const;
    const std::vector<FsmInfo> &fsms() const;
    const RelationTable &relations() const;
    /** Known-bits fixpoint; its per-assign vectors index assigns(). */
    const ConstFixpoint &fixpoint() const;
    /** Wire name -> its single driving expression (wireDefinitions). */
    const std::map<std::string, hdl::ExprPtr> &wires() const;

    /** Declaration location of @p name (module location fallback). */
    hdl::SourceLoc declLoc(const std::string &name) const;

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
    /** One lazily built fact: built once, under its flag. */
    template <typename T>
    struct Fact
    {
        std::once_flag once;
        std::optional<T> value;
    };
    template <typename T, typename Build>
    const T &get(Fact<T> &fact, const char *name, Build build) const;

    struct Census
    {
        std::set<std::string> reads;
        std::map<std::string, std::vector<DriverSite>> drivers;
    };
    const Census &census();
    const std::set<std::string> &resets();
    const std::set<std::string> &clocks();

    const hdl::Module *mod_;
    mutable Fact<SignalTable> sigs_;
    mutable Fact<std::vector<GuardedAssign>> assigns_;
    mutable Fact<AssignIndex> assignsOf_;
    mutable Fact<std::vector<GuardedDisplay>> displays_;
    mutable Fact<DepGraph> graph_;
    mutable Fact<std::vector<FsmInfo>> fsms_;
    mutable Fact<RelationTable> relations_;
    mutable Fact<ConstFixpoint> fix_;
    mutable Fact<std::map<std::string, hdl::ExprPtr>> wires_;

    const Check *current_ = nullptr;
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
