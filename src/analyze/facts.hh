/**
 * @file
 * The facts an analyze::Context builds over a module, and their
 * builders. Read them through the Context (context.hh), which builds
 * each one once per module.
 *
 * Path constraints (guards.cc). For every assignment and $display, the
 * structural path constraint under which it executes: the conjunction
 * of enclosing if-conditions and case-label matches (with earlier
 * labels negated for later items and for the default). This is the
 * path-constraint notion SignalCat uses for debugging statements (§4.1)
 * and LossCheck uses for propagation-relation conditions (§4.5.1).
 *
 * Dependency graph (depgraph.cc). Nodes are signal names; edges record
 * data dependencies (RHS signal -> assigned signal) and control
 * dependencies (guard signal -> assigned signal). Sequential edges
 * (nonblocking assignments in clocked processes) cost one cycle;
 * combinational edges (continuous assigns and always @* blocks) are
 * free. Blackbox primitives contribute edges from their
 * developer-provided port dependency models, exactly as Dependency
 * Monitor and LossCheck require for closed-source IPs (§4.3, §4.5.1).
 *
 * FSM detection (fsm_detect.cc, FSM Monitor §4.2). A register is an FSM
 * state variable when it matches the paper's code-pattern heuristics:
 *  - every assignment to it is a nonblocking assignment in a clocked
 *    process and assigns the whole register;
 *  - every assigned value is a constant (state encoding) or the
 *    register itself;
 *  - at least one assignment's path constraint tests the register
 *    (case (state) / if (state == ...));
 *  - the design never applies arithmetic to the register and never
 *    selects individual bits of it.
 * The heuristics can miss FSMs (e.g. two-process styles where the next
 * state comes through a wire) and are scored against hand labels in the
 * evaluation, mirroring the paper's 0 false positives / 5 false
 * negatives on 32 FSMs.
 *
 * Propagation relations (relations.cc, LossCheck §4.5.1). A relation
 * X ~>[cond] Y means the value stored in stateful signal X propagates
 * into stateful signal Y at the next cycle whenever cond holds at the
 * current cycle. Relations come from nonblocking assignments in clocked
 * processes (with combinational wires traced back to their stateful
 * sources) and from blackbox IP models (e.g. a FIFO's data input
 * propagates to its q output when wrreq && !full).
 */

#ifndef HWDBG_ANALYZE_FACTS_HH
#define HWDBG_ANALYZE_FACTS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bits.hh"
#include "hdl/ast.hh"

namespace hwdbg::analyze
{

class Context;
class SignalTable;

// ------------------------------------------------------- expressions

/** All signal names referenced by @p expr. */
std::set<std::string> collectSignals(const hdl::ExprPtr &expr);

/** Base signal names written by an lvalue (Id/Index/Range/Concat). */
std::set<std::string> lvalueTargets(const hdl::ExprPtr &lhs);

/**
 * Map from wire name to its single driving expression, built from the
 * module's continuous assignments. Wires driven through part selects,
 * concat lvalues, or multiple assigns are omitted (treated as opaque).
 * Read it through Context::wires().
 */
std::map<std::string, hdl::ExprPtr>
wireDefinitions(const hdl::Module &mod);

// -------------------------------------------------- path constraints

/** An assignment together with its structural path constraint. */
struct GuardedAssign
{
    hdl::ExprPtr lhs;
    hdl::ExprPtr rhs;
    /** Path constraint; literal 1'b1 for unconditional assignments. */
    hdl::ExprPtr guard;
    /** True for nonblocking assignments in clocked processes (the
     *  assignment takes effect at the next cycle). */
    bool sequential = false;
    /** Clock signal of the owning process (empty for combinational). */
    std::string clock;
    /** Owning process; null for continuous assignments. */
    const hdl::AlwaysItem *proc = nullptr;
    /** The statement; null for continuous assignments. */
    const hdl::AssignStmt *stmt = nullptr;
    const hdl::ContAssignItem *cont = nullptr;
};

/** A $display together with its structural path constraint. */
struct GuardedDisplay
{
    const hdl::DisplayStmt *stmt = nullptr;
    hdl::ExprPtr guard;
    std::string clock;
    const hdl::AlwaysItem *proc = nullptr;
};

/** Every assignment in the module (procedural and continuous); read
 *  it through Context::assigns(). */
std::vector<GuardedAssign> collectAssigns(const hdl::Module &mod);

/** Assignment target -> indices into the assignment list of the
 *  assignments that write it, in list order. */
using AssignIndex = std::map<std::string, std::vector<size_t>>;

/** Index @p assigns by target; read it through Context::assignsOf(). */
AssignIndex indexAssigns(const std::vector<GuardedAssign> &assigns);

/** Every $display in a clocked process; read it through
 *  Context::displays(). */
std::vector<GuardedDisplay> collectDisplays(const hdl::Module &mod);

/** Clock of a clocked process (first posedge sensitivity item). */
std::string processClock(const hdl::AlwaysItem &proc);

// -------------------------------------------------- dependency graph

enum class DepKind { Comb, Seq };

struct DepEdge
{
    std::string src;
    std::string dst;
    DepKind kind = DepKind::Comb;
    /** False for control dependencies (src appears in the guard). */
    bool isData = true;
    /** Structural condition under which the dependency is active. */
    hdl::ExprPtr cond;
    /** True when contributed by a blackbox IP model. */
    bool viaIp = false;
    std::string ipInstance;
};

class DepGraph
{
  public:
    /** Built by Context::graph(), over the Context's assigns() and
     *  signals(). */
    explicit DepGraph(const Context &facts);

    const std::vector<DepEdge> &edges() const { return edges_; }
    std::vector<const DepEdge *> edgesInto(const std::string &name) const;
    std::vector<const DepEdge *> edgesOutOf(const std::string &name) const;

    /** True when the signal is a register (reg declaration). */
    bool isReg(const std::string &name) const;
    /** True when the signal is a top-level input port. */
    bool isInput(const std::string &name) const;
    /** True when the signal is driven by a primitive output port. */
    bool isIpOutput(const std::string &name) const;
    /**
     * True for relation endpoints: registers, top-level inputs, and
     * primitive outputs (state-holding or externally-produced values).
     */
    bool isStateful(const std::string &name) const;

    /**
     * Stateful signals that combinationally feed @p name (following
     * comb edges backwards through wires). If @p name itself is
     * stateful, returns {name}.
     */
    std::set<std::string> statefulSources(const std::string &name) const;

    /**
     * Combinational cycles: strongly connected components of the
     * subgraph restricted to Comb edges (data and control), plus
     * single-node self-loops. Each cycle lists its members in a
     * deterministic order; the cycle list itself is sorted by first
     * member. A zero-delay loop like this oscillates or deadlocks in
     * hardware, so the linter reports every occurrence.
     */
    std::vector<std::vector<std::string>> combCycles() const;

    /**
     * Registers in the dependency chain of @p name within @p cycles
     * sequential steps, following both data and control dependencies
     * (configurable). Includes @p name itself when it is a register.
     * Result maps register name -> minimum cycle distance.
     */
    std::map<std::string, int>
    backwardSlice(const std::string &name, int cycles, bool follow_data,
                  bool follow_control) const;

  private:
    void addAssignEdges(const GuardedAssign &ga);
    void addIpEdges(const hdl::InstanceItem &inst);

    const SignalTable *sigs_;
    std::vector<DepEdge> edges_;
    std::map<std::string, std::vector<size_t>> into_;
    std::map<std::string, std::vector<size_t>> outOf_;
    std::set<std::string> ipOutputs_;
};

// ----------------------------------------------------- FSM detection

/** One detected state transition: fromState --cond--> toState. */
struct FsmTransition
{
    /** Absent when the transition applies from any state. */
    std::optional<Bits> fromState;
    Bits toState;
    hdl::ExprPtr cond;
};

struct FsmInfo
{
    std::string stateVar;
    std::string clock;
    std::vector<Bits> states;
    std::vector<FsmTransition> transitions;
};

/**
 * Heuristic switches, all on by default. The fsm_heuristics ablation
 * bench disables them one at a time to measure each one's contribution
 * to the detector's precision/recall.
 */
struct FsmDetectOptions
{
    /** Exclude registers the design does arithmetic on (counters). */
    bool excludeArithmetic = true;
    /** Exclude registers whose bits are individually selected. */
    bool excludeBitSelect = true;
    /** Exclude registers used in ordered (< <= > >=) comparisons. */
    bool excludeOrderedCompare = true;
    /** Require some assignment's guard to test the register itself. */
    bool requireSelfTest = true;
    /** Require every assigned value to be a constant (or the register
     *  itself). */
    bool requireConstantRhs = true;
    /** Exclude single-bit registers (valid/toggle flags). */
    bool minWidthTwo = true;
};

/**
 * Detect FSM state variables in the Context's module, over its
 * assigns(). Context::fsms() is this with the default options; the
 * heuristic ablation bench varies them.
 */
std::vector<FsmInfo> detectFsms(const Context &facts,
                                const FsmDetectOptions &opts = {});

// --------------------------------------------- propagation relations

struct PropRelation
{
    std::string src;
    std::string dst;
    /** Condition under which the propagation happens (may reference
     *  combinational wires of the design). */
    hdl::ExprPtr cond;
    bool viaIp = false;
    std::string clock;
    /** When dst is a memory written as dst[i] <= ...: the index i. */
    hdl::ExprPtr dstIndex;
    /** When src is a memory read as src[j]: the index j. */
    hdl::ExprPtr srcIndex;
};

class RelationTable
{
  public:
    /** Built by Context::relations(), over the Context's assigns()
     *  and graph(). */
    explicit RelationTable(const Context &facts);

    const std::vector<PropRelation> &relations() const { return rels_; }

    std::vector<const PropRelation *> into(const std::string &dst) const;
    std::vector<const PropRelation *> outOf(const std::string &src) const;

    /**
     * The stateful signals on any propagation sequence from @p src to
     * @p sink (inclusive). Empty when the sink is unreachable.
     */
    std::set<std::string> propagationPath(const std::string &src,
                                          const std::string &sink) const;

    /** True when the signal is a memory (reg array). */
    bool isMemory(const std::string &name) const
    {
        return memories_.count(name) != 0;
    }

    /** Number of elements of a memory. */
    uint64_t memorySize(const std::string &name) const;

  private:
    void addIpRelations(const hdl::InstanceItem &inst,
                        const DepGraph &graph);

    std::vector<PropRelation> rels_;
    std::map<std::string, uint64_t> memories_;
};

} // namespace hwdbg::analyze

#endif // HWDBG_ANALYZE_FACTS_HH
