/**
 * @file
 * Per-process control-flow graph over statement trees.
 *
 * Each always block (and, degenerately, each continuous assignment)
 * lowers to a small CFG: straight-line statements become Stmt nodes,
 * if/case statements become a Branch node fanning out to one arm per
 * alternative and a Join node where the arms re-converge. The dataflow
 * passes (solver.hh) run forward analyses over this graph; guard
 * expressions for path feasibility come from analyze/guards.cc, which
 * walks the same trees.
 */

#ifndef HWDBG_ANALYZE_CFG_HH
#define HWDBG_ANALYZE_CFG_HH

#include <cstdint>
#include <vector>

#include "hdl/ast.hh"

namespace hwdbg::analyze
{

struct CfgNode
{
    enum class Kind { Entry, Exit, Stmt, Branch, Join };
    Kind kind = Kind::Stmt;

    /**
     * The statement this node executes or branches on: Assign, Display,
     * Finish or Null for Stmt nodes; If or Case for Branch nodes; null
     * for Entry/Exit/Join.
     */
    const hdl::Stmt *stmt = nullptr;

    std::vector<uint32_t> succs;
    std::vector<uint32_t> preds;
};

struct Cfg
{
    std::vector<CfgNode> nodes;
    /** Always nodes[0]. */
    uint32_t entry = 0;
    /** Always nodes[1]; reachable from every path end. */
    uint32_t exit = 1;
    /** Owning process (null when built from a bare statement). */
    const hdl::AlwaysItem *proc = nullptr;
};

/** Build the CFG of one process body. */
Cfg buildCfg(const hdl::AlwaysItem &proc);

/** Build the CFG of a bare statement tree (tests, tools). */
Cfg buildCfg(const hdl::StmtPtr &body);

/**
 * Node indices in reverse post-order from the entry: every node appears
 * after all of its non-back-edge predecessors, the order a forward
 * solver should visit. The graphs are acyclic by construction (no loops
 * in the statement subset), so this is a topological order.
 */
std::vector<uint32_t> rpoOrder(const Cfg &cfg);

} // namespace hwdbg::analyze

#endif // HWDBG_ANALYZE_CFG_HH
