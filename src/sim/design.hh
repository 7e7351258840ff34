/**
 * @file
 * Lowering of an elaborated (flat) module into simulator tables.
 *
 * Lowering builds the signal table, resolves every identifier reference to
 * a signal index, computes self-determined expression widths (stored in
 * Expr::width), and partitions module items into continuous assigns,
 * clocked processes, combinational processes, and primitive instances.
 */

#ifndef HWDBG_SIM_DESIGN_HH
#define HWDBG_SIM_DESIGN_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "hdl/ast.hh"

namespace hwdbg::sim
{

struct SignalInfo
{
    std::string name;
    uint32_t width = 1;
    bool isReg = false;
    /** Number of memory elements; 0 for scalar signals. */
    uint32_t arraySize = 0;
    hdl::PortDir dir = hdl::PortDir::None;
};

class LoweredDesign
{
  public:
    /** Lower @p mod; mutates the AST (width/resolution annotations). */
    explicit LoweredDesign(hdl::ModulePtr mod);

    const hdl::Module &module() const { return *mod_; }
    hdl::ModulePtr modulePtr() const { return mod_; }

    int signalId(const std::string &name) const;
    /** signalId() that raises HdlError when the name is unknown. */
    int requireSignal(const std::string &name) const;

    const SignalInfo &info(int id) const { return signals_[id]; }
    size_t numSignals() const { return signals_.size(); }

    const std::vector<hdl::ContAssignItem *> &assigns() const
    {
        return assigns_;
    }
    const std::vector<hdl::AlwaysItem *> &clockedProcs() const
    {
        return clocked_;
    }
    const std::vector<hdl::AlwaysItem *> &combProcs() const
    {
        return comb_;
    }
    const std::vector<hdl::InstanceItem *> &prims() const { return prims_; }

    /**
     * Annotate widths and resolve identifiers in an expression created
     * after lowering (tools build such expressions for analysis).
     * @return the self-determined width.
     */
    uint32_t annotateExpr(const hdl::ExprPtr &expr) const;

  private:
    void collectSignals();
    void annotateStmt(const hdl::StmtPtr &stmt);
    void checkLValue(const hdl::ExprPtr &lhs, bool in_clocked);

    hdl::ModulePtr mod_;
    std::vector<SignalInfo> signals_;
    std::unordered_map<std::string, int> byName_;
    std::vector<hdl::ContAssignItem *> assigns_;
    std::vector<hdl::AlwaysItem *> clocked_;
    std::vector<hdl::AlwaysItem *> comb_;
    std::vector<hdl::InstanceItem *> prims_;
};

} // namespace hwdbg::sim

#endif // HWDBG_SIM_DESIGN_HH
