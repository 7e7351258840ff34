/**
 * @file
 * Shared infrastructure for the AST-instrumentation passes.
 *
 * Each debugging tool works on a copy of the elaborated module, adds
 * declarations / assigns / clocked logic through an InstrumentBuilder,
 * and reports how much Verilog it generated (the paper evaluates tools
 * partly by the lines of analysis code they write for the developer,
 * §6.3).
 */

#ifndef HWDBG_CORE_INSTRUMENT_HH
#define HWDBG_CORE_INSTRUMENT_HH

#include <string>
#include <vector>

#include "hdl/ast.hh"

namespace hwdbg::core
{

/** Clock driving the design's first clocked process ("clk" fallback). */
std::string designClock(const hdl::Module &mod);

class InstrumentBuilder
{
  public:
    /** Start instrumenting a deep copy of @p original. */
    explicit InstrumentBuilder(const hdl::Module &original);

    hdl::ModulePtr module() { return mod_; }

    /** A fresh identifier with the given prefix. */
    std::string fresh(const std::string &prefix);

    void addReg(const std::string &name, uint32_t width);
    void addWire(const std::string &name, uint32_t width);
    void addAssign(hdl::ExprPtr lhs, hdl::ExprPtr rhs);

    /** Queue statements for the generated always @(posedge clock). */
    void addClockedStmt(const std::string &clock, hdl::StmtPtr stmt);

    /** Materialize queued clocked blocks into the module. */
    void finish();

    /**
     * Lines of Verilog added relative to the original module. Counting
     * prints the result once; a pass that instruments that result, as
     * it was returned, reuses the count for its original.
     */
    int generatedLines() const;

  private:
    hdl::ModulePtr mod_;
    int originalLines_;
    int counter_ = 0;
    std::vector<std::pair<std::string, std::vector<hdl::StmtPtr>>>
        clockedStmts_;
    bool finished_ = false;
};

} // namespace hwdbg::core

#endif // HWDBG_CORE_INSTRUMENT_HH
