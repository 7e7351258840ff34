/**
 * @file
 * Expression evaluation and lvalue stores over simulator state.
 *
 * Widths follow the Verilog context-determined rules: the evaluation
 * context width (the assignment target / enclosing operator width) is
 * pushed down through arithmetic, bitwise, shift-left, and conditional
 * operands, while comparisons, concatenations, selects and reductions are
 * self-determined boundaries.
 */

#ifndef HWDBG_SIM_EVAL_HH
#define HWDBG_SIM_EVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/design.hh"

namespace hwdbg::sim
{

class CoverageCollector;

/** Mutable simulator state shared by processes and primitives. */
struct EvalContext
{
    explicit EvalContext(const LoweredDesign &design);

    const LoweredDesign &design;

    /** Scalar values by signal id (memories hold a dummy entry). */
    std::vector<Bits> values;
    /** Memory contents by signal id (empty vector for scalars). */
    std::vector<std::vector<Bits>> arrays;

    /** Number of primary clock cycles elapsed (posedges of "clk"). */
    uint64_t cycle = 0;

    /** Monotonic eval() sequence number (1-based; 0 = before the first
     *  eval). Snapshots carry it, so after a restore a deterministic
     *  replay walks through the same sequence numbers — observers keyed
     *  on it (the trace recorder) can tell replayed evals from new
     *  frontier evals. */
    uint64_t evalSeq = 0;

    /** Set by applyStore() whenever a store changes a value; the
     *  simulator's combinational settle loop clears and polls it. */
    bool valuesChanged = false;

    /** When non-null (profiling), applyStore() bumps the changed
     *  signal's slot on every value-changing store (toggle counting).
     *  Must be sized to numSignals(). */
    std::vector<uint64_t> *toggles = nullptr;

    /** When non-null (coverage), applyStore() reports every
     *  value-changing store for toggle coverage. One branch per
     *  changing store when detached. */
    CoverageCollector *cover = nullptr;

    /** $finish seen. */
    bool finished = false;

    /** Captured $display output. */
    struct LogLine
    {
        uint64_t cycle;
        std::string text;
    };
    std::vector<LogLine> log;

    /** A $display hit whose formatting has been deferred out of the
     *  hot loop: the format string lives in the AST (owned by the
     *  simulator's module, so the pointer outlives the context) and
     *  the arguments are already evaluated. drainLog() renders these
     *  into `log` in execution order. */
    struct PendingDisplay
    {
        uint64_t cycle;
        const std::string *format;
        std::vector<Bits> args;
    };
    std::vector<PendingDisplay> pendingLog;

    /** Render all pending $display entries into `log` (idempotent). */
    void drainLog();

    /** Total log lines, formatted plus pending (no formatting cost). */
    size_t logSize() const { return log.size() + pendingLog.size(); }
};

/**
 * An observer of one simulator's run (Simulator::attach), called in
 * attach order on any backend. Per-construct marks are not observer
 * calls: they stay nullable sinks on the backends' data path
 * (EvalContext::cover, Simulator::enableProfiling).
 */
class Observer
{
  public:
    virtual ~Observer() = default;

    /** poke() is about to store @p after over @p before in input @p sig. */
    virtual void onPoke(int sig, const Bits &before, const Bits &after)
    {
        (void)sig, (void)before, (void)after;
    }

    /** End of every eval() (ctx.evalSeq identifies it), with backend
     *  state flushed into @p ctx. */
    virtual void onEval(EvalContext &ctx) { (void)ctx; }

    /** State was replaced outside eval() (attach, restoreState); @p ctx
     *  is flushed. Re-seed change/edge baselines here, so neither can
     *  fabricate or drop an observation. */
    virtual void resync(EvalContext &ctx) { (void)ctx; }
};

/**
 * Evaluate @p expr. @p ctx_width is the context width (0 = use the
 * expression's self-determined width). The result has width
 * max(ctx_width, self width) for operators and is resized for leaves.
 */
Bits evalExpr(const hdl::ExprPtr &expr, EvalContext &ctx,
              uint32_t ctx_width = 0);

/** Convenience: evaluate to bool (nonzero). */
bool evalBool(const hdl::ExprPtr &expr, EvalContext &ctx);

/**
 * Hardware-overflow address mapping: an index into a memory of @p size
 * elements is truncated to the physical address width, the low
 * ceil(log2(size)) bits; this is their mask.
 */
uint32_t addressMask(uint32_t size);

/**
 * The element an index into a memory of @p size elements addresses, or
 * -1 if the access must be dropped (the truncated index is beyond a
 * non-power-of-two memory).
 */
int64_t effectiveIndex(uint64_t index, uint32_t size);

/**
 * A store target resolved against current state (index expressions are
 * evaluated at resolution time, which gives nonblocking assignments their
 * sample-then-commit semantics).
 */
struct StoreTarget
{
    int sig = -1;
    /** Memory element index; -1 for scalars. */
    int64_t element = -1;
    /** True when the dynamic element index fell outside the memory and
     *  (by hardware overflow semantics) the write must be dropped. */
    bool dropped = false;
    uint32_t msb = 0;
    uint32_t lsb = 0;
    /** True when the full signal/element is written. */
    bool whole = true;
};

/**
 * Resolve the targets of an lvalue. Concat lvalues produce several
 * targets ordered MSB-first together with their bit offsets into the RHS.
 */
struct ResolvedLValue
{
    struct Part
    {
        StoreTarget target;
        uint32_t rhsMsb = 0; ///< slice of the RHS feeding this part
        uint32_t rhsLsb = 0;
    };
    std::vector<Part> parts;
    uint32_t totalWidth = 0;
};

ResolvedLValue resolveLValue(const hdl::ExprPtr &lhs, EvalContext &ctx);

/** Apply @p value to a resolved target. */
void applyStore(const StoreTarget &target, const Bits &value,
                EvalContext &ctx);

/** Blocking store: resolve and apply immediately. */
void storeLValue(const hdl::ExprPtr &lhs, const Bits &value,
                 EvalContext &ctx);

/** Render a $display format string against evaluated arguments. */
std::string formatDisplay(const std::string &format,
                          const std::vector<Bits> &args);

} // namespace hwdbg::sim

#endif // HWDBG_SIM_EVAL_HH
