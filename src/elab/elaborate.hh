/**
 * @file
 * Elaboration: turn a multi-module Design into one flat Module.
 *
 * Elaboration resolves all parameters to constants, folds constant
 * expressions in declarations, and recursively inlines non-primitive
 * module instances, renaming every inner identifier to
 * "<inst>__<name>". Blackbox primitives (vendor IPs modelled by the
 * simulator: scfifo, dcfifo, altsyncram, signal_recorder) are retained as
 * instances with fully-resolved parameter values.
 *
 * The debugging tools operate on the flat module this pass produces, the
 * same way the paper's tools operate on Verilator's inlined ASTs.
 */

#ifndef HWDBG_ELAB_ELABORATE_HH
#define HWDBG_ELAB_ELABORATE_HH

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "hdl/ast.hh"

namespace hwdbg::elab
{

/** True for blackbox IPs understood by the simulator. */
bool isPrimitive(const std::string &module_name);

// Size caps on a design's shape. Elaboration rejects a design past any
// of them with an HdlError, so every command accepts the same designs
// and no width computation downstream can overflow.

/** Widest vector a design may declare or build, in bits (also the
 *  widest sized literal Bits::parseVerilog reads). */
inline constexpr uint32_t kMaxVectorWidth = 1u << 16;
/** Largest replication count {N{...}}. */
inline constexpr uint32_t kMaxReplication = 1u << 16;
/** Deepest memory, in words. */
inline constexpr uint32_t kMaxMemoryDepth = 1u << 20;

/**
 * Evaluate a constant expression: the one constant folder of hwdbg.
 *
 * @param expr Expression made of literals, parameters in @p env, and
 *             operators.
 * @param env Name -> value bindings (parameters).
 * @return The value; raises HdlError for non-constant expressions and
 *         for replications past the caps.
 */
Bits evalConst(const hdl::ExprPtr &expr,
               const std::map<std::string, Bits> &env);

/**
 * evalConst() with no parameters, for callers that treat a non-constant
 * expression as unknown: std::nullopt wherever evalConst() would raise.
 */
std::optional<Bits> tryEvalConst(const hdl::ExprPtr &expr);

/**
 * Declared shape, read from the [N:0] form that elaboration (and
 * InstrumentBuilder) writes: a net's width in bits (1 for a scalar)
 * and a memory's word count (0 for a non-memory). Either is 0, unknown,
 * when N does not fold, which only a module straight from the parser
 * can hold.
 */
uint32_t netWidth(const hdl::NetItem &net);
uint32_t memoryDepth(const hdl::NetItem &net);

/**
 * Folded (msb, lsb) of part select @p range; an HdlError when it selects
 * from a memory (@p of_memory), is reversed, or reaches past
 * kMaxVectorWidth. Elaboration checks every part select of the flat
 * design with it, and the simulator each expression typed at the
 * debugger.
 */
std::pair<uint32_t, uint32_t> partSelectBounds(const hdl::RangeExpr &range,
                                               bool of_memory);

/** Count of @p rep, folded; an HdlError outside 1..kMaxReplication. */
uint32_t replicationCount(const hdl::RepeatExpr &rep,
                          const std::map<std::string, Bits> &env = {});

/** Result of elaboration. */
struct ElabResult
{
    hdl::ModulePtr mod;
    /**
     * Values of every parameter/localparam encountered, keyed by the
     * flattened name (e.g. "u_sub__WR_DATA"). Tools use this to map
     * numeric values (such as FSM states) back to symbolic names.
     */
    std::map<std::string, Bits> constants;
};

/**
 * Elaborate @p top (and everything it instantiates) into a single flat
 * module. @p overrides provides top-level parameter values.
 */
ElabResult elaborate(const hdl::Design &design, const std::string &top,
                     const std::map<std::string, Bits> &overrides = {});

} // namespace hwdbg::elab

#endif // HWDBG_ELAB_ELABORATE_HH
