/**
 * @file
 * Analytic FPGA resource estimator (Quartus/Vivado substitute).
 *
 * The estimator maps an elaborated module onto the three resource types
 * of Figure 2 — block RAM bits, registers (flip-flops), and logic
 * (LUT/ALM equivalents) — using a documented structural cost model:
 *
 *  - every scalar reg bit costs one flip-flop;
 *  - memories of >= bramThreshold bits map to block RAM (plus read-mux
 *    logic), smaller ones to registers;
 *  - each operator costs LUTs as a function of its width (see
 *    logicCost() in resources.cc);
 *  - each guarded procedural assignment costs a write-enable mux of the
 *    target width;
 *  - blackbox IPs (FIFOs, RAMs, recorders) use their parameterized
 *    buffer sizes for BRAM and fixed control overheads.
 *
 * Absolute numbers are calibrated, not measured; what the model
 * preserves from the paper's evaluation is the *structure*: recording
 * buffer BRAM grows linearly with depth while register/logic overhead of
 * the instrumentation stays flat (Fig. 2), and LossCheck's shadow state
 * costs registers/logic proportional to the number of on-path registers
 * (Fig. 3).
 */

#ifndef HWDBG_SYNTH_RESOURCES_HH
#define HWDBG_SYNTH_RESOURCES_HH

#include <cstdint>

#include "analyze/context.hh"
#include "synth/platform.hh"

namespace hwdbg::synth
{

struct ResourceUsage
{
    double bramBits = 0;
    uint64_t registers = 0;
    uint64_t logic = 0;

    ResourceUsage &operator+=(const ResourceUsage &rhs);
    /** Overhead of this usage relative to @p base (clamped at zero). */
    ResourceUsage overheadVs(const ResourceUsage &base) const;
};

/** Normalized percentages against a platform's totals. */
struct NormalizedUsage
{
    double bramPct = 0;
    double registersPct = 0;
    double logicPct = 0;
};

NormalizedUsage normalize(const ResourceUsage &usage,
                          const Platform &platform);

/** Estimate the resources of the elaborated (flat) module of @p facts,
 *  over its assigns(). */
ResourceUsage estimateResources(const analyze::Context &facts);

} // namespace hwdbg::synth

#endif // HWDBG_SYNTH_RESOURCES_HH
