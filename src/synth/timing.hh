/**
 * @file
 * Static timing model (the synthesizer's Fmax report substitute).
 *
 * Estimates the longest register-to-register combinational path with a
 * per-operator delay table (delays grow with operand width), then
 * converts to an achievable clock frequency. §6.4 of the paper reports
 * that 18 of the 20 instrumented designs keep their target frequency
 * while Optimus (400 MHz) degrades to 200 MHz; the timing_closure bench
 * reproduces that comparison with this model.
 */

#ifndef HWDBG_SYNTH_TIMING_HH
#define HWDBG_SYNTH_TIMING_HH

#include <string>

#include "analyze/context.hh"

namespace hwdbg::synth
{

struct TimingReport
{
    /** Longest combinational path, ns (excluding clk-to-out/setup). */
    double criticalPathNs = 0;
    /** Achievable frequency in MHz including fixed clocking overhead. */
    double fmaxMhz = 0;
    /** Signal whose assignment closes the critical path. */
    std::string criticalSignal;
};

/** Estimate the module of @p facts, over its assigns() and wires(). */
TimingReport estimateTiming(const analyze::Context &facts);

/** True when the design closes timing at @p target_mhz. */
bool meetsTarget(const TimingReport &report, double target_mhz);

} // namespace hwdbg::synth

#endif // HWDBG_SYNTH_TIMING_HH
