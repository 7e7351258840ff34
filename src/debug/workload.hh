/**
 * @file
 * Workloads: turn a design spec (a testbed bug variant or a Verilog
 * file) into everything a run needs, in one place. `hwdbg debug`,
 * `cover`, `trace` and `profile`, the serve design cache, and the
 * serve scaling bench all build through buildWorkload(), so a design
 * is parsed, elaborated, instrumented and recorded the same way
 * whichever entry point asked for it.
 *
 * A Workload carries two inputs, because one-shot runs and debugging
 * consume stimulus differently:
 *  - `stimulus` drives one-shot runs (cover, trace, serve's one-shot
 *    sessions). For a bug it is the workload driven live: recording it
 *    first and replaying the tape would simulate every bug twice and
 *    would drop pokes made after the workload's last eval.
 *  - `tape` feeds the time-travel debugger, which can only move along a
 *    recorded tape: the stimulus file, or the bug workload recorded
 *    against the instrumented module.
 */

#ifndef HWDBG_DEBUG_WORKLOAD_HH
#define HWDBG_DEBUG_WORKLOAD_HH

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/bits.hh"
#include "core/losscheck.hh"
#include "hdl/ast.hh"
#include "sim/stimulus.hh"

namespace hwdbg::debug
{

struct WorkloadSpec
{
    /** Testbed bug id; empty selects `file`. */
    std::string bug;
    bool buggy = true;
    /** Verilog source, its top module (empty: the last module), and
     *  preprocessor defines. */
    std::string file;
    std::string top;
    std::map<std::string, std::string> defines;
    /** Stimulus vector file (DESIGN.md §11 format); optional. */
    std::string stimulus;
    /** Also build the instrumented module and the debug tape. */
    bool instrument = false;

    /** Monitor overrides, applied over a bug's own configuration. */
    bool fsm = false;
    std::string depVariable;
    std::optional<int> depCycles;
    std::optional<core::LossCheckOptions> lossCheck;
};

struct Workload
{
    /** Top module name. */
    std::string name;
    /** Elaborated design, uninstrumented. */
    hdl::ModulePtr base;
    /** Monitor-instrumented design (null unless spec.instrument). */
    hdl::ModulePtr instrumented;
    std::map<std::string, Bits> constants;
    /** Debug tape: the stimulus file, else the recorded bug workload,
     *  else empty (null when neither spec.instrument nor a file). */
    std::shared_ptr<const sim::StimulusTape> tape;
    /** One-shot stimulus: the bug workload, else the stimulus file;
     *  unset for a bare file (callers pick seeded random input). */
    std::optional<sim::Stimulus> stimulus;
};

Workload buildWorkload(const WorkloadSpec &spec);

} // namespace hwdbg::debug

#endif // HWDBG_DEBUG_WORKLOAD_HH
