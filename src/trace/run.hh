/**
 * @file
 * Trace run driver: attach a recorder to an elaborated design, drive it
 * with a sim::Stimulus, and return the captured window.
 *
 * Recording goes through the backend-agnostic per-eval hook, so the
 * driver accepts an execution backend and the dumps are byte-identical
 * across backends (the fuzz xtrace oracle's claim).
 */

#ifndef HWDBG_TRACE_RUN_HH
#define HWDBG_TRACE_RUN_HH

#include "bugbase/testbed.hh"
#include "sim/stimulus.hh"
#include "trace/trace.hh"

namespace hwdbg::trace
{

/** Drive @p elaborated with @p stim, recording attached; the dump's
 *  workload is the stimulus label. */
TraceDump traceDesign(hdl::ModulePtr elaborated, const sim::Stimulus &stim,
                      const TraceConfig &cfg,
                      const sim::BackendFactory &backend = {});

/** Record @p bug's trigger workload, driven live. */
TraceDump traceBugWorkload(const bugs::TestbedBug &bug, bool buggy,
                           const TraceConfig &cfg,
                           const sim::BackendFactory &backend = {});

} // namespace hwdbg::trace

#endif // HWDBG_TRACE_RUN_HH
