/**
 * @file
 * Coverage run driver: attach a collector to an elaborated design,
 * drive it with a sim::Stimulus, and return the resulting Snapshot.
 *
 * The driver detects FSMs first (analysis::detectFsms) so FSM
 * state/arc coverage rides along automatically.
 */

#ifndef HWDBG_COVER_RUN_HH
#define HWDBG_COVER_RUN_HH

#include "bugbase/testbed.hh"
#include "cover/snapshot.hh"
#include "sim/backend.hh"
#include "sim/stimulus.hh"

namespace hwdbg::cover
{

// The driver takes an optional execution backend (--backend); an empty
// factory runs the interpreter. Coverage events are sampled through the
// CoverageCollector hooks both backends drive identically, so snapshots
// are backend-independent.

/** Drive @p elaborated with @p stim, coverage attached; the snapshot's
 *  workload is the stimulus label. */
Snapshot coverDesign(hdl::ModulePtr elaborated, const sim::Stimulus &stim,
                     const sim::BackendFactory &backend = {});

/** Run @p bug's trigger workload live with coverage attached. */
Snapshot coverBugWorkload(const bugs::TestbedBug &bug, bool buggy,
                          const sim::BackendFactory &backend = {});

} // namespace hwdbg::cover

#endif // HWDBG_COVER_RUN_HH
