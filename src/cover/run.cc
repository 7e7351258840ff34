#include "cover/run.hh"

#include <utility>

#include "bugbase/workloads.hh"
#include "obs/trace.hh"

namespace hwdbg::cover
{

Snapshot
coverDesign(hdl::ModulePtr elaborated, const sim::Stimulus &stim,
            const sim::BackendFactory &backend)
{
    obs::ObsSpan span("cover:" + stim.label);
    std::string top = elaborated->name;
    sim::Simulator sim(std::move(elaborated));
    if (backend)
        sim.setBackend(backend);
    sim::CoverageItems items = buildCoverageItems(
        sim.design(), fsmSpecsFor(sim.design().module()));
    sim::CoverageCollector collector(items);
    sim.enableCoverage(&collector);
    stim.drive(sim, "cover");
    sim.enableCoverage(nullptr);
    return snapshotFrom(items, collector, top, stim.label);
}

Snapshot
coverBugWorkload(const bugs::TestbedBug &bug, bool buggy,
                 const sim::BackendFactory &backend)
{
    return coverDesign(bugs::buildDesign(bug, buggy).mod,
                       bugs::workloadStimulus(bug, buggy), backend);
}

} // namespace hwdbg::cover
