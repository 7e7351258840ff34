#include "cover/run.hh"

#include <utility>

#include "bugbase/workloads.hh"
#include "obs/trace.hh"

namespace hwdbg::cover
{

Snapshot
coverDesign(hdl::ModulePtr elaborated, const analyze::Context &facts,
            const sim::Stimulus &stim, const sim::BackendFactory &backend)
{
    obs::ObsSpan span("cover:" + stim.label);
    std::string top = elaborated->name;
    sim::Simulator sim(std::move(elaborated));
    if (backend)
        sim.setBackend(backend);
    sim::CoverageItems items =
        buildCoverageItems(sim.design(), fsmSpecs(facts.fsms()));
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
    auto mod = bugs::buildDesign(bug, buggy).mod;
    return coverDesign(mod, analyze::Context(*mod),
                       bugs::workloadStimulus(bug, buggy), backend);
}

} // namespace hwdbg::cover
