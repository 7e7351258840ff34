#include "trace/run.hh"

#include <utility>

#include "bugbase/workloads.hh"
#include "obs/trace.hh"

namespace hwdbg::trace
{

TraceDump
traceDesign(hdl::ModulePtr elaborated, const sim::Stimulus &stim,
            const TraceConfig &cfg, const sim::BackendFactory &backend)
{
    obs::ObsSpan span("trace:" + stim.label);
    sim::Simulator sim(std::move(elaborated));
    if (backend)
        sim.setBackend(backend);
    TraceRecorder recorder(sim, cfg);
    recorder.attach();
    stim.drive(sim, "trace");
    recorder.detach();
    return recorder.dump(stim.label);
}

TraceDump
traceBugWorkload(const bugs::TestbedBug &bug, bool buggy,
                 const TraceConfig &cfg,
                 const sim::BackendFactory &backend)
{
    return traceDesign(bugs::buildDesign(bug, buggy).mod,
                       bugs::workloadStimulus(bug, buggy), cfg, backend);
}

} // namespace hwdbg::trace
