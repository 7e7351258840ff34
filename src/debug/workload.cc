#include "debug/workload.hh"

#include "bugbase/workloads.hh"
#include "common/logging.hh"
#include "debug/engine.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"

namespace hwdbg::debug
{

Workload
buildWorkload(const WorkloadSpec &spec)
{
    Workload w;
    InstrumentConfig icfg;
    const bugs::TestbedBug *bug = nullptr;
    elab::ElabResult elaborated;
    if (!spec.bug.empty()) {
        bug = &bugs::bugById(spec.bug);
        elaborated = bugs::buildDesign(*bug, spec.buggy);
        // Default to the bug's Fig. 2 monitor setup so the paper-tool
        // events nearest the root cause are on by default.
        icfg.fsm = bug->monitors.fsm;
        icfg.depVariable = bug->monitors.depVariable;
        icfg.depCycles = bug->monitors.depCycles;
        icfg.lossCheck = bug->lossCheck;
        w.stimulus = bugs::workloadStimulus(*bug, spec.buggy);
    } else {
        hdl::Design design = hdl::parseWithDefines(
            readFileOrFatal(spec.file), spec.defines, spec.file);
        if (design.modules.empty())
            fatal("'%s' contains no modules", spec.file.c_str());
        elaborated = elab::elaborate(
            design, spec.top.empty() ? design.modules.back()->name
                                     : spec.top);
    }
    w.name = elaborated.mod->name;
    w.base = elaborated.mod;
    w.constants = elaborated.constants;

    if (!spec.stimulus.empty()) {
        w.tape = std::make_shared<const sim::StimulusTape>(
            loadStimulusFile(spec.stimulus));
        if (!w.stimulus) {
            // Label by basename so reports stay machine-independent.
            auto slash = spec.stimulus.find_last_of('/');
            w.stimulus = sim::Stimulus();
            w.stimulus->label = "stimulus:" + spec.stimulus.substr(
                slash == std::string::npos ? 0 : slash + 1);
            w.stimulus->tape = w.tape;
        }
    }
    if (!spec.instrument)
        return w;

    icfg.fsm = icfg.fsm || spec.fsm;
    if (!spec.depVariable.empty())
        icfg.depVariable = spec.depVariable;
    if (spec.depCycles)
        icfg.depCycles = *spec.depCycles;
    if (spec.lossCheck)
        icfg.lossCheck = spec.lossCheck;
    icfg.constants = w.constants;
    w.instrumented = instrumentForDebug(*w.base, icfg).module;

    if (!w.tape) {
        auto tape = std::make_shared<sim::StimulusTape>();
        if (bug) {
            // Record the bug's trigger workload against the
            // instrumented design; the engine replays it
            // deterministically.
            sim::Simulator recorder(w.instrumented);
            recorder.recordStimulus(tape.get());
            bugs::runWorkload(*bug, recorder);
            recorder.recordStimulus(nullptr);
        }
        w.tape = tape;
    }
    return w;
}

} // namespace hwdbg::debug
