/**
 * @file
 * google-benchmark microbenchmarks for the hwdbg substrates: HDL
 * parsing, elaboration, simulation throughput, analysis passes, and
 * tool instrumentation.
 */

#include <benchmark/benchmark.h>

#include "analyze/context.hh"
#include "bugbase/designs.hh"
#include "bugbase/testbed.hh"
#include "bugbase/workloads.hh"
#include "compile/backend.hh"
#include "core/losscheck.hh"
#include "core/signalcat.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "hdl/preproc.hh"
#include "hdl/printer.hh"
#include "sim/simulator.hh"
#include "synth/resources.hh"
#include "synth/timing.hh"

using namespace hwdbg;
using namespace hwdbg::bugs;

namespace
{

const std::string &
corpusSource()
{
    // The largest testbed design makes a reasonable parser workload.
    return designSource("optimus");
}

void
BM_Preprocess(benchmark::State &state)
{
    const std::string &src = corpusSource();
    for (auto _ : state)
        benchmark::DoNotOptimize(hdl::preprocess(src, {}));
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * src.size()));
}
BENCHMARK(BM_Preprocess);

void
BM_Parse(benchmark::State &state)
{
    std::string src = hdl::preprocess(corpusSource(), {});
    for (auto _ : state)
        benchmark::DoNotOptimize(hdl::parse(src));
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * src.size()));
}
BENCHMARK(BM_Parse);

void
BM_Elaborate(benchmark::State &state)
{
    hdl::Design design =
        hdl::parseWithDefines(corpusSource(), {}, "optimus.v");
    for (auto _ : state)
        benchmark::DoNotOptimize(elab::elaborate(design, "optimus"));
}
BENCHMARK(BM_Elaborate);

void
BM_PrintModule(benchmark::State &state)
{
    auto mod = elab::elaborate(
        hdl::parseWithDefines(corpusSource(), {}, "optimus.v"),
        "optimus").mod;
    size_t bytes = 0;
    for (auto _ : state) {
        std::string text = hdl::printModule(*mod);
        bytes += text.size();
        benchmark::DoNotOptimize(text);
    }
    state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_PrintModule);

void
BM_CountCodeLines(benchmark::State &state)
{
    std::string text = hdl::printModule(*elab::elaborate(
        hdl::parseWithDefines(corpusSource(), {}, "optimus.v"),
        "optimus").mod);
    for (auto _ : state)
        benchmark::DoNotOptimize(hdl::countCodeLines(text));
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_CountCodeLines);

void
BM_SimulatorBuild(benchmark::State &state)
{
    const TestbedBug &bug = bugById("D3");
    auto mod = buildDesign(bug, false).mod;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            std::make_unique<sim::Simulator>(hdl::cloneModule(*mod)));
}
BENCHMARK(BM_SimulatorBuild);

void
BM_SimulationCycles(benchmark::State &state)
{
    auto mod = buildDesign(bugById("D3"), false).mod;
    sim::Simulator sim(mod);
    sim.poke("rst", uint64_t(1));
    uint64_t cycles = 0;
    for (auto _ : state) {
        sim.poke("clk", uint64_t(0));
        sim.eval();
        sim.poke("clk", uint64_t(1));
        sim.eval();
        ++cycles;
    }
    state.SetItemsProcessed(static_cast<int64_t>(cycles));
}
BENCHMARK(BM_SimulationCycles);

void
BM_SimulationCyclesBytecode(benchmark::State &state)
{
    // The same clock loop as BM_SimulationCycles, executed by the
    // compiled bytecode backend: the pair is the per-design speedup on
    // a real testbed module (bench/backend_speedup gates the corpus
    // geomean).
    auto mod = buildDesign(bugById("D3"), false).mod;
    sim::Simulator sim(mod);
    sim.setBackend(compile::makeBytecodeBackend());
    sim.poke("rst", uint64_t(1));
    uint64_t cycles = 0;
    for (auto _ : state) {
        sim.poke("clk", uint64_t(0));
        sim.eval();
        sim.poke("clk", uint64_t(1));
        sim.eval();
        ++cycles;
    }
    state.SetItemsProcessed(static_cast<int64_t>(cycles));
}
BENCHMARK(BM_SimulationCyclesBytecode);

void
BM_BytecodeLowering(benchmark::State &state)
{
    // Cost of installing the compiled backend (lowering + slab build)
    // on an already-constructed simulator; the one-time price a
    // session pays for the per-cycle speedup above.
    auto mod = buildDesign(bugById("D3"), false).mod;
    for (auto _ : state) {
        sim::Simulator sim(hdl::cloneModule(*mod));
        sim.setBackend(compile::makeBytecodeBackend());
        benchmark::DoNotOptimize(sim.backendName());
    }
}
BENCHMARK(BM_BytecodeLowering);

void
BM_WorkloadEndToEnd(benchmark::State &state)
{
    const TestbedBug &bug = bugById("D2");
    for (auto _ : state) {
        sim::Simulator sim(buildDesign(bug, false).mod);
        benchmark::DoNotOptimize(runWorkload(bug, sim));
    }
}
BENCHMARK(BM_WorkloadEndToEnd);

void
BM_FsmDetection(benchmark::State &state)
{
    auto mod = buildDesign(bugById("D2"), true).mod;
    for (auto _ : state)
        benchmark::DoNotOptimize(analyze::Context(*mod).fsms().size());
}
BENCHMARK(BM_FsmDetection);

void
BM_RelationTable(benchmark::State &state)
{
    auto mod = buildDesign(bugById("D4"), true).mod;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            analyze::Context(*mod).relations().relations().size());
}
BENCHMARK(BM_RelationTable);

void
BM_LossCheckInstrument(benchmark::State &state)
{
    const TestbedBug &bug = bugById("D4");
    auto mod = buildDesign(bug, true).mod;
    for (auto _ : state)
        benchmark::DoNotOptimize(core::applyLossCheck(
            *mod, analyze::Context(*mod), *bug.lossCheck));
}
BENCHMARK(BM_LossCheckInstrument);

void
BM_SignalCatInstrument(benchmark::State &state)
{
    const TestbedBug &bug = bugById("D2");
    auto mod = buildDesign(bug, true).mod;
    auto inst =
        core::applyLossCheck(*mod, analyze::Context(*mod), *bug.lossCheck);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::applySignalCat(*inst.module));
}
BENCHMARK(BM_SignalCatInstrument);

void
BM_ResourceEstimate(benchmark::State &state)
{
    auto mod = buildDesign(bugById("D3"), true).mod;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            synth::estimateResources(analyze::Context(*mod)));
}
BENCHMARK(BM_ResourceEstimate);

void
BM_TimingEstimate(benchmark::State &state)
{
    auto mod = buildDesign(bugById("D3"), true).mod;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            synth::estimateTiming(analyze::Context(*mod)));
}
BENCHMARK(BM_TimingEstimate);

} // namespace

BENCHMARK_MAIN();
