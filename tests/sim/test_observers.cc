/**
 * @file
 * The simulator's observers compose: coverage, two trace recorders
 * over different signals, a stimulus tape and the profiler, attached
 * to one simulator together, each record exactly what they record
 * alone, on both backends and across a time-travel restore.
 */

#include <gtest/gtest.h>

#include <optional>

#include "bugbase/testbed.hh"
#include "bugbase/workloads.hh"
#include "compile/backend.hh"
#include "cover/snapshot.hh"
#include "sim/coverage.hh"
#include "sim/profiler.hh"
#include "trace/json.hh"
#include "trace/trace.hh"

using namespace hwdbg;

namespace
{

enum : unsigned
{
    kCover = 1,
    kTraceA = 2,
    kTraceB = 4,
    kTape = 8,
    kProfile = 16,
    kAll = 31
};

/** What each observer produced. */
struct Observed
{
    std::string cover;
    std::string traceA;
    std::string traceB;
    sim::StimulusTape tape;
    sim::SimCounters profile;
};

/** D1's trigger workload as a tape, recorded on a plain simulator. */
sim::StimulusTape
workloadTape(const hdl::ModulePtr &mod)
{
    const auto &bug = bugs::bugById("D1");
    sim::StimulusTape tape;
    sim::Simulator sim(mod);
    sim::StimulusRecorder taping(sim, tape);
    bugs::runWorkload(bug, sim);
    return tape;
}

/**
 * Replay @p stimulus on a fresh simulator with the observers in
 * @p which attached: half the tape, a checkpoint, on to three
 * quarters, back to the checkpoint, and on to the end.
 */
Observed
observe(const hdl::ModulePtr &mod, const sim::StimulusTape &stimulus,
        const sim::BackendFactory &backend, unsigned which)
{
    sim::Simulator sim(mod);
    if (backend)
        sim.setBackend(backend);
    sim::CoverageItems items =
        sim::buildCoverageItems(sim.design(), cover::fsmSpecsFor(*mod));
    sim::CoverageCollector collector(items);
    trace::TraceConfig cfgA;
    cfgA.signals = {"state", "out_*"};
    cfgA.trigger = "out_valid";
    trace::TraceConfig cfgB;
    cfgB.signals = {"buf0", "acc"};
    trace::TraceRecorder traceA(sim, cfgA);
    trace::TraceRecorder traceB(sim, cfgB);

    Observed out;
    std::optional<sim::StimulusRecorder> taping;
    if (which & kCover)
        sim.enableCoverage(&collector);
    if (which & kTraceA)
        traceA.attach();
    if (which & kTape)
        taping.emplace(sim, out.tape);
    if (which & kTraceB)
        traceB.attach();
    if (which & kProfile)
        sim.enableProfiling(&out.profile);

    const auto &steps = stimulus.steps;
    size_t n = steps.size();
    for (size_t i = 0; i < n / 2; ++i)
        sim.applyStep(steps[i]);
    sim::SimSnapshot checkpoint = sim.saveState();
    for (size_t i = n / 2; i < 3 * n / 4; ++i)
        sim.applyStep(steps[i]);
    sim.restoreState(checkpoint);
    for (size_t i = n / 2; i < n; ++i)
        sim.applyStep(steps[i]);

    sim.enableCoverage(nullptr);
    sim.enableProfiling(nullptr);
    out.cover = cover::toJson(
        cover::snapshotFrom(items, collector, mod->name, "observers"));
    out.traceA = trace::toJson(traceA.dump("observers"));
    out.traceB = trace::toJson(traceB.dump("observers"));
    return out;
}

void
expectSameTape(const sim::StimulusTape &a, const sim::StimulusTape &b)
{
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (size_t i = 0; i < a.steps.size(); ++i)
        ASSERT_EQ(a.steps[i].pokes, b.steps[i].pokes) << "step " << i;
}

class ObserversTest : public ::testing::TestWithParam<bool>
{
};

TEST_P(ObserversTest, ComposedRunMatchesEachSoloRun)
{
    sim::BackendFactory backend =
        GetParam() ? compile::makeBytecodeBackend() : nullptr;
    auto mod = bugs::buildDesign(bugs::bugById("D1"), true).mod;
    sim::StimulusTape stimulus = workloadTape(mod);
    ASSERT_GT(stimulus.steps.size(), 8u);

    Observed all = observe(mod, stimulus, backend, kAll);
    EXPECT_EQ(all.cover,
              observe(mod, stimulus, backend, kCover).cover);
    EXPECT_EQ(all.traceA,
              observe(mod, stimulus, backend, kTraceA).traceA);
    EXPECT_EQ(all.traceB,
              observe(mod, stimulus, backend, kTraceB).traceB);
    expectSameTape(all.tape,
                   observe(mod, stimulus, backend, kTape).tape);
    sim::SimCounters solo =
        observe(mod, stimulus, backend, kProfile).profile;
    EXPECT_EQ(all.profile.assignEvals, solo.assignEvals);
    EXPECT_EQ(all.profile.combEvals, solo.combEvals);
    EXPECT_EQ(all.profile.clockedEvals, solo.clockedEvals);
    EXPECT_EQ(all.profile.toggles, solo.toggles);

    // Every observer saw the run: a dead one would match its idle solo
    // run trivially. The tape holds the replayed quarter twice.
    EXPECT_EQ(all.traceA.find("\"samples\": 0,"), std::string::npos);
    EXPECT_EQ(all.traceB.find("\"samples\": 0,"), std::string::npos);
    EXPECT_EQ(all.tape.steps.size(), stimulus.steps.size() +
                                         3 * stimulus.steps.size() / 4 -
                                         stimulus.steps.size() / 2);
    uint64_t clocked = 0;
    for (uint64_t evals : all.profile.clockedEvals)
        clocked += evals;
    EXPECT_GT(clocked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ObserversTest, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "bytecode" : "interp";
                         });

} // namespace
