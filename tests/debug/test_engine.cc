/**
 * @file
 * Engine-level time travel: goto-cycle across checkpoint boundaries
 * (including evicted ones), reverse-step, run-until, paper-tool events
 * on an instrumented testbed bug, and backtrace over the depgraph.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "bugbase/testbed.hh"
#include "bugbase/workloads.hh"
#include "common/logging.hh"
#include "debug/engine.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"

using namespace hwdbg;
using namespace hwdbg::debug;

namespace
{

const char *kCounter =
    "module m(input wire clk, output reg [7:0] count);\n"
    "always @(posedge clk) count <= count + 1;\nendmodule";

sim::StimulusTape
clockTape(int cycles)
{
    sim::StimulusTape tape;
    for (int i = 0; i < cycles; ++i) {
        sim::StimulusStep low, high;
        low.pokes.emplace_back("clk", Bits(1, 0));
        high.pokes.emplace_back("clk", Bits(1, 1));
        tape.steps.push_back(low);
        tape.steps.push_back(high);
    }
    return tape;
}

std::unique_ptr<Engine>
makeCounterEngine(int cycles, EngineOptions opts = {})
{
    hdl::Design design = hdl::parse(kCounter);
    return std::make_unique<Engine>(elab::elaborate(design, "m").mod,
                                    clockTape(cycles), opts);
}

/** Engine over an instrumented testbed bug with its recorded trigger
 *  workload — the same wiring the CLI's --bug path does. */
std::unique_ptr<Engine>
makeBugEngine(const std::string &bug_id, EngineOptions opts = {})
{
    const auto &bug = bugs::bugById(bug_id);
    auto elaborated = bugs::buildDesign(bug, true);

    InstrumentConfig icfg;
    icfg.fsm = bug.monitors.fsm;
    icfg.depVariable = bug.monitors.depVariable;
    icfg.depCycles = bug.monitors.depCycles;
    icfg.lossCheck = bug.lossCheck;
    icfg.constants = elaborated.constants;
    InstrumentResult instr = instrumentForDebug(*elaborated.mod, icfg);

    sim::StimulusTape tape;
    {
        sim::Simulator recorder(instr.module);
        sim::StimulusRecorder taping(recorder, tape);
        bugs::runWorkload(bug, recorder);
    }
    opts.constants = elaborated.constants;
    return std::make_unique<Engine>(instr.module, std::move(tape), opts);
}

} // namespace

TEST(EngineTest, StepAndRunAdvanceTheCycleCounter)
{
    auto eng = makeCounterEngine(12);
    auto stop = eng->stepCycles(3);
    EXPECT_EQ(stop.reason, Engine::StopReason::None);
    EXPECT_EQ(eng->cycle(), 3u);
    EXPECT_EQ(eng->evalNow("count").toU64(), 3u);

    stop = eng->run();
    EXPECT_EQ(stop.reason, Engine::StopReason::EndOfTape);
    EXPECT_EQ(eng->cycle(), 12u);
    EXPECT_TRUE(eng->atEnd());
}

TEST(EngineTest, RunUntilStopsWhenExpressionTurnsTrue)
{
    auto eng = makeCounterEngine(12);
    auto stop = eng->runUntil("count == 7");
    ASSERT_EQ(stop.reason, Engine::StopReason::UntilTrue);
    EXPECT_EQ(eng->evalNow("count").toU64(), 7u);
    // Malformed expressions surface as HdlError, not silent misses.
    EXPECT_THROW(eng->runUntil("nonexistent_wire == 1"), HdlError);
}

TEST(EngineTest, GotoCycleAcrossCheckpointBoundaries)
{
    // Interval of 4 steps with capacity 2 forces evictions: early
    // targets must fall back to the pinned initial snapshot + replay.
    EngineOptions opts;
    opts.checkpointInterval = 4;
    opts.checkpointCapacity = 2;
    auto eng = makeCounterEngine(32, opts);
    eng->run();
    ASSERT_EQ(eng->cycle(), 32u);
    EXPECT_LE(eng->checkpoints().count(), 3u); // pinned initial + 2

    // Record the state on a first visit, revisit it after travelling
    // away, and require bit-identical values both times.
    auto stop = eng->gotoCycle(13);
    EXPECT_EQ(stop.reason, Engine::StopReason::None);
    EXPECT_EQ(eng->cycle(), 13u);
    auto valuesAt13 = eng->sim().context().values;
    EXPECT_EQ(eng->evalNow("count").toU64(), 13u);

    stop = eng->gotoCycle(2); // before every surviving checkpoint
    EXPECT_EQ(stop.reason, Engine::StopReason::None);
    EXPECT_EQ(eng->cycle(), 2u);
    EXPECT_EQ(eng->evalNow("count").toU64(), 2u);

    stop = eng->gotoCycle(13);
    EXPECT_EQ(eng->cycle(), 13u);
    EXPECT_EQ(eng->sim().context().values, valuesAt13);
    EXPECT_GT(eng->replayedSteps(), 0u);

    // Forward past the frontier is a quiet advance.
    stop = eng->gotoCycle(20);
    EXPECT_EQ(stop.reason, Engine::StopReason::None);
    EXPECT_EQ(eng->evalNow("count").toU64(), 20u);
}

TEST(EngineTest, ReverseStepWalksBackwardsAndClampsAtZero)
{
    auto eng = makeCounterEngine(10);
    eng->stepCycles(8);
    auto stop = eng->reverseStep(3);
    EXPECT_EQ(stop.reason, Engine::StopReason::None);
    EXPECT_EQ(eng->cycle(), 5u);
    EXPECT_EQ(eng->evalNow("count").toU64(), 5u);

    stop = eng->reverseStep(100);
    EXPECT_EQ(eng->cycle(), 0u);
    EXPECT_EQ(eng->evalNow("count").toU64(), 0u);
}

TEST(EngineTest, InstrumentedBugSurfacesDependencyEvents)
{
    // D7 (fadd) carries a Dependency Monitor on `sum`; its update
    // events must be breakable and survive time travel.
    auto eng = makeBugEngine("D7");
    ASSERT_GT(eng->tapeSize(), 0u);

    eng->breakpoints().add(Breakpoint::Kind::Event, "dep:sum", nullptr,
                           eng->sim().context());
    auto stop = eng->run();
    ASSERT_EQ(stop.reason, Engine::StopReason::Breakpoint);
    ASSERT_FALSE(stop.events.empty());
    EXPECT_EQ(stop.events[0].key, "dep:sum");
    uint64_t hitCycle = eng->cycle();
    EXPECT_GT(hitCycle, 0u);

    // Time-travel backwards past the event, then the full-log event
    // listing must shrink to the prefix...
    eng->gotoCycle(hitCycle - 1);
    for (const auto &ev : eng->allEvents())
        EXPECT_LT(ev.cycle, hitCycle);

    // ...and re-running rediscovers the same event deterministically.
    auto again = eng->run();
    ASSERT_EQ(again.reason, Engine::StopReason::Breakpoint);
    EXPECT_EQ(eng->cycle(), hitCycle);
    EXPECT_EQ(again.events[0].key, "dep:sum");
}

TEST(EngineTest, BacktraceReportsDependencyChainWithValues)
{
    auto eng = makeBugEngine("D7");
    eng->run();
    auto chain = eng->backtrace("sum", 2);
    ASSERT_FALSE(chain.empty());
    EXPECT_EQ(chain.front().reg, "sum");
    EXPECT_EQ(chain.front().distance, 0);
    for (size_t i = 1; i < chain.size(); ++i)
        EXPECT_GE(chain[i].distance, chain[i - 1].distance);
    // Values are the live ones: the root entry matches evalNow.
    EXPECT_EQ(chain.front().value, eng->evalNow("sum"));
    EXPECT_THROW(eng->backtrace("no_such_reg", 2), HdlError);
}

TEST(EngineTest, MonitorTargetsMustNameBaseDesignSignals)
{
    // Every monitor reads the facts of the design under debug, so a
    // target naming a register only an earlier monitor generated is
    // rejected as unknown.
    const auto &bug = bugs::bugById("D1");
    auto elaborated = bugs::buildDesign(bug, true);
    auto fsms = analyze::Context(*elaborated.mod).fsms();
    ASSERT_FALSE(fsms.empty());
    const std::string state = fsms.front().stateVar;

    auto message = [&](const InstrumentConfig &icfg) {
        try {
            instrumentForDebug(*elaborated.mod, icfg);
        } catch (const HdlError &err) {
            return std::string(err.what());
        }
        return std::string("accepted");
    };

    InstrumentConfig icfg;
    icfg.fsm = true;
    icfg.depVariable = "__fsm_prev_" + state;
    EXPECT_NE(message(icfg).find("Dependency Monitor: no signal named '" +
                                 icfg.depVariable + "'"),
              std::string::npos)
        << message(icfg);

    icfg.depVariable = state;
    core::LossCheckOptions loss = *bug.lossCheck;
    loss.source = "__dep_prev_" + state;
    icfg.lossCheck = loss;
    EXPECT_NE(message(icfg).find("LossCheck: no signal named '" +
                                 loss.source + "'"),
              std::string::npos)
        << message(icfg);

    // The same targets named by their base signals instrument fine.
    icfg.lossCheck = bug.lossCheck;
    EXPECT_EQ(message(icfg), "accepted");
}

TEST(EngineTest, StimulusFileRoundTrips)
{
    std::string path = testing::TempDir() + "/hwdbg_stim.txt";
    {
        std::ofstream out(path);
        out << "# two ticks of a counter clock\n";
        out << "clk=0\nclk=1\n";
        out << "-\n";
        out << "clk=0 count=8'hff\n";
    }
    sim::StimulusTape tape = loadStimulusFile(path);
    ASSERT_EQ(tape.steps.size(), 4u);
    EXPECT_EQ(tape.steps[0].pokes.size(), 1u);
    EXPECT_TRUE(tape.steps[2].pokes.empty());
    ASSERT_EQ(tape.steps[3].pokes.size(), 2u);
    EXPECT_EQ(tape.steps[3].pokes[1].first, "count");
    EXPECT_EQ(tape.steps[3].pokes[1].second.toU64(), 0xffu);
    std::remove(path.c_str());

    EXPECT_THROW(loadStimulusFile("/nonexistent/stim.txt"), HdlError);
}
