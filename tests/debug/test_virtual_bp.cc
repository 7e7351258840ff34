/**
 * @file
 * hgdb-style virtual line breakpoints: `break at <file>:<line>`
 * resolution against elaborated source locations on every testbed bug,
 * enable-condition gating, unresolvable-location errors, and execution
 * baselines surviving time travel without fabricating hits.
 */

#include <gtest/gtest.h>

#include <memory>

#include "bugbase/testbed.hh"
#include "bugbase/workloads.hh"
#include "common/logging.hh"
#include "compile/backend.hh"
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

std::unique_ptr<Engine>
makeBugEngine(const bugs::TestbedBug &bug, EngineOptions opts = {})
{
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

/** A (file, line) of a statement the bug's workload actually executes:
 *  run a scout engine to the end of the tape and pick the first
 *  dynamically covered statement with a real source location. */
hdl::SourceLoc
coveredLineOf(const bugs::TestbedBug &bug)
{
    auto scout = makeBugEngine(bug);
    scout->run();
    const auto &items = scout->coverageItems();
    for (uint32_t id = 0; id < items.statements.size(); ++id) {
        const auto &item = items.statements[id];
        if (scout->coverage().stmtHit(id) && item.loc.line > 0 &&
            !item.loc.file.empty())
            return item.loc;
    }
    return {};
}

} // namespace

TEST(VirtualBpTest, ResolvesAndHitsOnEveryTestbedBug)
{
    for (const auto &bug : bugs::testbedBugs()) {
        SCOPED_TRACE(bug.id);
        hdl::SourceLoc loc = coveredLineOf(bug);
        ASSERT_GT(loc.line, 0) << bug.id;

        auto engine = makeBugEngine(bug);
        int id = engine->addLineBreakpoint(loc.file,
                                           uint32_t(loc.line), "");
        EXPECT_GT(id, 0);
        auto stop = engine->run();
        ASSERT_EQ(stop.reason, Engine::StopReason::Breakpoint)
            << bug.id << " never hit " << loc.file << ":" << loc.line;
        EXPECT_EQ(stop.breakpoints.size(), 1u);
        EXPECT_EQ(stop.breakpoints[0], id);
    }
}

TEST(VirtualBpTest, EnableConditionGatesTheHit)
{
    auto engine = makeCounterEngine(50);
    // Line 2 is the counter's always statement; only stop once the
    // condition holds, not on the first execution.
    int id = engine->addLineBreakpoint("<input>", 2, "count >= 3");
    auto stop = engine->run();
    ASSERT_EQ(stop.reason, Engine::StopReason::Breakpoint);
    EXPECT_EQ(stop.breakpoints[0], id);
    EXPECT_EQ(engine->evalNow("count").toU64(), 3u);
}

TEST(VirtualBpTest, BasenameRequestMatchesPathlessFiles)
{
    auto engine = makeCounterEngine(4);
    // The parsed file is "<input>"; a request with no path separator
    // must also resolve via basename comparison.
    auto ids = resolveLineStmts(engine->coverageItems(), "<input>", 2);
    EXPECT_FALSE(ids.empty());
    auto missing =
        resolveLineStmts(engine->coverageItems(), "other.v", 2);
    EXPECT_TRUE(missing.empty());
}

TEST(VirtualBpTest, UnresolvableLocationRaises)
{
    auto engine = makeCounterEngine(4);
    EXPECT_THROW(engine->addLineBreakpoint("<input>", 999, ""),
                 HdlError);
    EXPECT_THROW(engine->addLineBreakpoint("missing.v", 2, ""),
                 HdlError);
    // A malformed enable condition fails at creation, not at hit time.
    EXPECT_THROW(engine->addLineBreakpoint("<input>", 2, "count +"),
                 HdlError);
}

TEST(VirtualBpTest, RebaseAfterTimeTravelPreventsSpuriousHits)
{
    auto engine = makeCounterEngine(50);
    int id = engine->addLineBreakpoint("<input>", 2, "count == 5");
    auto stop = engine->run();
    ASSERT_EQ(stop.reason, Engine::StopReason::Breakpoint);
    uint64_t hitCycle = engine->cycle();

    // Travelling backwards re-baselines the execution counters: the
    // replay itself must not count as new executions...
    auto back = engine->gotoCycle(hitCycle - 3);
    EXPECT_TRUE(back.breakpoints.empty());
    EXPECT_EQ(engine->cycle(), hitCycle - 3);

    // ...but running forward again re-fires at the same place.
    auto again = engine->run();
    ASSERT_EQ(again.reason, Engine::StopReason::Breakpoint);
    EXPECT_EQ(again.breakpoints[0], id);
    EXPECT_EQ(engine->cycle(), hitCycle);
}

TEST(VirtualBpTest, LineBreakpointsWorkOnBothBackends)
{
    for (const char *name : {"interp", "bytecode"}) {
        SCOPED_TRACE(name);
        EngineOptions opts;
        if (std::string(name) == "bytecode")
            opts.backend = compile::makeBytecodeBackend();
        auto engine = makeCounterEngine(50, opts);
        int id = engine->addLineBreakpoint("<input>", 2, "count == 7");
        auto stop = engine->run();
        ASSERT_EQ(stop.reason, Engine::StopReason::Breakpoint);
        EXPECT_EQ(stop.breakpoints[0], id);
        EXPECT_EQ(engine->evalNow("count").toU64(), 7u);
    }
}
