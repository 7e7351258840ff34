/**
 * @file
 * Tests for FSM Monitor, Dependency Monitor, and Statistics Monitor.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/logging.hh"
#include "core/dep_monitor.hh"
#include "common/logging.hh"
#include "core/fsm_monitor.hh"
#include "common/logging.hh"
#include "core/stats_monitor.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "hdl/printer.hh"
#include "sim/simulator.hh"

using namespace hwdbg;
using namespace hwdbg::hdl;
using namespace hwdbg::sim;
using namespace hwdbg::core;

namespace
{

elab::ElabResult
flatWithConsts(const std::string &src, const std::string &top = "m")
{
    return elab::elaborate(parse(src), top);
}

std::unique_ptr<Simulator>
simulate(ModulePtr mod)
{
    // Round-trip through the printer: instrumented modules must be
    // legal Verilog.
    Design design = parse(printModule(*mod));
    return std::make_unique<Simulator>(
        elab::elaborate(design, design.modules[0]->name).mod);
}

void
tick(Simulator &sim, int n = 1)
{
    for (int i = 0; i < n; ++i) {
        sim.poke("clk", uint64_t(0));
        sim.eval();
        sim.poke("clk", uint64_t(1));
        sim.eval();
    }
}

const char *fsm_design =
    "module m(input wire clk, input wire request_valid,\n"
    "         input wire work_done);\n"
    "localparam IDLE = 2'd0, WORK = 2'd1, FINISH = 2'd2;\n"
    "reg [1:0] state;\n"
    "always @(posedge clk)\n"
    "case (state)\n"
    "  IDLE: if (request_valid) state <= WORK;\n"
    "  WORK: if (work_done) state <= FINISH;\n"
    "  FINISH: state <= IDLE;\nendcase\nendmodule";

} // namespace

TEST(FsmMonitorTest, TracesStateTransitions)
{
    auto elaborated = flatWithConsts(fsm_design);
    FsmMonitorResult mon = applyFsmMonitor(*elaborated.mod, analyze::Context(*elaborated.mod));
    ASSERT_EQ(mon.monitored.size(), 1u);
    EXPECT_EQ(mon.monitored[0], "state");
    EXPECT_GT(mon.generatedLines, 0);

    auto sim = simulate(mon.module);
    sim->poke("request_valid", uint64_t(1));
    tick(*sim);
    sim->poke("request_valid", uint64_t(0));
    tick(*sim); // monitor reports IDLE->WORK here
    sim->poke("work_done", uint64_t(1));
    tick(*sim);
    sim->poke("work_done", uint64_t(0));
    tick(*sim, 3); // WORK->FINISH->IDLE reported

    auto trace = fsmTrace(sim->log());
    ASSERT_GE(trace.size(), 3u);
    EXPECT_EQ(trace[0].stateVar, "state");
    EXPECT_EQ(trace[0].fromState, 0u); // IDLE
    EXPECT_EQ(trace[0].toState, 1u);   // WORK
    EXPECT_EQ(trace[1].fromState, 1u);
    EXPECT_EQ(trace[1].toState, 2u);
    EXPECT_EQ(trace[2].fromState, 2u);
    EXPECT_EQ(trace[2].toState, 0u);
}

TEST(FsmMonitorTest, FinalStatesIdentifyStuckFsm)
{
    auto elaborated = flatWithConsts(fsm_design);
    FsmMonitorResult mon = applyFsmMonitor(*elaborated.mod, analyze::Context(*elaborated.mod));
    auto sim = simulate(mon.module);
    sim->poke("request_valid", uint64_t(1));
    tick(*sim);
    sim->poke("request_valid", uint64_t(0));
    // work_done never arrives: the FSM is stuck in WORK.
    tick(*sim, 10);
    auto final_states = finalStates(fsmTrace(sim->log()), mon.monitored);
    EXPECT_EQ(final_states.at("state"), 1u);
    EXPECT_EQ(stateName("state", final_states.at("state"),
                        elaborated.constants),
              "WORK");
}

TEST(FsmMonitorTest, ForceIncludeAndExclude)
{
    auto elaborated = flatWithConsts(fsm_design);
    FsmMonitorOptions opts;
    opts.exclude.insert("state");
    FsmMonitorResult mon = applyFsmMonitor(*elaborated.mod, analyze::Context(*elaborated.mod), opts);
    EXPECT_TRUE(mon.monitored.empty());

    FsmMonitorOptions opts2;
    opts2.forceInclude.insert("state");
    FsmMonitorResult mon2 = applyFsmMonitor(*elaborated.mod, analyze::Context(*elaborated.mod), opts2);
    EXPECT_EQ(mon2.monitored.size(), 1u);
}

TEST(FsmMonitorTest, StateNameFallsBackToNumber)
{
    std::map<std::string, Bits> constants;
    EXPECT_EQ(stateName("state", 7, constants), "7");
}

TEST(DepMonitorTest, ChainAndUpdateLog)
{
    auto elaborated = flatWithConsts(
        "module m(input wire clk, input wire [7:0] in,\n"
        "         output reg [7:0] out);\n"
        "reg [7:0] stage1, stage2;\n"
        "always @(posedge clk) begin\n"
        "  stage1 <= in;\n  stage2 <= stage1 + 1;\n"
        "  out <= stage2;\nend\nendmodule");
    DepMonitorOptions opts;
    opts.variable = "out";
    opts.cycles = 3;
    DepMonitorResult mon = applyDepMonitor(*elaborated.mod, analyze::Context(*elaborated.mod), opts);
    EXPECT_EQ(mon.chain.at("out"), 0);
    EXPECT_EQ(mon.chain.at("stage2"), 1);
    EXPECT_EQ(mon.chain.at("stage1"), 2);
    EXPECT_GT(mon.generatedLines, 0);

    auto sim = simulate(mon.module);
    sim->poke("in", uint64_t(0x10));
    tick(*sim, 4);
    auto updates = depUpdates(sim->log());
    ASSERT_FALSE(updates.empty());
    bool saw_stage1 = false, saw_out = false;
    for (const auto &update : updates) {
        if (update.variable == "stage1" && update.value == "10")
            saw_stage1 = true;
        if (update.variable == "out" && update.value == "11")
            saw_out = true;
    }
    EXPECT_TRUE(saw_stage1);
    EXPECT_TRUE(saw_out);
}

TEST(DepMonitorTest, CycleBudgetLimitsChain)
{
    auto elaborated = flatWithConsts(
        "module m(input wire clk, input wire [7:0] in,\n"
        "         output reg [7:0] out);\n"
        "reg [7:0] s1, s2, s3;\n"
        "always @(posedge clk) begin\n"
        "  s1 <= in;\n  s2 <= s1;\n  s3 <= s2;\n  out <= s3;\nend\n"
        "endmodule");
    DepMonitorOptions opts;
    opts.variable = "out";
    opts.cycles = 2;
    DepMonitorResult mon = applyDepMonitor(*elaborated.mod, analyze::Context(*elaborated.mod), opts);
    EXPECT_TRUE(mon.chain.count("s3"));
    EXPECT_TRUE(mon.chain.count("s2"));
    EXPECT_FALSE(mon.chain.count("s1"));
}

TEST(DepMonitorTest, UnknownVariableThrows)
{
    auto elaborated = flatWithConsts(
        "module m(input wire clk);\nreg x;\n"
        "always @(posedge clk) x <= x;\nendmodule");
    DepMonitorOptions opts;
    opts.variable = "nope";
    EXPECT_THROW(applyDepMonitor(*elaborated.mod, analyze::Context(*elaborated.mod), opts), HdlError);
}

TEST(StatsMonitorTest, CountsEvents)
{
    auto elaborated = flatWithConsts(
        "module m(input wire clk, input wire in_valid,\n"
        "         input wire out_ready);\n"
        "endmodule");
    StatsMonitorOptions opts;
    opts.events.push_back(statsEvent("inputs", "in_valid"));
    opts.events.push_back(statsEvent("outputs", "out_ready"));
    StatsMonitorResult mon = applyStatsMonitor(*elaborated.mod, opts);
    EXPECT_GT(mon.generatedLines, 0);

    auto sim = simulate(mon.module);
    sim->poke("in_valid", uint64_t(1));
    sim->poke("out_ready", uint64_t(1));
    tick(*sim, 3);
    sim->poke("out_ready", uint64_t(0));
    tick(*sim, 2);

    auto counts = statCounts(sim->log());
    EXPECT_EQ(counts.at("inputs"), 5u);
    EXPECT_EQ(counts.at("outputs"), 3u);

    // Counter registers are also directly readable (cheap mode).
    EXPECT_EQ(sim->peekU64(StatsMonitorResult::counterSignal("inputs")),
              5u);
}

TEST(StatsMonitorTest, MismatchRevealsDataLossSymptom)
{
    // Takeaway #2: comparing input/output counters reveals loss.
    auto elaborated = flatWithConsts(
        "module m(input wire clk, input wire in_valid,\n"
        "         output reg out_valid);\n"
        "reg busy;\n"
        "always @(posedge clk) begin\n"
        "  out_valid <= 1'b0;\n"
        "  if (in_valid && !busy) begin\n"
        "    busy <= 1'b1;\n"
        "  end\n"
        "  if (busy) begin\n"
        "    out_valid <= 1'b1;\n    busy <= 1'b0;\n"
        "  end\nend\nendmodule");
    StatsMonitorOptions opts;
    opts.events.push_back(statsEvent("in", "in_valid"));
    opts.events.push_back(statsEvent("out", "out_valid"));
    StatsMonitorResult mon = applyStatsMonitor(*elaborated.mod, opts);
    auto sim = simulate(mon.module);
    sim->poke("in_valid", uint64_t(1));
    tick(*sim, 10);
    sim->poke("in_valid", uint64_t(0));
    tick(*sim, 3);
    auto counts = statCounts(sim->log());
    // Every other input is dropped while busy: outputs < inputs.
    EXPECT_LT(counts.at("out"), counts.at("in"));
}

TEST(StatsMonitorTest, SilentModeKeepsCountersOnly)
{
    auto elaborated = flatWithConsts(
        "module m(input wire clk, input wire e);\nendmodule");
    StatsMonitorOptions opts;
    opts.events.push_back(statsEvent("e", "e"));
    opts.logChanges = false;
    StatsMonitorResult mon = applyStatsMonitor(*elaborated.mod, opts);
    auto sim = simulate(mon.module);
    sim->poke("e", uint64_t(1));
    tick(*sim, 4);
    EXPECT_TRUE(sim->log().empty());
    EXPECT_EQ(sim->peekU64(StatsMonitorResult::counterSignal("e")), 4u);
}

TEST(StatsMonitorTest, BlockingWrittenEventsAreSampledPreEdge)
{
    // Regression (found by fuzzing): generated monitor processes used
    // to be appended after the user's clocked processes, so a blocking
    // assignment to the event register in the same edge was counted one
    // cycle early. Monitors sample the pre-edge view of the design.
    auto elaborated = flatWithConsts(
        "module m(input wire clk, input wire x, output reg ev);\n"
        "always @(posedge clk) ev = x;\nendmodule");
    StatsMonitorOptions opts;
    opts.events.push_back(statsEvent("ev", "ev"));
    opts.logChanges = false;
    StatsMonitorResult mon = applyStatsMonitor(*elaborated.mod, opts);
    auto sim = simulate(mon.module);
    sim->poke("x", uint64_t(1));
    tick(*sim);
    // The pulse is written by a blocking assign during this edge; the
    // pre-edge view the monitor samples is still low.
    EXPECT_EQ(sim->peekU64(StatsMonitorResult::counterSignal("ev")),
              0u);
    sim->poke("x", uint64_t(0));
    tick(*sim);
    EXPECT_EQ(sim->peekU64(StatsMonitorResult::counterSignal("ev")),
              1u);
    tick(*sim, 3);
    EXPECT_EQ(sim->peekU64(StatsMonitorResult::counterSignal("ev")),
              1u);
}
