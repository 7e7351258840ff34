/**
 * @file
 * Tests for FSM detection heuristics (FSM Monitor, §4.2).
 */

#include <gtest/gtest.h>

#include "analyze/context.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"

using namespace hwdbg;
using namespace hwdbg::hdl;
using namespace hwdbg::analyze;

namespace
{

std::vector<FsmInfo>
detect(const std::string &src, const std::string &top = "m")
{
    return Context(*elab::elaborate(parse(src), top).mod).fsms();
}

const FsmInfo *
byVar(const std::vector<FsmInfo> &fsms, const std::string &name)
{
    for (const auto &fsm : fsms)
        if (fsm.stateVar == name)
            return &fsm;
    return nullptr;
}

// The paper's Listing 1 FSM, written with localparams.
const char *listing1 =
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

TEST(FsmDetectTest, DetectsListing1Fsm)
{
    auto fsms = detect(listing1);
    ASSERT_EQ(fsms.size(), 1u);
    const FsmInfo &fsm = fsms[0];
    EXPECT_EQ(fsm.stateVar, "state");
    EXPECT_EQ(fsm.clock, "clk");
    EXPECT_EQ(fsm.states.size(), 3u);
    ASSERT_EQ(fsm.transitions.size(), 3u);
    // IDLE -> WORK transition exists with from=0, to=1.
    bool idle_to_work = false;
    for (const auto &trans : fsm.transitions)
        if (trans.fromState && trans.fromState->toU64() == 0 &&
            trans.toState.toU64() == 1)
            idle_to_work = true;
    EXPECT_TRUE(idle_to_work);
}

TEST(FsmDetectTest, IfStyleFsmDetected)
{
    auto fsms = detect(
        "module m(input wire clk, input wire go);\n"
        "reg [1:0] st;\n"
        "always @(posedge clk) begin\n"
        "  if (st == 2'd0 && go) st <= 2'd1;\n"
        "  if (st == 2'd1) st <= 2'd0;\nend\nendmodule");
    EXPECT_NE(byVar(fsms, "st"), nullptr);
}

TEST(FsmDetectTest, CounterNotDetected)
{
    // Arithmetic on the register excludes it.
    auto fsms = detect(
        "module m(input wire clk);\nreg [7:0] count;\n"
        "always @(posedge clk)\n"
        "  if (count == 8'd10) count <= 8'd0;\n"
        "  else count <= count + 8'd1;\nendmodule");
    EXPECT_EQ(byVar(fsms, "count"), nullptr);
}

TEST(FsmDetectTest, BitSelectedRegisterNotDetected)
{
    auto fsms = detect(
        "module m(input wire clk, output wire low);\n"
        "reg [1:0] mode;\n"
        "assign low = mode[0];\n"
        "always @(posedge clk)\n"
        "  if (mode == 2'd0) mode <= 2'd1;\n"
        "  else if (mode == 2'd1) mode <= 2'd0;\nendmodule");
    EXPECT_EQ(byVar(fsms, "mode"), nullptr);
}

TEST(FsmDetectTest, DataRegisterNotDetected)
{
    // Assigned from a non-constant: not an FSM.
    auto fsms = detect(
        "module m(input wire clk, input wire [1:0] d);\nreg [1:0] r;\n"
        "always @(posedge clk) if (r == 2'd0) r <= d;\nendmodule");
    EXPECT_EQ(byVar(fsms, "r"), nullptr);
}

TEST(FsmDetectTest, FlagToggleWithoutSelfTestNotDetected)
{
    // Constant assignments whose guards never inspect the register: a
    // mode flag, not a state machine.
    auto fsms = detect(
        "module m(input wire clk, input wire a, input wire b);\nreg f;\n"
        "always @(posedge clk) begin\n"
        "  if (a) f <= 1'b1;\n  if (b) f <= 1'b0;\nend\nendmodule");
    EXPECT_EQ(byVar(fsms, "f"), nullptr);
}

TEST(FsmDetectTest, TwoProcessStyleIsAKnownFalseNegative)
{
    // Next-state comes through a wire: the heuristics miss it, matching
    // the paper's reported false negatives.
    auto fsms = detect(
        "module m(input wire clk, input wire go);\n"
        "reg [1:0] st;\nreg [1:0] next;\n"
        "always @* begin\n"
        "  next = st;\n"
        "  if (st == 2'd0 && go) next = 2'd1;\n"
        "  if (st == 2'd1) next = 2'd0;\nend\n"
        "always @(posedge clk) st <= next;\nendmodule");
    EXPECT_EQ(byVar(fsms, "st"), nullptr);
}

TEST(FsmDetectTest, MultipleFsmsInOneModule)
{
    auto fsms = detect(
        "module m(input wire clk, input wire a, input wire b);\n"
        "reg [1:0] rd_state;\nreg [1:0] wr_state;\n"
        "always @(posedge clk) begin\n"
        "  case (rd_state)\n"
        "    2'd0: if (a) rd_state <= 2'd1;\n"
        "    2'd1: rd_state <= 2'd0;\n"
        "  endcase\n"
        "  case (wr_state)\n"
        "    2'd0: if (b) wr_state <= 2'd2;\n"
        "    2'd2: wr_state <= 2'd0;\n"
        "  endcase\nend\nendmodule");
    EXPECT_NE(byVar(fsms, "rd_state"), nullptr);
    EXPECT_NE(byVar(fsms, "wr_state"), nullptr);
}

TEST(FsmDetectTest, ResetOnlyConstantRegNotDetected)
{
    // One state value only: not a machine.
    auto fsms = detect(
        "module m(input wire clk, input wire rst);\nreg [1:0] r;\n"
        "always @(posedge clk) if (rst && r == 2'd0) r <= 2'd0;\n"
        "endmodule");
    EXPECT_EQ(byVar(fsms, "r"), nullptr);
}

TEST(FsmDetectTest, FlattenedSubmoduleFsmDetected)
{
    std::string src =
        "module child(input wire clk, input wire go);\n"
        "reg [1:0] cs;\n"
        "always @(posedge clk)\ncase (cs)\n"
        "  2'd0: if (go) cs <= 2'd1;\n  2'd1: cs <= 2'd0;\nendcase\n"
        "endmodule\n"
        "module m(input wire clk, input wire go);\n"
        "child u_c (.clk(clk), .go(go));\nendmodule";
    auto fsms = detect(src);
    EXPECT_NE(byVar(fsms, "u_c__cs"), nullptr);
}
