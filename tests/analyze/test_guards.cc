/**
 * @file
 * Tests for path-constraint extraction and wire inlining.
 */

#include <gtest/gtest.h>

#include "analyze/context.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "hdl/printer.hh"

using namespace hwdbg;
using namespace hwdbg::hdl;
using namespace hwdbg::analyze;

namespace
{

ModulePtr
flat(const std::string &src, const std::string &top = "m")
{
    return elab::elaborate(parse(src), top).mod;
}

const GuardedAssign *
assignTo(const std::vector<GuardedAssign> &assigns,
         const std::string &target)
{
    for (const auto &ga : assigns)
        if (ga.lhs->kind == ExprKind::Id &&
            ga.lhs->as<IdExpr>()->name == target)
            return &ga;
    return nullptr;
}

} // namespace

TEST(GuardsTest, UnconditionalAssignHasTrueGuard)
{
    auto mod = flat("module m(input wire clk);\nreg [3:0] x;\n"
                    "always @(posedge clk) x <= x;\nendmodule");
    auto assigns = Context(*mod).assigns();
    const auto *ga = assignTo(assigns, "x");
    ASSERT_NE(ga, nullptr);
    EXPECT_EQ(printExpr(ga->guard), "1'h1");
    EXPECT_TRUE(ga->sequential);
    EXPECT_EQ(ga->clock, "clk");
}

TEST(GuardsTest, NestedIfGuards)
{
    auto mod = flat(
        "module m(input wire clk, input wire a, input wire b);\n"
        "reg x, y;\n"
        "always @(posedge clk) begin\n"
        "  if (a) begin\n"
        "    if (b) x <= 1'b1;\n"
        "    else y <= 1'b1;\n"
        "  end\nend\nendmodule");
    auto assigns = Context(*mod).assigns();
    EXPECT_EQ(printExpr(assignTo(assigns, "x")->guard), "a && b");
    EXPECT_EQ(printExpr(assignTo(assigns, "y")->guard), "a && !b");
}

TEST(GuardsTest, CaseGuardsWithPriority)
{
    auto mod = flat(
        "module m(input wire clk, input wire [1:0] s);\n"
        "reg a, b, c;\n"
        "always @(posedge clk)\ncase (s)\n"
        "  2'd0: a <= 1'b1;\n"
        "  2'd1: b <= 1'b1;\n"
        "  default: c <= 1'b1;\nendcase\nendmodule");
    auto assigns = Context(*mod).assigns();
    EXPECT_EQ(printExpr(assignTo(assigns, "a")->guard), "s == 2'h0");
    // Later items carry the negation of earlier label matches.
    EXPECT_NE(printExpr(assignTo(assigns, "b")->guard).find("s == 2'h1"),
              std::string::npos);
    std::string c_guard = printExpr(assignTo(assigns, "c")->guard);
    EXPECT_NE(c_guard.find("!"), std::string::npos);
}

TEST(GuardsTest, ContinuousAssignCollected)
{
    auto mod = flat("module m(input wire a, output wire b);\n"
                    "assign b = !a;\nendmodule");
    auto assigns = Context(*mod).assigns();
    const auto *ga = assignTo(assigns, "b");
    ASSERT_NE(ga, nullptr);
    EXPECT_FALSE(ga->sequential);
    EXPECT_NE(ga->cont, nullptr);
}

TEST(GuardsTest, BlockingAssignNotSequential)
{
    auto mod = flat("module m(input wire clk);\nreg x;\n"
                    "always @(posedge clk) x = 1'b1;\nendmodule");
    auto assigns = Context(*mod).assigns();
    EXPECT_FALSE(assignTo(assigns, "x")->sequential);
}

TEST(GuardsTest, DisplayGuards)
{
    auto mod = flat(
        "module m(input wire clk, input wire err);\n"
        "always @(posedge clk) if (err) $display(\"bad\");\nendmodule");
    auto displays = Context(*mod).displays();
    ASSERT_EQ(displays.size(), 1u);
    EXPECT_EQ(printExpr(displays[0].guard), "err");
    EXPECT_EQ(displays[0].clock, "clk");
    EXPECT_EQ(displays[0].stmt->format, "bad");
}

TEST(ExprUtilTest, CollectSignals)
{
    auto mod = flat(
        "module m(input wire [3:0] a, input wire [3:0] b,\n"
        "         output wire [3:0] x);\nwire [3:0] t;\n"
        "assign t = a & b;\nassign x = t + a;\nendmodule");
    auto assigns = Context(*mod).assigns();
    const auto *ga = assignTo(assigns, "x");
    auto sigs = collectSignals(ga->rhs);
    EXPECT_TRUE(sigs.count("t"));
    EXPECT_TRUE(sigs.count("a"));
    EXPECT_FALSE(sigs.count("b"));
}

TEST(ExprUtilTest, LValueTargets)
{
    auto mod = flat(
        "module m(input wire clk);\nreg c;\nreg [7:0] s;\n"
        "reg [7:0] mem [0:3];\nreg [1:0] i;\n"
        "always @(posedge clk) begin\n"
        "  {c, s} <= 9'd0;\n  mem[i] <= 8'd0;\nend\nendmodule");
    auto assigns = Context(*mod).assigns();
    std::set<std::string> all;
    for (const auto &ga : assigns)
        for (const auto &target : lvalueTargets(ga.lhs))
            all.insert(target);
    EXPECT_TRUE(all.count("c"));
    EXPECT_TRUE(all.count("s"));
    EXPECT_TRUE(all.count("mem"));
}

TEST(ExprUtilTest, WiresMapSinglyDrivenWires)
{
    auto mod = flat(
        "module m(input wire [3:0] a, input wire [3:0] b,\n"
        "         output wire [3:0] x);\n"
        "wire [3:0] t, u, v;\n"
        "assign t = a & b;\nassign u = t | a;\nassign x = u;\n"
        "assign v = a;\nassign v = b;\nassign u[0] = 1'b0;\nendmodule");
    auto defs = Context(*mod).wires();
    EXPECT_EQ(printExpr(defs.at("t")), "a & b");
    EXPECT_EQ(printExpr(defs.at("x")), "u");
    // Multiply driven wires stay opaque; a part-select driver is not a
    // definition.
    EXPECT_FALSE(defs.count("v"));
    EXPECT_EQ(printExpr(defs.at("u")), "t | a");
}

TEST(GuardsTest, NestedCaseDefaultComposesNegations)
{
    // A case inside another case's default arm: the inner item's guard
    // must carry the outer no-earlier-match negations AND the inner
    // label match.
    auto mod = flat(
        "module m(input wire clk, input wire [1:0] s,\n"
        "         input wire [1:0] t);\n"
        "reg a, b;\n"
        "always @(posedge clk)\ncase (s)\n"
        "  2'd0: a <= 1'b1;\n"
        "  default: case (t)\n"
        "    2'd3: b <= 1'b1;\n"
        "  endcase\nendcase\nendmodule");
    auto assigns = Context(*mod).assigns();
    const auto *gb = assignTo(assigns, "b");
    ASSERT_NE(gb, nullptr);
    std::string guard = printExpr(gb->guard);
    EXPECT_NE(guard.find("s == 2'h0"), std::string::npos);
    EXPECT_NE(guard.find("!"), std::string::npos);
    EXPECT_NE(guard.find("t == 2'h3"), std::string::npos);
}

TEST(GuardsTest, DefaultOnlyCaseIsUnconditional)
{
    // With no labeled items, no_earlier stays literal true and the
    // default's guard collapses back to the enclosing guard.
    auto mod = flat(
        "module m(input wire clk, input wire [1:0] s);\nreg a;\n"
        "always @(posedge clk)\ncase (s)\n"
        "  default: a <= 1'b1;\nendcase\nendmodule");
    auto assigns = Context(*mod).assigns();
    EXPECT_EQ(printExpr(assignTo(assigns, "a")->guard), "1'h1");
}

TEST(GuardsTest, EmptyElseArmCollectsNothing)
{
    // `else ;` is a Null statement: it must neither crash the walker
    // nor contribute a phantom assignment.
    auto mod = flat(
        "module m(input wire clk, input wire c);\nreg x;\n"
        "always @(posedge clk) begin\n"
        "  if (c) x <= 1'b1; else ;\n"
        "  if (!c) begin end else x <= 1'b0;\nend\nendmodule");
    auto assigns = Context(*mod).assigns();
    ASSERT_EQ(assigns.size(), 2u);
    EXPECT_EQ(printExpr(assigns[0].guard), "c");
    // mkNot collapses the double negation of the else-arm guard.
    EXPECT_EQ(printExpr(assigns[1].guard), "c");
}

TEST(GuardsTest, ConstantGuardCollapse)
{
    // Literal conditions collapse through the mkAnd/mkNot smart
    // constructors instead of accreting 1'h1 && ... noise.
    auto mod = flat(
        "module m(input wire clk, input wire a);\n"
        "reg x, y, z;\n"
        "always @(posedge clk) begin\n"
        "  if (1'b1) if (a) x <= 1'b1;\n"
        "  if (1'b0) y <= 1'b1; else z <= 1'b1;\nend\nendmodule");
    auto assigns = Context(*mod).assigns();
    EXPECT_EQ(printExpr(assignTo(assigns, "x")->guard), "a");
    // The then-arm of a constant-false condition is dead on its face.
    EXPECT_EQ(printExpr(assignTo(assigns, "y")->guard), "1'h0");
    // ... and the else-arm is unconditional.
    EXPECT_EQ(printExpr(assignTo(assigns, "z")->guard), "1'h1");
}
