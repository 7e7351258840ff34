/**
 * @file
 * Tests for elaboration: parameter resolution, flattening, port binding.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "hdl/printer.hh"

using namespace hwdbg;
using namespace hwdbg::hdl;
using namespace hwdbg::elab;

TEST(EvalConstTest, Arithmetic)
{
    Design d = parse("module m();\nlocalparam X = 3 + 4 * 2;\nendmodule");
    ElabResult result = elaborate(d, "m");
    EXPECT_EQ(result.constants.at("X").toU64(), 11u);
}

TEST(EvalConstTest, ParamsReferenceEarlierParams)
{
    Design d = parse(
        "module m();\nparameter W = 8;\nlocalparam D = W * 2;\n"
        "localparam E = D - 1;\nendmodule");
    ElabResult result = elaborate(d, "m");
    EXPECT_EQ(result.constants.at("D").toU64(), 16u);
    EXPECT_EQ(result.constants.at("E").toU64(), 15u);
}

TEST(EvalConstTest, TernaryAndComparison)
{
    Design d = parse(
        "module m();\nparameter W = 8;\n"
        "localparam X = W > 4 ? 100 : 200;\nendmodule");
    EXPECT_EQ(elaborate(d, "m").constants.at("X").toU64(), 100u);
}

TEST(EvalConstTest, NonConstantThrows)
{
    Design d = parse(
        "module m();\nwire w;\nlocalparam X = w + 1;\nendmodule");
    EXPECT_THROW(elaborate(d, "m"), HdlError);
}

TEST(EvalConstTest, NonThrowingFormTreatsIdentifierAsUnknown)
{
    EXPECT_FALSE(tryEvalConst(mkId("x")).has_value());
    EXPECT_THROW(evalConst(mkId("x"), {}), HdlError);
    EXPECT_EQ(evalConst(mkId("x"), {{"x", Bits(8, 5)}}).toU64(), 5u);
    EXPECT_EQ(tryEvalConst(parseExprText("3 + 4"))->toU64(), 7u);
}

namespace
{

/** The message elaborate() raises on a one-line body, or "" if none. */
std::string
elabError(const std::string &body)
{
    Design d = parse("module m();\n" + body + "\nendmodule");
    try {
        elaborate(d, "m");
    } catch (const HdlError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(ElaborateCapsTest, WidthCapIsInclusive)
{
    std::string cap = std::to_string(kMaxVectorWidth);
    EXPECT_EQ(elabError("reg [" + std::to_string(kMaxVectorWidth - 1) +
                        ":0] w;"),
              "");
    EXPECT_EQ(elabError("reg [" + cap + ":0] w;"),
              "<input>:2:15: 'w' is wider than " + cap + " bits");
    // A bound past 32 bits must not wrap to a narrow vector.
    EXPECT_NE(elabError("reg [4294967296:0] w;"), "");
}

TEST(ElaborateCapsTest, ReplicationCountCapIsInclusive)
{
    std::string cap = std::to_string(kMaxReplication);
    EXPECT_EQ(elabError("wire w;\nassign w = {" + cap + "{1'b1}};"), "");
    EXPECT_EQ(elabError("wire w;\nassign w = {" +
                        std::to_string(kMaxReplication + 1) + "{1'b1}};"),
              "<input>:3:12: replication count " +
                  std::to_string(kMaxReplication + 1) + " is larger than " +
                  cap);
    // Division by zero folds to all ones: a count, not a crash.
    EXPECT_EQ(elabError("wire w;\nassign w = {(8/0){1'b1}};"),
              "<input>:3:12: replication count 4294967295 is larger than " +
                  cap);
    EXPECT_EQ(elabError("wire w;\nassign w = {0{1'b1}};"),
              "<input>:3:12: replication count must be positive");
    // Counts are folded in full, not truncated to their low 32 bits.
    EXPECT_NE(elabError("wire w;\nassign w = {64'h100000001{1'b1}};"), "");
}

TEST(ElaborateCapsTest, MemoryDepthCapIsInclusive)
{
    std::string cap = std::to_string(kMaxMemoryDepth);
    EXPECT_EQ(elabError("reg [7:0] m [0:" +
                        std::to_string(kMaxMemoryDepth - 1) + "];"),
              "");
    EXPECT_EQ(elabError("reg [7:0] m [0:" + cap + "];"),
              "<input>:2:11: memory 'm' is deeper than " + cap + " words");
    EXPECT_NE(elabError("reg [7:0] m [4294967296:0];"), "");
}

TEST(ElaborateCapsTest, InstanceNestingCapIsInclusive)
{
    // A chain of @p levels distinct modules, m0 (the top) to m<levels-1>.
    auto chain = [](int levels) {
        std::string src;
        for (int i = 0; i < levels; ++i) {
            src.append("module m").append(std::to_string(i)).append("();\n");
            if (i + 1 < levels)
                src.append("m").append(std::to_string(i + 1)).append(
                    " u();\n");
            src.append("endmodule\n");
        }
        try {
            elaborate(parse(src), "m0");
        } catch (const HdlError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_EQ(chain(kMaxNesting), "");
    int over = kMaxNesting + 1;
    EXPECT_EQ(chain(over),
              "<input>:" + std::to_string(3 * kMaxNesting - 1) +
                  ":1: instance 'u' nesting deeper than " +
                  std::to_string(kMaxNesting) + " levels");
}

TEST(ElaborateCapsTest, ShapeHelperReadsDeclaredForm)
{
    Design d = parse("module m();\nreg [7:0] mem [0:3];\nwire s;\n"
                     "endmodule");
    ElabResult result = elaborate(d, "m");
    EXPECT_EQ(netWidth(*result.mod->findNet("mem")), 8u);
    EXPECT_EQ(memoryDepth(*result.mod->findNet("mem")), 4u);
    EXPECT_EQ(netWidth(*result.mod->findNet("s")), 1u);
    EXPECT_EQ(memoryDepth(*result.mod->findNet("s")), 0u);
}

TEST(ElaborateTest, TopParamOverride)
{
    Design d = parse(
        "module m #(parameter W = 4)(input wire [W-1:0] a);\nendmodule");
    ElabResult result = elaborate(d, "m", {{"W", Bits(32, 16)}});
    NetItem *a = result.mod->findNet("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(evalConst(a->range->msb, {}).toU64(), 15u);
}

TEST(ElaborateTest, LocalparamIgnoresOverride)
{
    Design d = parse("module m();\nlocalparam W = 4;\nendmodule");
    ElabResult result = elaborate(d, "m", {{"W", Bits(32, 99)}});
    EXPECT_EQ(result.constants.at("W").toU64(), 4u);
}

TEST(ElaborateTest, RangesFoldedToConstants)
{
    Design d = parse(
        "module m #(parameter W = 8)();\nreg [W-1:0] mem [0:W*2-1];\n"
        "endmodule");
    ElabResult result = elaborate(d, "m");
    NetItem *mem = result.mod->findNet("mem");
    EXPECT_EQ(evalConst(mem->range->msb, {}).toU64(), 7u);
    EXPECT_EQ(evalConst(mem->array->msb, {}).toU64(), 15u);
}

TEST(ElaborateTest, InstanceFlattening)
{
    Design d = parse(
        "module child(input wire a, output wire b);\n"
        "assign b = !a;\nendmodule\n"
        "module top(input wire x, output wire y);\n"
        "child u_c (.a(x), .b(y));\nendmodule");
    ElabResult result = elaborate(d, "top");
    // Child nets are prefixed; no Instance items remain.
    EXPECT_NE(result.mod->findNet("u_c__a"), nullptr);
    EXPECT_NE(result.mod->findNet("u_c__b"), nullptr);
    for (const auto &item : result.mod->items)
        EXPECT_NE(item->kind, ItemKind::Instance);
    // Top ports preserved.
    ASSERT_EQ(result.mod->ports.size(), 2u);
    EXPECT_EQ(result.mod->findNet("x")->dir, PortDir::Input);
}

TEST(ElaborateTest, NestedInstancePrefixes)
{
    Design d = parse(
        "module leaf(input wire i, output wire o);\nassign o = i;\n"
        "endmodule\n"
        "module mid(input wire i, output wire o);\n"
        "leaf u_l (.i(i), .o(o));\nendmodule\n"
        "module top(input wire i, output wire o);\n"
        "mid u_m (.i(i), .o(o));\nendmodule");
    ElabResult result = elaborate(d, "top");
    EXPECT_NE(result.mod->findNet("u_m__u_l__i"), nullptr);
}

TEST(ElaborateTest, ParamOverrideAtInstance)
{
    Design d = parse(
        "module child #(parameter W = 2)(output wire [W-1:0] o);\n"
        "assign o = {W{1'b1}};\nendmodule\n"
        "module top(output wire [7:0] y);\n"
        "child #(.W(8)) u_c (.o(y));\nendmodule");
    ElabResult result = elaborate(d, "top");
    NetItem *o = result.mod->findNet("u_c__o");
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(evalConst(o->range->msb, {}).toU64(), 7u);
}

TEST(ElaborateTest, PositionalConnections)
{
    Design d = parse(
        "module child(input wire a, output wire b);\nassign b = a;\n"
        "endmodule\n"
        "module top(input wire x, output wire y);\n"
        "child u_c (x, y);\nendmodule");
    ElabResult result = elaborate(d, "top");
    EXPECT_NE(result.mod->findNet("u_c__a"), nullptr);
}

TEST(ElaborateTest, PrimitiveRetainedWithFoldedParams)
{
    Design d = parse(
        "module top #(parameter D = 8)(input wire clk);\n"
        "wire [7:0] q;\nwire e, f;\nreg w, r;\nreg [7:0] din;\n"
        "scfifo #(.WIDTH(4 * 2), .DEPTH(D)) u_f (.clock(clk), .data(din),"
        " .wrreq(w), .rdreq(r), .q(q), .empty(e), .full(f));\nendmodule");
    ElabResult result = elaborate(d, "top");
    const InstanceItem *prim = nullptr;
    for (const auto &item : result.mod->items)
        if (item->kind == ItemKind::Instance)
            prim = item->as<InstanceItem>();
    ASSERT_NE(prim, nullptr);
    EXPECT_EQ(prim->instName, "u_f");
    for (const auto &[name, value] : prim->paramOverrides) {
        if (name == "WIDTH") {
            EXPECT_EQ(evalConst(value, {}).toU64(), 8u);
        }
        if (name == "DEPTH") {
            EXPECT_EQ(evalConst(value, {}).toU64(), 8u);
        }
    }
}

TEST(ElaborateTest, UnknownModuleThrows)
{
    Design d = parse("module top();\nmissing u_m ();\nendmodule");
    EXPECT_THROW(elaborate(d, "top"), HdlError);
}

TEST(ElaborateTest, UnknownTopThrows)
{
    Design d = parse("module top(); endmodule");
    EXPECT_THROW(elaborate(d, "nope"), HdlError);
}

TEST(ElaborateTest, RecursionDetected)
{
    Design d = parse("module a();\na u ();\nendmodule");
    EXPECT_THROW(elaborate(d, "a"), HdlError);
}

TEST(ElaborateTest, UnknownPortThrows)
{
    Design d = parse(
        "module child(input wire a);\nendmodule\n"
        "module top(input wire x);\nchild u (.nope(x));\nendmodule");
    EXPECT_THROW(elaborate(d, "top"), HdlError);
}

TEST(ElaborateTest, OutputToNonLValueThrows)
{
    Design d = parse(
        "module child(output wire b);\nassign b = 1'b1;\nendmodule\n"
        "module top(input wire x, input wire y);\n"
        "child u (.b(x + y));\nendmodule");
    EXPECT_THROW(elaborate(d, "top"), HdlError);
}

TEST(ElaborateTest, FlatModuleIsReparseable)
{
    Design d = parse(
        "module child #(parameter W = 4)(input wire clk,\n"
        "    input wire [W-1:0] a, output reg [W-1:0] b);\n"
        "always @(posedge clk) b <= a + 1;\nendmodule\n"
        "module top(input wire clk, input wire [7:0] i,\n"
        "    output wire [7:0] o);\n"
        "child #(.W(8)) u_c (.clk(clk), .a(i), .b(o));\nendmodule");
    ElabResult result = elaborate(d, "top");
    std::string printed = printModule(*result.mod);
    Design reparsed = parse(printed);
    ASSERT_EQ(reparsed.modules.size(), 1u);
    std::string again = printModule(*elaborate(reparsed, "top").mod);
    EXPECT_EQ(printed, again);
}
