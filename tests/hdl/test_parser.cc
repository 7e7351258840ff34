/**
 * @file
 * Tests for the Verilog parser.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "hdl/parser.hh"

using namespace hwdbg::hdl;
using hwdbg::HdlError;

namespace
{

ModulePtr
parseOne(const std::string &src)
{
    Design design = parse(src);
    EXPECT_EQ(design.modules.size(), 1u);
    return design.modules[0];
}

} // namespace

TEST(ParserTest, EmptyModule)
{
    auto mod = parseOne("module m();\nendmodule\n");
    EXPECT_EQ(mod->name, "m");
    EXPECT_TRUE(mod->ports.empty());
}

TEST(ParserTest, AnsiPorts)
{
    auto mod = parseOne(
        "module m(input wire clk, input wire [7:0] a, output reg [3:0] b);"
        "endmodule");
    ASSERT_EQ(mod->ports.size(), 3u);
    EXPECT_EQ(mod->ports[0], "clk");
    NetItem *a = mod->findNet("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->dir, PortDir::Input);
    EXPECT_EQ(a->net, NetKind::Wire);
    ASSERT_TRUE(a->range.has_value());
    NetItem *b = mod->findNet("b");
    EXPECT_EQ(b->dir, PortDir::Output);
    EXPECT_EQ(b->net, NetKind::Reg);
}

TEST(ParserTest, PortDirectionCarriesOver)
{
    auto mod = parseOne("module m(input wire a, b, output wire c);"
                        "endmodule");
    EXPECT_EQ(mod->findNet("b")->dir, PortDir::Input);
    EXPECT_EQ(mod->findNet("c")->dir, PortDir::Output);
}

TEST(ParserTest, ParameterHeader)
{
    auto mod = parseOne(
        "module m #(parameter W = 8, parameter D = 16)(input wire clk);"
        "endmodule");
    int headers = 0;
    for (const auto &item : mod->items)
        if (item->kind == ItemKind::Param &&
            item->as<ParamItem>()->inHeader)
            ++headers;
    EXPECT_EQ(headers, 2);
}

TEST(ParserTest, BodyParamsAndLocalparams)
{
    auto mod = parseOne(
        "module m();\n"
        "parameter W = 4;\n"
        "localparam IDLE = 2'd0, WORK = 2'd1;\n"
        "endmodule");
    int params = 0, locals = 0;
    for (const auto &item : mod->items) {
        if (item->kind != ItemKind::Param)
            continue;
        if (item->as<ParamItem>()->isLocal)
            ++locals;
        else
            ++params;
    }
    EXPECT_EQ(params, 1);
    EXPECT_EQ(locals, 2);
}

TEST(ParserTest, NetDeclarations)
{
    auto mod = parseOne(
        "module m();\n"
        "wire [7:0] w1, w2;\n"
        "reg r;\n"
        "reg [31:0] mem [0:63];\n"
        "integer i;\n"
        "endmodule");
    EXPECT_EQ(mod->findNet("w1")->net, NetKind::Wire);
    EXPECT_NE(mod->findNet("w2"), nullptr);
    EXPECT_FALSE(mod->findNet("r")->range.has_value());
    ASSERT_TRUE(mod->findNet("mem")->array.has_value());
    ASSERT_TRUE(mod->findNet("i")->range.has_value());
    EXPECT_EQ(mod->findNet("i")->net, NetKind::Reg);
}

TEST(ParserTest, AlwaysPosedge)
{
    auto mod = parseOne(
        "module m(input wire clk);\n"
        "reg [3:0] x;\n"
        "always @(posedge clk) x <= x + 1;\n"
        "endmodule");
    const AlwaysItem *always = nullptr;
    for (const auto &item : mod->items)
        if (item->kind == ItemKind::Always)
            always = item->as<AlwaysItem>();
    ASSERT_NE(always, nullptr);
    EXPECT_FALSE(always->isComb);
    ASSERT_EQ(always->sens.size(), 1u);
    EXPECT_EQ(always->sens[0].signal, "clk");
    EXPECT_EQ(always->sens[0].edge, EdgeKind::Posedge);
    ASSERT_EQ(always->body->kind, StmtKind::Assign);
    EXPECT_TRUE(always->body->as<AssignStmt>()->nonblocking);
}

TEST(ParserTest, AlwaysCombStar)
{
    auto mod = parseOne(
        "module m();\nreg a, b;\nalways @* a = b;\n"
        "always @(*) b = a;\nendmodule");
    int comb = 0;
    for (const auto &item : mod->items)
        if (item->kind == ItemKind::Always &&
            item->as<AlwaysItem>()->isComb)
            ++comb;
    EXPECT_EQ(comb, 2);
}

TEST(ParserTest, CaseStatement)
{
    auto mod = parseOne(
        "module m(input wire clk);\n"
        "reg [1:0] state;\n"
        "always @(posedge clk)\n"
        "  case (state)\n"
        "    2'd0: state <= 2'd1;\n"
        "    2'd1, 2'd2: state <= 2'd0;\n"
        "    default: state <= 2'd0;\n"
        "  endcase\n"
        "endmodule");
    const AlwaysItem *always = nullptr;
    for (const auto &item : mod->items)
        if (item->kind == ItemKind::Always)
            always = item->as<AlwaysItem>();
    ASSERT_EQ(always->body->kind, StmtKind::Case);
    const auto *sel = always->body->as<CaseStmt>();
    ASSERT_EQ(sel->items.size(), 3u);
    EXPECT_EQ(sel->items[1].labels.size(), 2u);
    EXPECT_TRUE(sel->items[2].labels.empty());
}

TEST(ParserTest, OperatorPrecedence)
{
    auto mod = parseOne(
        "module m();\nwire [7:0] a, b, c, x;\n"
        "assign x = a + b * c;\nendmodule");
    const ContAssignItem *assign = nullptr;
    for (const auto &item : mod->items)
        if (item->kind == ItemKind::ContAssign)
            assign = item->as<ContAssignItem>();
    ASSERT_EQ(assign->rhs->kind, ExprKind::Binary);
    const auto *add = assign->rhs->as<BinaryExpr>();
    EXPECT_EQ(add->op, BinaryOp::Add);
    EXPECT_EQ(add->rhs->kind, ExprKind::Binary);
    EXPECT_EQ(add->rhs->as<BinaryExpr>()->op, BinaryOp::Mul);
}

TEST(ParserTest, TernaryRightAssociative)
{
    auto mod = parseOne(
        "module m();\nwire a, b, x, y, z, out;\n"
        "assign out = a ? x : b ? y : z;\nendmodule");
    const ContAssignItem *assign = nullptr;
    for (const auto &item : mod->items)
        if (item->kind == ItemKind::ContAssign)
            assign = item->as<ContAssignItem>();
    ASSERT_EQ(assign->rhs->kind, ExprKind::Ternary);
    EXPECT_EQ(assign->rhs->as<TernaryExpr>()->elseExpr->kind,
              ExprKind::Ternary);
}

TEST(ParserTest, ConcatAndReplication)
{
    auto mod = parseOne(
        "module m();\nwire [15:0] x;\nwire [7:0] a;\n"
        "assign x = {a, {2{4'ha}}};\nendmodule");
    const ContAssignItem *assign = nullptr;
    for (const auto &item : mod->items)
        if (item->kind == ItemKind::ContAssign)
            assign = item->as<ContAssignItem>();
    ASSERT_EQ(assign->rhs->kind, ExprKind::Concat);
    const auto *cat = assign->rhs->as<ConcatExpr>();
    ASSERT_EQ(cat->parts.size(), 2u);
    EXPECT_EQ(cat->parts[1]->kind, ExprKind::Repeat);
}

TEST(ParserTest, BitAndPartSelect)
{
    auto mod = parseOne(
        "module m();\nwire [7:0] a;\nwire b;\nwire [3:0] c;\n"
        "assign b = a[3];\nassign c = a[7:4];\nendmodule");
    std::vector<const ContAssignItem *> assigns;
    for (const auto &item : mod->items)
        if (item->kind == ItemKind::ContAssign)
            assigns.push_back(item->as<ContAssignItem>());
    ASSERT_EQ(assigns.size(), 2u);
    EXPECT_EQ(assigns[0]->rhs->kind, ExprKind::Index);
    EXPECT_EQ(assigns[1]->rhs->kind, ExprKind::Range);
    EXPECT_EQ(assigns[1]->rhs->as<RangeExpr>()->base, "a");
}

TEST(ParserTest, InstanceNamedConnections)
{
    auto mod = parseOne(
        "module m();\nwire a, b;\n"
        "sub #(.W(8)) u_sub (.x(a), .y(b), .z());\nendmodule");
    const InstanceItem *inst = nullptr;
    for (const auto &item : mod->items)
        if (item->kind == ItemKind::Instance)
            inst = item->as<InstanceItem>();
    ASSERT_NE(inst, nullptr);
    EXPECT_EQ(inst->moduleName, "sub");
    EXPECT_EQ(inst->instName, "u_sub");
    ASSERT_EQ(inst->paramOverrides.size(), 1u);
    EXPECT_EQ(inst->paramOverrides[0].first, "W");
    ASSERT_EQ(inst->conns.size(), 3u);
    EXPECT_EQ(inst->conns[2].actual, nullptr);
}

TEST(ParserTest, DisplayAndFinish)
{
    auto mod = parseOne(
        "module m(input wire clk);\nreg [7:0] x;\n"
        "always @(posedge clk) begin\n"
        "  $display(\"x=%d y=%h\", x, x + 1);\n"
        "  $finish;\n"
        "end\nendmodule");
    const AlwaysItem *always = nullptr;
    for (const auto &item : mod->items)
        if (item->kind == ItemKind::Always)
            always = item->as<AlwaysItem>();
    const auto *block = always->body->as<BlockStmt>();
    ASSERT_EQ(block->stmts.size(), 2u);
    ASSERT_EQ(block->stmts[0]->kind, StmtKind::Display);
    const auto *disp = block->stmts[0]->as<DisplayStmt>();
    EXPECT_EQ(disp->format, "x=%d y=%h");
    EXPECT_EQ(disp->args.size(), 2u);
    EXPECT_EQ(block->stmts[1]->kind, StmtKind::Finish);
}

TEST(ParserTest, LValueConcat)
{
    auto mod = parseOne(
        "module m(input wire clk);\nreg c;\nreg [7:0] s;\n"
        "always @(posedge clk) {c, s} <= s + 1;\nendmodule");
    const AlwaysItem *always = nullptr;
    for (const auto &item : mod->items)
        if (item->kind == ItemKind::Always)
            always = item->as<AlwaysItem>();
    EXPECT_EQ(always->body->as<AssignStmt>()->lhs->kind, ExprKind::Concat);
}

TEST(ParserTest, MultipleModules)
{
    Design design = parse("module a(); endmodule\nmodule b(); endmodule");
    EXPECT_EQ(design.modules.size(), 2u);
    EXPECT_NE(design.findModule("a"), nullptr);
    EXPECT_NE(design.findModule("b"), nullptr);
    EXPECT_EQ(design.findModule("c"), nullptr);
}

TEST(ParserTest, ParseWithDefinesSwitchesVariant)
{
    std::string src =
        "module m(input wire clk);\nreg [3:0] x;\n"
        "always @(posedge clk)\n"
        "`ifdef BUG\n  x <= 4'd1;\n`else\n  x <= 4'd2;\n`endif\n"
        "endmodule";
    Design buggy = parseWithDefines(src, {{"BUG", ""}});
    Design fixed = parseWithDefines(src, {});
    EXPECT_EQ(buggy.modules.size(), 1u);
    EXPECT_EQ(fixed.modules.size(), 1u);
}

TEST(ParserTest, ErrorsCarryLocations)
{
    try {
        parse("module m();\nwire w = ;\nendmodule", "bad.v");
        FAIL() << "expected HdlError";
    } catch (const HdlError &err) {
        EXPECT_NE(std::string(err.what()).find("bad.v:2"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ParserTest, RejectsNonAnsiPorts)
{
    EXPECT_THROW(parse("module m(a);\ninput a;\nendmodule"), HdlError);
}

TEST(ParserTest, RejectsInout)
{
    EXPECT_THROW(parse("module m(inout wire a);\nendmodule"), HdlError);
}

TEST(ParserTest, RejectsUnsupportedSystemTask)
{
    EXPECT_THROW(parse("module m(input wire clk);\n"
                       "always @(posedge clk) $stop;\nendmodule"),
                 HdlError);
}

namespace
{

std::string
repeat(const std::string &text, int count)
{
    std::string out;
    for (int i = 0; i < count; ++i)
        out += text;
    return out;
}

/** The parse error of @p body inside a module, or "" when it parses. */
std::string
parseError(const std::string &body)
{
    try {
        parse("module m(input wire x, output wire y);\nreg r;\n" + body +
              "\nendmodule");
    } catch (const HdlError &e) {
        return e.what();
    }
    return "";
}

bool
endsWithNestingError(const std::string &msg)
{
    std::string tail = "nesting deeper than " + std::to_string(kMaxNesting);
    return msg.size() >= tail.size() &&
           msg.compare(msg.size() - tail.size(), tail.size(), tail) == 0;
}

} // namespace

TEST(ParserTest, NestingLimitIsInclusive)
{
    // The assignment's expression is one level; each parenthesis or
    // chained operator adds one.
    int inner = kMaxNesting - 1;
    EXPECT_EQ(parseError("assign y = " + repeat("(", inner) + "x" +
                         repeat(")", inner) + ";"),
              "");
    EXPECT_TRUE(endsWithNestingError(
        parseError("assign y = " + repeat("(", inner + 1) + "x" +
                   repeat(")", inner + 1) + ";")));
    EXPECT_EQ(parseError("assign y = x" + repeat(" + x", inner) + ";"), "");
    EXPECT_TRUE(endsWithNestingError(
        parseError("assign y = x" + repeat(" + x", inner + 1) + ";")));
}

TEST(ParserTest, DeepInputFailsInsteadOfExhaustingTheStack)
{
    const std::vector<std::string> bodies = {
        "assign y = " + repeat("(", 20000) + "x" + repeat(")", 20000) +
            ";",
        "assign y = x" + repeat(" + x", 100000) + ";",
        "assign y = " + repeat("~", 100000) + "x;",
        "always @(posedge x) " + repeat("begin ", 100000) + "r <= 1;" +
            repeat(" end", 100000),
        "always @(posedge x) " + repeat("if (x) r <= 1; else ", 10000) +
            "r <= 0;",
        // Parenthesised chains nest: their heights add up.
        "assign y = " + repeat("(", 100) + "x" +
            repeat(" + x", 10) + repeat(")" + repeat(" + x", 10), 100) +
            ";",
    };
    for (const auto &body : bodies)
        EXPECT_TRUE(endsWithNestingError(parseError(body)))
            << body.substr(0, 60);
}

TEST(ParserTest, FileNamesInternAcrossThreads)
{
    // Concurrent parses (as serve runs them) share one intern table:
    // each location keeps its own file's name, and equal names intern
    // to equal handles.
    std::vector<std::thread> threads;
    std::vector<std::string> seen(4);
    for (size_t t = 0; t < seen.size(); ++t)
        threads.emplace_back([&, t] {
            std::string file = "f" + std::to_string(t % 2) + ".v";
            for (int i = 0; i < 50; ++i) {
                Design design =
                    parse("module m();\nwire w;\nendmodule", file);
                seen[t] = design.modules[0]->items[0]->loc.str();
            }
        });
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(seen[0], "f0.v:2:6");
    EXPECT_EQ(seen[1], "f1.v:2:6");
    EXPECT_EQ(seen[2], "f0.v:2:6");
    EXPECT_EQ(seen[3], "f1.v:2:6");
    EXPECT_EQ(SourceLoc{"f0.v"}.file, FileName(std::string("f0.v")));
    EXPECT_FALSE(SourceLoc{"f0.v"}.file == SourceLoc{"f1.v"}.file);
    EXPECT_TRUE(SourceLoc{}.file.empty());
}
