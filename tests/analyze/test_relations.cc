/**
 * @file
 * Tests for the register-level propagation relations (relations.cc):
 * wire-traced sources, propagation conditions, memory indices, IP
 * relations, and the propagation-path query LossCheck builds on.
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

const PropRelation *
relation(const RelationTable &table, const std::string &src,
         const std::string &dst)
{
    for (const auto &rel : table.relations())
        if (rel.src == src && rel.dst == dst)
            return &rel;
    return nullptr;
}

} // namespace

TEST(RelationsTest, DirectRegisterToRegister)
{
    auto mod = flat("module m(input wire clk, input wire [3:0] d);\n"
                    "reg [3:0] a; reg [3:0] b;\n"
                    "always @(posedge clk) a <= d;\n"
                    "always @(posedge clk) b <= a;\nendmodule");
    Context facts(*mod);
    const RelationTable &table = facts.relations();
    const auto *rel = relation(table, "a", "b");
    ASSERT_NE(rel, nullptr);
    EXPECT_EQ(rel->clock, "clk");
    EXPECT_FALSE(rel->viaIp);
    EXPECT_EQ(printExpr(rel->cond), "1'h1");
}

TEST(RelationsTest, WireMediatedSourceIsTracedBack)
{
    // b <= w where w = a ^ k: the stateful source behind the wire is a.
    auto mod = flat("module m(input wire clk, input wire [3:0] k);\n"
                    "reg [3:0] a; reg [3:0] b;\nwire [3:0] w;\n"
                    "assign w = a ^ k;\n"
                    "always @(posedge clk) a <= k;\n"
                    "always @(posedge clk) b <= w;\nendmodule");
    Context facts(*mod);
    const RelationTable &table = facts.relations();
    EXPECT_NE(relation(table, "a", "b"), nullptr);
    EXPECT_EQ(relation(table, "w", "b"), nullptr);
}

TEST(RelationsTest, ConditionCarriesTheGuard)
{
    auto mod = flat("module m(input wire clk, input wire en);\n"
                    "reg a; reg b;\n"
                    "always @(posedge clk) begin\n"
                    "  a <= en;\n  if (en) b <= a;\nend\nendmodule");
    Context facts(*mod);
    const RelationTable &table = facts.relations();
    const auto *rel = relation(table, "a", "b");
    ASSERT_NE(rel, nullptr);
    EXPECT_EQ(printExpr(rel->cond), "en");
}

TEST(RelationsTest, MemoryIndicesRecorded)
{
    auto mod = flat("module m(input wire clk, input wire [1:0] wa,\n"
                    "         input wire [1:0] ra,\n"
                    "         input wire [7:0] d);\n"
                    "reg [7:0] mem [0:3];\nreg [7:0] q; reg [7:0] s;\n"
                    "always @(posedge clk) begin\n"
                    "  s <= d;\n  mem[wa] <= s;\n  q <= mem[ra];\nend\n"
                    "endmodule");
    Context facts(*mod);
    const RelationTable &table = facts.relations();
    EXPECT_TRUE(table.isMemory("mem"));
    EXPECT_FALSE(table.isMemory("q"));
    EXPECT_EQ(table.memorySize("mem"), 4u);
    const auto *in = relation(table, "s", "mem");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(in->dstIndex, nullptr);
    EXPECT_EQ(printExpr(in->dstIndex), "wa");
    const auto *out = relation(table, "mem", "q");
    ASSERT_NE(out, nullptr);
    ASSERT_NE(out->srcIndex, nullptr);
    EXPECT_EQ(printExpr(out->srcIndex), "ra");
}

TEST(RelationsTest, IntoAndOutOfFilter)
{
    auto mod = flat("module m(input wire clk, input wire d);\n"
                    "reg a; reg b; reg c;\n"
                    "always @(posedge clk) begin\n"
                    "  a <= d;\n  b <= a;\n  c <= a;\nend\nendmodule");
    Context facts(*mod);
    const RelationTable &table = facts.relations();
    EXPECT_EQ(table.outOf("a").size(), 2u);
    EXPECT_EQ(table.into("b").size(), 1u);
    // Top-level inputs are stateful sources too: the testbench holds
    // their values across the clock edge.
    auto intoA = table.into("a");
    ASSERT_EQ(intoA.size(), 1u);
    EXPECT_EQ(intoA[0]->src, "d");
}

TEST(RelationsTest, PropagationPathAndUnreachable)
{
    auto mod = flat("module m(input wire clk, input wire d);\n"
                    "reg a; reg b; reg c; reg lone;\n"
                    "always @(posedge clk) begin\n"
                    "  a <= d;\n  b <= a;\n  c <= b;\n"
                    "  lone <= d;\nend\nendmodule");
    Context facts(*mod);
    const RelationTable &table = facts.relations();
    auto path = table.propagationPath("a", "c");
    EXPECT_TRUE(path.count("a"));
    EXPECT_TRUE(path.count("b"));
    EXPECT_TRUE(path.count("c"));
    EXPECT_FALSE(path.count("lone"));
    EXPECT_TRUE(table.propagationPath("c", "lone").empty());
}

TEST(RelationsTest, FifoIpRelationIsConditional)
{
    auto mod = flat(
        "module m(input wire clk, input wire [7:0] d,\n"
        "         input wire wr, input wire rd);\n"
        "reg [7:0] src;\nwire [7:0] q;\nwire full;\nwire empty;\n"
        "reg [7:0] dst;\n"
        "always @(posedge clk) src <= d;\n"
        "scfifo #(.lpm_width(8), .lpm_numwords(4))\n"
        "  f(.clock(clk), .data(src), .wrreq(wr), .rdreq(rd),\n"
        "    .q(q), .full(full), .empty(empty));\n"
        "always @(posedge clk) dst <= q;\nendmodule");
    Context facts(*mod);
    const RelationTable &table = facts.relations();
    bool found = false;
    for (const auto &rel : table.relations())
        if (rel.viaIp && rel.src == "src") {
            found = true;
            ASSERT_NE(rel.cond, nullptr);
            // The IP model's push condition gates the propagation.
            EXPECT_NE(printExpr(rel.cond).find("wr"),
                      std::string::npos);
        }
    EXPECT_TRUE(found);
}
