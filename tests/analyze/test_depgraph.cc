/**
 * @file
 * Tests for the dependency graph and the propagation-relation table.
 */

#include <gtest/gtest.h>

#include "analyze/context.hh"
#include "elab/elaborate.hh"
#include "elab/ip_models.hh"
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

} // namespace

TEST(DepGraphTest, DataAndControlEdges)
{
    auto mod = flat(
        "module m(input wire clk, input wire en, input wire [3:0] d);\n"
        "reg [3:0] q;\n"
        "always @(posedge clk) if (en) q <= d;\nendmodule");
    Context facts(*mod);
    const DepGraph &graph = facts.graph();
    bool data_edge = false, ctrl_edge = false;
    for (const auto &edge : graph.edges()) {
        if (edge.src == "d" && edge.dst == "q" && edge.isData &&
            edge.kind == DepKind::Seq)
            data_edge = true;
        if (edge.src == "en" && edge.dst == "q" && !edge.isData)
            ctrl_edge = true;
    }
    EXPECT_TRUE(data_edge);
    EXPECT_TRUE(ctrl_edge);
}

TEST(DepGraphTest, StatefulClassification)
{
    auto mod = flat(
        "module m(input wire clk, input wire [3:0] d);\n"
        "reg [3:0] q;\nwire [3:0] w;\n"
        "assign w = d + 1;\n"
        "always @(posedge clk) q <= w;\nendmodule");
    Context facts(*mod);
    const DepGraph &graph = facts.graph();
    EXPECT_TRUE(graph.isReg("q"));
    EXPECT_TRUE(graph.isInput("d"));
    EXPECT_FALSE(graph.isStateful("w"));
    auto sources = graph.statefulSources("w");
    EXPECT_EQ(sources, std::set<std::string>{"d"});
}

TEST(DepGraphTest, StatefulSourcesThroughWireChain)
{
    auto mod = flat(
        "module m(input wire clk, input wire [3:0] a);\n"
        "reg [3:0] r1, r2;\nwire [3:0] w1, w2;\n"
        "assign w1 = r1 ^ a;\nassign w2 = w1 + 1;\n"
        "always @(posedge clk) begin r1 <= a; r2 <= w2; end\nendmodule");
    Context facts(*mod);
    const DepGraph &graph = facts.graph();
    auto sources = graph.statefulSources("w2");
    EXPECT_TRUE(sources.count("r1"));
    EXPECT_TRUE(sources.count("a"));
    EXPECT_FALSE(sources.count("w1"));
}

TEST(DepGraphTest, BackwardSliceRespectsCycleBudget)
{
    // r3 <- r2 <- r1 <- a : three sequential stages.
    auto mod = flat(
        "module m(input wire clk, input wire [3:0] a);\n"
        "reg [3:0] r1, r2, r3;\n"
        "always @(posedge clk) begin\n"
        "  r1 <= a;\n  r2 <= r1;\n  r3 <= r2;\nend\nendmodule");
    Context facts(*mod);
    const DepGraph &graph = facts.graph();
    auto one = graph.backwardSlice("r3", 1, true, true);
    EXPECT_TRUE(one.count("r3"));
    EXPECT_TRUE(one.count("r2"));
    EXPECT_FALSE(one.count("r1"));
    auto two = graph.backwardSlice("r3", 2, true, true);
    EXPECT_TRUE(two.count("r1"));
    EXPECT_EQ(two.at("r1"), 2);
    EXPECT_EQ(two.at("r3"), 0);
}

TEST(DepGraphTest, ControlOnlySliceExcludesDataDeps)
{
    auto mod = flat(
        "module m(input wire clk, input wire en, input wire [3:0] d);\n"
        "reg [3:0] q;\nreg e1;\n"
        "always @(posedge clk) begin\n"
        "  e1 <= en;\n  if (e1) q <= d;\nend\nendmodule");
    Context facts(*mod);
    const DepGraph &graph = facts.graph();
    auto ctrl = graph.backwardSlice("q", 2, false, true);
    EXPECT_TRUE(ctrl.count("e1"));
    auto data = graph.backwardSlice("q", 2, true, false);
    EXPECT_FALSE(data.count("e1"));
}

TEST(DepGraphTest, IpModelEdges)
{
    auto mod = flat(
        "module m(input wire clk, input wire push, input wire pop,\n"
        "         input wire [7:0] din);\n"
        "wire [7:0] q;\nwire empty, full;\n"
        "scfifo #(.WIDTH(8), .DEPTH(4)) u_f (.clock(clk), .data(din),\n"
        "  .wrreq(push), .rdreq(pop), .q(q), .empty(empty),\n"
        "  .full(full));\nendmodule");
    Context facts(*mod);
    const DepGraph &graph = facts.graph();
    EXPECT_TRUE(graph.isIpOutput("q"));
    EXPECT_TRUE(graph.isIpOutput("empty"));
    bool data_edge = false;
    for (const auto &edge : graph.edges())
        if (edge.src == "din" && edge.dst == "q" && edge.viaIp &&
            edge.isData)
            data_edge = true;
    EXPECT_TRUE(data_edge);
}

TEST(RelationsTest, SimpleChain)
{
    // The paper's running example (§4.5.1): in -> b -> out.
    auto mod = flat(
        "module m(input wire clk, input wire cond_a, input wire cond_b,\n"
        "         input wire in_valid, input wire [7:0] in,\n"
        "         input wire [7:0] a, output reg [7:0] out);\n"
        "reg [7:0] b;\n"
        "always @(posedge clk) begin\n"
        "  if (cond_a) out <= a;\n"
        "  else if (cond_b) out <= b;\n"
        "  if (in_valid) b <= in;\nend\nendmodule");
    Context facts(*mod);
    const RelationTable &table = facts.relations();

    // Expected relations: a ~>[cond_a] out, b ~>[!cond_a && cond_b] out,
    // in ~>[in_valid] b.
    bool a_out = false, b_out = false, in_b = false;
    for (const auto &rel : table.relations()) {
        std::string cond = printExpr(rel.cond);
        if (rel.src == "a" && rel.dst == "out" && cond == "cond_a")
            a_out = true;
        if (rel.src == "b" && rel.dst == "out" &&
            cond == "!cond_a && cond_b")
            b_out = true;
        if (rel.src == "in" && rel.dst == "b" && cond == "in_valid")
            in_b = true;
    }
    EXPECT_TRUE(a_out);
    EXPECT_TRUE(b_out);
    EXPECT_TRUE(in_b);

    auto path = table.propagationPath("in", "out");
    EXPECT_EQ(path, (std::set<std::string>{"in", "b", "out"}));
    EXPECT_TRUE(table.propagationPath("out", "in").empty());
}

TEST(RelationsTest, WiresCollapsedToStatefulSources)
{
    auto mod = flat(
        "module m(input wire clk, input wire [7:0] in,\n"
        "         output reg [7:0] out);\n"
        "reg [7:0] mid;\nwire [7:0] w;\n"
        "assign w = mid + 1;\n"
        "always @(posedge clk) begin mid <= in; out <= w; end\n"
        "endmodule");
    Context facts(*mod);
    const RelationTable &table = facts.relations();
    bool mid_out = false;
    for (const auto &rel : table.relations())
        if (rel.src == "mid" && rel.dst == "out")
            mid_out = true;
    EXPECT_TRUE(mid_out);
    auto path = table.propagationPath("in", "out");
    EXPECT_TRUE(path.count("mid"));
}

TEST(RelationsTest, FifoRelationsCarryBackpressureCondition)
{
    auto mod = flat(
        "module m(input wire clk, input wire push, input wire pop,\n"
        "         input wire [7:0] in, output reg [7:0] out);\n"
        "reg [7:0] staged;\nwire [7:0] q;\nwire empty, full;\n"
        "scfifo #(.WIDTH(8), .DEPTH(4)) u_f (.clock(clk), .data(staged),\n"
        "  .wrreq(push), .rdreq(pop), .q(q), .empty(empty),\n"
        "  .full(full));\n"
        "always @(posedge clk) begin\n"
        "  staged <= in;\n  out <= q;\nend\nendmodule");
    Context facts(*mod);
    const RelationTable &table = facts.relations();
    bool fifo_rel = false;
    for (const auto &rel : table.relations()) {
        if (rel.src == "staged" && rel.dst == "q" && rel.viaIp) {
            fifo_rel = true;
            std::string cond = printExpr(rel.cond);
            EXPECT_NE(cond.find("push"), std::string::npos);
            EXPECT_NE(cond.find("!full"), std::string::npos);
        }
    }
    EXPECT_TRUE(fifo_rel);
    auto path = table.propagationPath("in", "out");
    EXPECT_TRUE(path.count("staged"));
    EXPECT_TRUE(path.count("q"));
}

TEST(IpModelTest, BuiltinsRegistered)
{
    using hwdbg::elab::lookupIpModel;
    ASSERT_NE(lookupIpModel("scfifo"), nullptr);
    ASSERT_NE(lookupIpModel("dcfifo"), nullptr);
    ASSERT_NE(lookupIpModel("altsyncram"), nullptr);
    ASSERT_NE(lookupIpModel("signal_recorder"), nullptr);
    EXPECT_EQ(lookupIpModel("nonexistent_ip"), nullptr);
    EXPECT_TRUE(lookupIpModel("scfifo")->simulatable);
    EXPECT_TRUE(lookupIpModel("scfifo")->outputs.count("q"));
}

TEST(IpModelTest, UserRegisteredModelDrivesAnalysis)
{
    // §4.3: developers provide models for their own closed-source IPs
    // and reuse them across projects. Register a model for a fictional
    // delay-line IP and check both Dependency Monitor's graph and
    // LossCheck's relation table honor it.
    hwdbg::elab::IpModel model;
    model.name = "vendor_delayline";
    model.outputs = {"dout"};
    model.clockPorts = {"clk"};
    model.deps.push_back(
        hwdbg::elab::IpPortDep{"dout", "din", true});
    model.deps.push_back(
        hwdbg::elab::IpPortDep{"dout", "en", false});
    model.dataPaths.push_back(
        hwdbg::elab::IpDataPath{"din", "dout", {{"en", false}}});
    hwdbg::elab::registerIpModel(model);
    EXPECT_TRUE(hwdbg::elab::isPrimitive("vendor_delayline"));

    auto mod = flat(
        "module m(input wire clk, input wire en,\n"
        "         input wire [7:0] in, output reg [7:0] out);\n"
        "reg [7:0] staged;\n"
        "wire [7:0] delayed;\n"
        "vendor_delayline u_dl (.clk(clk), .en(en), .din(staged),\n"
        "  .dout(delayed));\n"
        "always @(posedge clk) begin\n"
        "  staged <= in;\n  out <= delayed;\nend\nendmodule");

    Context facts(*mod);
    const DepGraph &graph = facts.graph();
    EXPECT_TRUE(graph.isIpOutput("delayed"));
    bool data_edge = false, ctrl_edge = false;
    for (const auto &edge : graph.edges()) {
        if (edge.src == "staged" && edge.dst == "delayed" &&
            edge.viaIp && edge.isData)
            data_edge = true;
        if (edge.src == "en" && edge.dst == "delayed" && !edge.isData)
            ctrl_edge = true;
    }
    EXPECT_TRUE(data_edge);
    EXPECT_TRUE(ctrl_edge);

    const RelationTable &table = facts.relations();
    bool rel = false;
    for (const auto &r : table.relations())
        if (r.src == "staged" && r.dst == "delayed" && r.viaIp) {
            rel = true;
            EXPECT_EQ(hwdbg::hdl::printExpr(r.cond), "en");
        }
    EXPECT_TRUE(rel);

    auto path = table.propagationPath("in", "out");
    EXPECT_TRUE(path.count("staged"));
    EXPECT_TRUE(path.count("delayed"));
}

TEST(DepGraphTest, CombCycles)
{
    auto mod = flat(
        "module m(input wire clk, input wire d, output wire y);\n"
        "wire a;\nwire b;\nreg q;\n"
        "assign a = b & d;\nassign b = a;\nassign y = a;\n"
        "always @(posedge clk) q <= y;\nendmodule");
    Context facts(*mod);
    const DepGraph &graph = facts.graph();
    auto cycles = graph.combCycles();
    ASSERT_EQ(cycles.size(), 1u);
    EXPECT_EQ(cycles[0], (std::vector<std::string>{"a", "b"}));
}

TEST(DepGraphTest, CombCyclesSelfLoopAndSeqFreedom)
{
    // A register feeding itself through a clocked process is NOT a
    // combinational loop; a wire feeding itself is.
    auto mod = flat(
        "module m(input wire clk, input wire d, output wire y);\n"
        "wire a;\nreg q;\n"
        "assign a = a | d;\n"
        "always @(posedge clk) q <= q ^ d;\n"
        "assign y = a & q;\nendmodule");
    Context facts(*mod);
    const DepGraph &graph = facts.graph();
    auto cycles = graph.combCycles();
    ASSERT_EQ(cycles.size(), 1u);
    EXPECT_EQ(cycles[0], (std::vector<std::string>{"a"}));
}

TEST(DepGraphTest, CombCyclesEmptyOnAcyclicDesign)
{
    auto mod = flat(
        "module m(input wire clk, input wire d, output wire y);\n"
        "wire a;\nassign a = d;\nassign y = a;\nendmodule");
    Context facts(*mod);
    const DepGraph &graph = facts.graph();
    EXPECT_TRUE(graph.combCycles().empty());
}
