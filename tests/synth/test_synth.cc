/**
 * @file
 * Tests for the resource estimator and timing model.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "synth/resources.hh"
#include "synth/timing.hh"

using namespace hwdbg;
using namespace hwdbg::hdl;
using namespace hwdbg::synth;

namespace
{

ModulePtr
flat(const std::string &src, const std::string &top = "m")
{
    return elab::elaborate(parse(src), top).mod;
}

} // namespace

TEST(ResourceTest, ScalarRegsCountFlipFlops)
{
    auto mod = flat("module m(input wire clk);\n"
                    "reg [7:0] a;\nreg b;\nreg [31:0] c;\n"
                    "always @(posedge clk) begin a <= a; b <= b;"
                    " c <= c; end\nendmodule");
    ResourceUsage usage = estimateResources(analyze::Context(*mod));
    EXPECT_EQ(usage.registers, 41u);
    EXPECT_EQ(usage.bramBits, 0.0);
}

TEST(ResourceTest, LargeMemoryMapsToBram)
{
    auto mod = flat("module m();\nreg [31:0] mem [0:1023];\nendmodule");
    ResourceUsage usage = estimateResources(analyze::Context(*mod));
    EXPECT_EQ(usage.bramBits, 32.0 * 1024);
    EXPECT_EQ(usage.registers, 0u);
}

TEST(ResourceTest, SmallMemoryMapsToRegisters)
{
    auto mod = flat("module m();\nreg [7:0] mem [0:3];\nendmodule");
    ResourceUsage usage = estimateResources(analyze::Context(*mod));
    EXPECT_EQ(usage.bramBits, 0.0);
    EXPECT_EQ(usage.registers, 32u);
}

TEST(ResourceTest, WiderAdderCostsMoreLogic)
{
    auto narrow = flat("module m(input wire [7:0] a, input wire [7:0] b,"
                       " output wire [7:0] s);\nassign s = a + b;\n"
                       "endmodule");
    auto wide = flat("module m(input wire [63:0] a, input wire [63:0] b,"
                     " output wire [63:0] s);\nassign s = a + b;\n"
                     "endmodule");
    EXPECT_LT(estimateResources(analyze::Context(*narrow)).logic,
              estimateResources(analyze::Context(*wide)).logic);
}

TEST(ResourceTest, RecorderBramScalesLinearlyWithDepth)
{
    auto make = [&](int depth) {
        return flat(csprintf(
            "module m(input wire clk, input wire v,\n"
            "         input wire [63:0] d);\n"
            "signal_recorder #(.WIDTH(64), .DEPTH(%d)) u_r (.clk(clk),\n"
            "  .arm(1'b1), .valid(v), .data(d));\nendmodule", depth));
    };
    double bram_1k = estimateResources(analyze::Context(*make(1024))).bramBits;
    double bram_2k = estimateResources(analyze::Context(*make(2048))).bramBits;
    double bram_8k = estimateResources(analyze::Context(*make(8192))).bramBits;
    EXPECT_DOUBLE_EQ(bram_2k, 2 * bram_1k);
    EXPECT_DOUBLE_EQ(bram_8k, 8 * bram_1k);

    // Register/logic cost must stay (nearly) flat with depth: only the
    // write pointer grows, logarithmically.
    auto regs_1k = estimateResources(analyze::Context(*make(1024))).registers;
    auto regs_8k = estimateResources(analyze::Context(*make(8192))).registers;
    EXPECT_LE(regs_8k - regs_1k, 4u);
}

TEST(ResourceTest, OverheadVsBaseline)
{
    ResourceUsage base{100.0, 50, 20};
    ResourceUsage inst{300.0, 80, 25};
    ResourceUsage overhead = inst.overheadVs(base);
    EXPECT_DOUBLE_EQ(overhead.bramBits, 200.0);
    EXPECT_EQ(overhead.registers, 30u);
    EXPECT_EQ(overhead.logic, 5u);
    // Clamping.
    ResourceUsage negative = base.overheadVs(inst);
    EXPECT_DOUBLE_EQ(negative.bramBits, 0.0);
}

TEST(ResourceTest, NormalizationAgainstPlatforms)
{
    ResourceUsage usage{harpPlatform().bramBits / 2,
                        harpPlatform().registers / 4,
                        harpPlatform().logic / 10};
    NormalizedUsage pct = normalize(usage, harpPlatform());
    EXPECT_NEAR(pct.bramPct, 50.0, 1e-9);
    EXPECT_NEAR(pct.registersPct, 25.0, 1e-9);
    EXPECT_NEAR(pct.logicPct, 10.0, 1e-9);
}

TEST(PlatformTest, Lookup)
{
    EXPECT_EQ(platformByName("HARP").name, "HARP");
    EXPECT_EQ(platformByName("Xilinx").name, "KC705");
    EXPECT_EQ(platformByName("Generic").name, "KC705");
    EXPECT_THROW(platformByName("nope"), HdlError);
    EXPECT_GT(harpPlatform().bramBits, kc705Platform().bramBits);
}

TEST(TimingTest, DeeperLogicIsSlower)
{
    auto shallow = flat(
        "module m(input wire clk, input wire [7:0] a,\n"
        "         output reg [7:0] r);\n"
        "always @(posedge clk) r <= a;\nendmodule");
    auto deep = flat(
        "module m(input wire clk, input wire [31:0] a,\n"
        "         output reg [31:0] r);\n"
        "wire [31:0] t1, t2, t3;\n"
        "assign t1 = a * a;\nassign t2 = t1 * a;\n"
        "assign t3 = t2 * t1;\n"
        "always @(posedge clk) r <= t3;\nendmodule");
    TimingReport fast = estimateTiming(analyze::Context(*shallow));
    TimingReport slow = estimateTiming(analyze::Context(*deep));
    EXPECT_GT(fast.fmaxMhz, slow.fmaxMhz);
    // The critical path ends at the t3 -> r stage.
    EXPECT_TRUE(slow.criticalSignal == "r" || slow.criticalSignal == "t3")
        << slow.criticalSignal;
}

TEST(TimingTest, SimpleRegisterChainMeets400MHz)
{
    auto mod = flat(
        "module m(input wire clk, input wire [7:0] a,\n"
        "         output reg [7:0] r);\n"
        "always @(posedge clk) r <= a;\nendmodule");
    TimingReport report = estimateTiming(analyze::Context(*mod));
    EXPECT_TRUE(meetsTarget(report, 400.0));
}

TEST(TimingTest, LongMultiplyChainFails400MHz)
{
    auto mod = flat(
        "module m(input wire clk, input wire [63:0] a,\n"
        "         output reg [63:0] r);\n"
        "wire [63:0] t1, t2;\n"
        "assign t1 = a * a;\nassign t2 = t1 * t1;\n"
        "always @(posedge clk) r <= t2;\nendmodule");
    TimingReport report = estimateTiming(analyze::Context(*mod));
    EXPECT_FALSE(meetsTarget(report, 400.0));
}

TEST(TimingTest, WireChainDelaysAccumulate)
{
    auto one = flat(
        "module m(input wire clk, input wire [31:0] a,\n"
        "         output reg [31:0] r);\n"
        "wire [31:0] t1;\nassign t1 = a + 1;\n"
        "always @(posedge clk) r <= t1;\nendmodule");
    auto three = flat(
        "module m(input wire clk, input wire [31:0] a,\n"
        "         output reg [31:0] r);\n"
        "wire [31:0] t1, t2, t3;\n"
        "assign t1 = a + 1;\nassign t2 = t1 + 1;\nassign t3 = t2 + 1;\n"
        "always @(posedge clk) r <= t3;\nendmodule");
    EXPECT_GT(estimateTiming(analyze::Context(*three)).criticalPathNs,
              estimateTiming(analyze::Context(*one)).criticalPathNs);
}
