/**
 * @file
 * Simulator semantics tests: clocking, nonblocking assignment,
 * combinational settling, memories, overflow semantics, and $display.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "sim/simulator.hh"

using namespace hwdbg;
using namespace hwdbg::hdl;
using namespace hwdbg::sim;

namespace
{

std::unique_ptr<Simulator>
makeSim(const std::string &src, const std::string &top = "m")
{
    Design design = parse(src);
    return std::make_unique<Simulator>(
        elab::elaborate(design, top).mod);
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

} // namespace

TEST(SimTest, CounterIncrements)
{
    auto sim = makeSim(
        "module m(input wire clk, output reg [7:0] count);\n"
        "always @(posedge clk) count <= count + 1;\nendmodule");
    EXPECT_EQ(sim->peekU64("count"), 0u);
    tick(*sim, 5);
    EXPECT_EQ(sim->peekU64("count"), 5u);
    EXPECT_EQ(sim->cycle(), 5u);
}

TEST(SimTest, NoEdgeNoChange)
{
    auto sim = makeSim(
        "module m(input wire clk, output reg [7:0] count);\n"
        "always @(posedge clk) count <= count + 1;\nendmodule");
    sim->poke("clk", uint64_t(1));
    sim->eval();
    EXPECT_EQ(sim->peekU64("count"), 1u);
    // Holding the clock high must not retrigger.
    sim->eval();
    sim->eval();
    EXPECT_EQ(sim->peekU64("count"), 1u);
}

TEST(SimTest, NonblockingSwap)
{
    auto sim = makeSim(
        "module m(input wire clk, input wire load,\n"
        "         output reg [3:0] a, output reg [3:0] b);\n"
        "always @(posedge clk) begin\n"
        "  if (load) begin a <= 4'd3; b <= 4'd7; end\n"
        "  else begin a <= b; b <= a; end\nend\nendmodule");
    sim->poke("load", uint64_t(1));
    tick(*sim);
    EXPECT_EQ(sim->peekU64("a"), 3u);
    EXPECT_EQ(sim->peekU64("b"), 7u);
    sim->poke("load", uint64_t(0));
    tick(*sim);
    EXPECT_EQ(sim->peekU64("a"), 7u);
    EXPECT_EQ(sim->peekU64("b"), 3u);
}

TEST(SimTest, LastNonblockingWriteWins)
{
    auto sim = makeSim(
        "module m(input wire clk, output reg [3:0] x);\n"
        "always @(posedge clk) begin\n"
        "  x <= 4'd1;\n  x <= 4'd2;\nend\nendmodule");
    tick(*sim);
    EXPECT_EQ(sim->peekU64("x"), 2u);
}

TEST(SimTest, BlockingVisibleWithinProcess)
{
    auto sim = makeSim(
        "module m(input wire clk, output reg [7:0] y);\n"
        "reg [7:0] t;\n"
        "always @(posedge clk) begin\n"
        "  t = 8'd5;\n  y <= t + 8'd1;\nend\nendmodule");
    tick(*sim);
    EXPECT_EQ(sim->peekU64("y"), 6u);
}

TEST(SimTest, CombChainSettles)
{
    auto sim = makeSim(
        "module m(input wire [7:0] a, output wire [7:0] d);\n"
        "wire [7:0] b, c;\n"
        // Deliberately out of dependency order.
        "assign d = c + 1;\nassign c = b + 1;\nassign b = a + 1;\n"
        "endmodule");
    sim->poke("a", uint64_t(10));
    sim->eval();
    EXPECT_EQ(sim->peekU64("d"), 13u);
}

TEST(SimTest, CombAlwaysBlock)
{
    auto sim = makeSim(
        "module m(input wire [3:0] a, input wire [3:0] b,\n"
        "         output reg [3:0] max);\n"
        "always @* begin\n"
        "  if (a > b) max = a;\n  else max = b;\nend\nendmodule");
    sim->poke("a", uint64_t(3));
    sim->poke("b", uint64_t(9));
    sim->eval();
    EXPECT_EQ(sim->peekU64("max"), 9u);
    sim->poke("a", uint64_t(12));
    sim->eval();
    EXPECT_EQ(sim->peekU64("max"), 12u);
}

TEST(SimTest, CombinationalLoopDetected)
{
    auto sim_src =
        "module m(input wire a, output wire x);\n"
        "wire y;\nassign x = y ^ a;\nassign y = x;\nendmodule";
    auto sim = makeSim(sim_src);
    sim->poke("a", uint64_t(1));
    EXPECT_THROW(sim->eval(), HdlError);
}

TEST(SimTest, CaseSelectsAndDefault)
{
    auto sim = makeSim(
        "module m(input wire clk, input wire [1:0] s,\n"
        "         output reg [7:0] y);\n"
        "always @(posedge clk)\n"
        "case (s)\n"
        "  2'd0: y <= 8'd10;\n"
        "  2'd1, 2'd2: y <= 8'd20;\n"
        "  default: y <= 8'd30;\nendcase\nendmodule");
    sim->poke("s", uint64_t(0));
    tick(*sim);
    EXPECT_EQ(sim->peekU64("y"), 10u);
    sim->poke("s", uint64_t(2));
    tick(*sim);
    EXPECT_EQ(sim->peekU64("y"), 20u);
    sim->poke("s", uint64_t(3));
    tick(*sim);
    EXPECT_EQ(sim->peekU64("y"), 30u);
}

TEST(SimTest, MemoryReadWrite)
{
    auto sim = makeSim(
        "module m(input wire clk, input wire [3:0] waddr,\n"
        "         input wire [3:0] raddr, input wire [7:0] din,\n"
        "         input wire we, output reg [7:0] dout);\n"
        "reg [7:0] mem [0:15];\n"
        "always @(posedge clk) begin\n"
        "  if (we) mem[waddr] <= din;\n  dout <= mem[raddr];\nend\n"
        "endmodule");
    sim->poke("we", uint64_t(1));
    sim->poke("waddr", uint64_t(5));
    sim->poke("din", uint64_t(0xab));
    tick(*sim);
    EXPECT_EQ(sim->peekArray("mem", 5).toU64(), 0xabu);
    sim->poke("we", uint64_t(0));
    sim->poke("raddr", uint64_t(5));
    tick(*sim);
    EXPECT_EQ(sim->peekU64("dout"), 0xabu);
}

TEST(SimTest, BufferOverflowPowerOfTwoWraps)
{
    // 8-entry buffer with a 4-bit index: index 9 wraps to 1 when the
    // memory size is a power of two (address truncation).
    auto sim = makeSim(
        "module m(input wire clk, input wire [4:0] idx,\n"
        "         input wire [7:0] din);\n"
        "reg [7:0] buf0 [0:7];\n"
        "always @(posedge clk) buf0[idx] <= din;\nendmodule");
    sim->poke("idx", uint64_t(9));
    sim->poke("din", uint64_t(0x77));
    tick(*sim);
    EXPECT_EQ(sim->peekArray("buf0", 1).toU64(), 0x77u);
}

TEST(SimTest, BufferOverflowNonPowerOfTwoDrops)
{
    // 6-entry buffer: effective index 6 or 7 is beyond the memory, so the
    // assignment is ignored.
    auto sim = makeSim(
        "module m(input wire clk, input wire [3:0] idx,\n"
        "         input wire [7:0] din);\n"
        "reg [7:0] buf0 [0:5];\n"
        "always @(posedge clk) buf0[idx] <= din;\nendmodule");
    sim->poke("din", uint64_t(0x55));
    sim->poke("idx", uint64_t(6));
    tick(*sim);
    for (int i = 0; i < 6; ++i)
        EXPECT_TRUE(sim->peekArray("buf0", i).isZero());
    // Index 14 truncates to 6 (3 address bits) and is still dropped.
    sim->poke("idx", uint64_t(14));
    tick(*sim);
    for (int i = 0; i < 6; ++i)
        EXPECT_TRUE(sim->peekArray("buf0", i).isZero());
    // Index 13 truncates to 5: stored.
    sim->poke("idx", uint64_t(13));
    tick(*sim);
    EXPECT_EQ(sim->peekArray("buf0", 5).toU64(), 0x55u);
}

TEST(SimTest, OutOfRangeBitSelectWriteIgnored)
{
    auto sim = makeSim(
        "module m(input wire clk, input wire [3:0] idx,\n"
        "         output reg [7:0] x);\n"
        "always @(posedge clk) x[idx] <= 1'b1;\nendmodule");
    sim->poke("idx", uint64_t(12));
    tick(*sim);
    EXPECT_EQ(sim->peekU64("x"), 0u);
    sim->poke("idx", uint64_t(3));
    tick(*sim);
    EXPECT_EQ(sim->peekU64("x"), 8u);
}

TEST(SimTest, PartSelectWrite)
{
    auto sim = makeSim(
        "module m(input wire clk, output reg [15:0] x);\n"
        "always @(posedge clk) begin\n"
        "  x[7:0] <= 8'hcd;\n  x[15:8] <= 8'hab;\nend\nendmodule");
    tick(*sim);
    EXPECT_EQ(sim->peekU64("x"), 0xabcdu);
}

TEST(SimTest, ConcatLValueCapturesCarry)
{
    // {c, s} <= a + b: the add must be evaluated at 9 bits (context
    // width), capturing the carry.
    auto sim = makeSim(
        "module m(input wire clk, input wire [7:0] a,\n"
        "         input wire [7:0] b, output reg c,\n"
        "         output reg [7:0] s);\n"
        "always @(posedge clk) {c, s} <= a + b;\nendmodule");
    sim->poke("a", uint64_t(0xf0));
    sim->poke("b", uint64_t(0x20));
    tick(*sim);
    EXPECT_EQ(sim->peekU64("c"), 1u);
    EXPECT_EQ(sim->peekU64("s"), 0x10u);
}

TEST(SimTest, SelfDeterminedAddTruncatesIntoComparison)
{
    // Inside a comparison the add stays at 8 bits, so 0xf0+0x20 == 0x10.
    auto sim = makeSim(
        "module m(input wire [7:0] a, input wire [7:0] b,\n"
        "         output wire eq);\n"
        "assign eq = a + b == 8'h10;\nendmodule");
    sim->poke("a", uint64_t(0xf0));
    sim->poke("b", uint64_t(0x20));
    sim->eval();
    EXPECT_EQ(sim->peekU64("eq"), 1u);
}

TEST(SimTest, BitTruncationOnNarrowAssign)
{
    // The paper's §3.2.2 pattern: assigning a shifted wide value into a
    // narrow register truncates high bits.
    auto sim = makeSim(
        "module m(input wire clk, input wire [63:0] wide,\n"
        "         output reg [41:0] narrow);\n"
        "always @(posedge clk) narrow <= wide >> 6;\nendmodule");
    sim->poke("wide", Bits(64, 0xffffffffffffull << 6));
    tick(*sim);
    // Bits [47:42] of the shifted value are truncated.
    EXPECT_EQ(sim->peekU64("narrow"), 0x3ffffffffffull);
}

TEST(SimTest, DisplayLogsWithCycle)
{
    auto sim = makeSim(
        "module m(input wire clk, output reg [7:0] n);\n"
        "always @(posedge clk) begin\n"
        "  n <= n + 1;\n"
        "  $display(\"n=%d hex=%h\", n, n);\nend\nendmodule");
    tick(*sim, 3);
    ASSERT_EQ(sim->log().size(), 3u);
    EXPECT_EQ(sim->log()[0].text, "n=0 hex=00");
    EXPECT_EQ(sim->log()[2].text, "n=2 hex=02");
    EXPECT_EQ(sim->log()[0].cycle, 1u);
    EXPECT_EQ(sim->log()[2].cycle, 3u);
}

TEST(SimTest, DisplayGuardedByPath)
{
    auto sim = makeSim(
        "module m(input wire clk, input wire fire);\n"
        "always @(posedge clk) if (fire) $display(\"fired\");\n"
        "endmodule");
    tick(*sim, 2);
    EXPECT_TRUE(sim->log().empty());
    sim->poke("fire", uint64_t(1));
    tick(*sim);
    ASSERT_EQ(sim->log().size(), 1u);
    EXPECT_EQ(sim->log()[0].text, "fired");
}

TEST(SimTest, FinishSetsFlag)
{
    auto sim = makeSim(
        "module m(input wire clk, input wire stop);\n"
        "always @(posedge clk) if (stop) $finish;\nendmodule");
    tick(*sim);
    EXPECT_FALSE(sim->finished());
    sim->poke("stop", uint64_t(1));
    tick(*sim);
    EXPECT_TRUE(sim->finished());
}

TEST(SimTest, NegedgeProcess)
{
    auto sim = makeSim(
        "module m(input wire clk, output reg [3:0] n);\n"
        "always @(negedge clk) n <= n + 1;\nendmodule");
    sim->poke("clk", uint64_t(1));
    sim->eval();
    EXPECT_EQ(sim->peekU64("n"), 0u);
    sim->poke("clk", uint64_t(0));
    sim->eval();
    EXPECT_EQ(sim->peekU64("n"), 1u);
}

TEST(SimTest, PokeNonInputThrows)
{
    auto sim = makeSim(
        "module m(input wire clk, output reg [3:0] n);\n"
        "always @(posedge clk) n <= n + 1;\nendmodule");
    EXPECT_THROW(sim->poke("n", uint64_t(3)), HdlError);
    EXPECT_THROW(sim->poke("nothere", uint64_t(3)), HdlError);
}

TEST(SimTest, ShiftByDynamicAmount)
{
    auto sim = makeSim(
        "module m(input wire [7:0] a, input wire [2:0] s,\n"
        "         output wire [7:0] l, output wire [7:0] r);\n"
        "assign l = a << s;\nassign r = a >> s;\nendmodule");
    sim->poke("a", uint64_t(0x81));
    sim->poke("s", uint64_t(3));
    sim->eval();
    EXPECT_EQ(sim->peekU64("l"), 0x08u);
    EXPECT_EQ(sim->peekU64("r"), 0x10u);
}

TEST(SimTest, ReductionAndLogicalOps)
{
    auto sim = makeSim(
        "module m(input wire [3:0] a, output wire rand_, \n"
        "         output wire ror_, output wire rxor_,\n"
        "         output wire land_, output wire lnot_);\n"
        "assign rand_ = &a;\nassign ror_ = |a;\nassign rxor_ = ^a;\n"
        "assign land_ = a && 1'b1;\nassign lnot_ = !a;\nendmodule");
    sim->poke("a", uint64_t(0xf));
    sim->eval();
    EXPECT_EQ(sim->peekU64("rand_"), 1u);
    EXPECT_EQ(sim->peekU64("rxor_"), 0u);
    sim->poke("a", uint64_t(0x1));
    sim->eval();
    EXPECT_EQ(sim->peekU64("rand_"), 0u);
    EXPECT_EQ(sim->peekU64("ror_"), 1u);
    EXPECT_EQ(sim->peekU64("rxor_"), 1u);
    EXPECT_EQ(sim->peekU64("land_"), 1u);
    EXPECT_EQ(sim->peekU64("lnot_"), 0u);
}

TEST(SimTest, HierarchicalDesignSimulates)
{
    auto sim = makeSim(
        "module adder(input wire [7:0] x, input wire [7:0] y,\n"
        "             output wire [7:0] s);\n"
        "assign s = x + y;\nendmodule\n"
        "module m(input wire clk, input wire [7:0] a,\n"
        "         output reg [7:0] acc);\n"
        "wire [7:0] next;\n"
        "adder u_add (.x(acc), .y(a), .s(next));\n"
        "always @(posedge clk) acc <= next;\nendmodule");
    sim->poke("a", uint64_t(5));
    tick(*sim, 4);
    EXPECT_EQ(sim->peekU64("acc"), 20u);
}

// Regression (found by fuzzing): a comb process that assigns a default
// and then conditionally overrides it changes the net's value inside
// every settling pass; the pass is stable when its END state matches
// its START state, not when no assignment executed.
TEST(SimTest, DefaultThenOverrideCombSettles)
{
    auto sim = makeSim(
        "module m(input wire clk, input wire c,\n"
        "         output reg r, output reg q);\n"
        "always @* begin\n"
        "  r = 0;\n"
        "  if (c) r = 1;\n"
        "end\n"
        "always @(posedge clk) q <= r;\nendmodule");
    sim->poke("c", uint64_t(1));
    tick(*sim);
    EXPECT_EQ(sim->peekU64("r"), 1u);
    EXPECT_EQ(sim->peekU64("q"), 1u);
    sim->poke("c", uint64_t(0));
    sim->eval();
    EXPECT_EQ(sim->peekU64("r"), 0u);
}

// Regression (found by fuzzing): case labels compare at the max of the
// selector and label widths. A wider label with high bits set must not
// alias the narrow label below it.
TEST(SimTest, CaseLabelsCompareAtMaxWidth)
{
    auto sim = makeSim(
        "module m(input wire clk, input wire [1:0] s,\n"
        "         output reg [7:0] y);\n"
        "always @(posedge clk) begin\n"
        "  case (s)\n"
        "    4'b0101: y <= 8'h11;\n"
        "    2'b01:   y <= 8'h22;\n"
        "    default: y <= 8'h33;\n"
        "  endcase\nend\nendmodule");
    sim->poke("s", uint64_t(1));
    tick(*sim);
    EXPECT_EQ(sim->peekU64("y"), 0x22u);
    sim->poke("s", uint64_t(3));
    tick(*sim);
    EXPECT_EQ(sim->peekU64("y"), 0x33u);
}

// Regression (found by fuzzing): a primitive clocked by ~clk used to
// see a phantom rising edge on the very first eval because the
// previous-clock baseline defaulted to 0 while ~clk evaluated to 1.
// The baseline must be seeded from the settled initial values.
TEST(SimTest, NoPhantomEdgeOnInvertedClocks)
{
    auto sim = makeSim(
        "module m(input wire clk, input wire [3:0] a,\n"
        "         output reg [3:0] q);\n"
        "always @(negedge clk) q <= a;\nendmodule");
    sim->poke("a", uint64_t(9));
    sim->eval();
    EXPECT_EQ(sim->peekU64("q"), 0u) << "phantom negedge at startup";
    sim->poke("clk", uint64_t(1));
    sim->eval();
    EXPECT_EQ(sim->peekU64("q"), 0u);
    sim->poke("clk", uint64_t(0));
    sim->eval();
    EXPECT_EQ(sim->peekU64("q"), 9u);
}

TEST(SimTest, ExpressionsWiderThanTheCapAreRejected)
{
    // Each count and bound is within its own cap; the widths they build
    // are not, and lowering must refuse them before sizing any value.
    std::string cap = std::to_string(elab::kMaxVectorWidth);
    for (const char *rhs : {"{65536{2'b11}}", "{{65536{1'b1}}, a}",
                            "a[65536:0]"}) {
        try {
            makeSim(std::string("module m(input wire [7:0] a, "
                                "output wire [7:0] z);\nassign z = ") +
                    rhs + ";\nendmodule");
            ADD_FAILURE() << rhs << " was accepted";
        } catch (const HdlError &e) {
            EXPECT_NE(std::string(e.what()).find(cap), std::string::npos)
                << e.what();
        }
    }
    // At the cap itself the design lowers.
    makeSim("module m(output wire [7:0] z);\n"
            "assign z = {65536{1'b1}};\nendmodule");
}
