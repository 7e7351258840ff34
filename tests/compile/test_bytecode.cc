/**
 * @file
 * Bytecode backend unit tests: the corner cases of the lowering and the
 * dispatch loop, each pinned against the interpreter on the same design
 * and stimulus (the interpreter is the semantics reference — sim/eval.cc).
 *
 * Covered: width-mixing arithmetic, division/modulo by zero, shift
 * amounts at and beyond the operand width, case statements with and
 * without defaults, concatenation lvalues, nonblocking swap ordering,
 * $display logs and $finish, non-power-of-two memories (index masking
 * plus out-of-range drops), the read/write asymmetry of scalar bit
 * indexing, a constant-guarded if that keeps both arms, wide division
 * against literal values (both engines share its kernel), and the
 * single-word op forms: each at operand widths 1, 63, 64 and 65, with
 * the profiler and coverage attached, the widths that select them, and
 * the value mutations each one must keep checking.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/testhooks.hh"
#include "compile/backend.hh"
#include "compile/bytecode.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "sim/coverage.hh"
#include "sim/profiler.hh"
#include "sim/simulator.hh"

using namespace hwdbg;
using namespace hwdbg::sim;

namespace
{

/** The same design on both backends, driven in lockstep; every eval
 *  asserts full-state equality. */
struct Pair
{
    std::unique_ptr<Simulator> interp;
    std::unique_ptr<Simulator> bytecode;

    /** Optional instruments (instrument()), one set per engine. */
    CoverageItems items;
    SimCounters profA, profB;
    std::unique_ptr<CoverageCollector> covA, covB;

    explicit Pair(const std::string &src, const std::string &top = "m")
    {
        hdl::Design design = hdl::parse(src);
        auto mod = elab::elaborate(design, top).mod;
        interp = std::make_unique<Simulator>(mod);
        bytecode = std::make_unique<Simulator>(mod);
        bytecode->setBackend(compile::makeBytecodeBackend());
        check();
    }

    /** Attach a profiler, and a coverage collector when @p coverage,
     *  to both engines; check() then also compares toggle counts and
     *  coverage marks. */
    void instrument(bool coverage)
    {
        interp->enableProfiling(&profA);
        bytecode->enableProfiling(&profB);
        if (!coverage)
            return;
        items = buildCoverageItems(interp->design());
        covA = std::make_unique<CoverageCollector>(items);
        covB = std::make_unique<CoverageCollector>(items);
        interp->enableCoverage(covA.get());
        bytecode->enableCoverage(covB.get());
    }

    void poke(const std::string &name, const Bits &value)
    {
        interp->poke(name, value);
        bytecode->poke(name, value);
    }

    void poke(const std::string &name, uint64_t value)
    {
        interp->poke(name, value);
        bytecode->poke(name, value);
    }

    void eval()
    {
        interp->eval();
        bytecode->eval();
        check();
    }

    void tick(int n = 1)
    {
        for (int i = 0; i < n; ++i) {
            poke("clk", uint64_t(0));
            eval();
            poke("clk", uint64_t(1));
            eval();
        }
    }

    /** Peek on both; asserts agreement, returns the value. */
    Bits peek(const std::string &name)
    {
        Bits a = interp->peek(name);
        Bits b = bytecode->peek(name);
        EXPECT_EQ(a.width(), b.width()) << name;
        EXPECT_EQ(a.toHexString(), b.toHexString()) << name;
        return a;
    }

    void check()
    {
        const EvalContext &ca = interp->context();
        const EvalContext &cb = bytecode->context();
        ASSERT_EQ(ca.values.size(), cb.values.size());
        for (size_t i = 0; i < ca.values.size(); ++i) {
            EXPECT_EQ(ca.values[i].width(), cb.values[i].width())
                << interp->design().info((int)i).name;
            EXPECT_EQ(ca.values[i].toHexString(),
                      cb.values[i].toHexString())
                << interp->design().info((int)i).name;
        }
        ASSERT_EQ(ca.arrays.size(), cb.arrays.size());
        for (size_t i = 0; i < ca.arrays.size(); ++i)
            for (size_t e = 0; e < ca.arrays[i].size(); ++e)
                EXPECT_EQ(ca.arrays[i][e].toHexString(),
                          cb.arrays[i][e].toHexString())
                    << interp->design().info((int)i).name << "[" << e
                    << "]";
        EXPECT_EQ(interp->cycle(), bytecode->cycle());
        EXPECT_EQ(interp->finished(), bytecode->finished());
        ASSERT_EQ(interp->log().size(), bytecode->log().size());
        for (size_t i = 0; i < interp->log().size(); ++i) {
            EXPECT_EQ(interp->log()[i].cycle, bytecode->log()[i].cycle);
            EXPECT_EQ(interp->log()[i].text, bytecode->log()[i].text);
        }
        EXPECT_EQ(profA.toggles, profB.toggles);
        if (covA) {
            // events() counts onStore calls along with the marks.
            EXPECT_EQ(covA->events(), covB->events());
            EXPECT_EQ(covA->stmtWords(), covB->stmtWords());
            EXPECT_EQ(covA->armWords(), covB->armWords());
            EXPECT_EQ(covA->riseWords(), covB->riseWords());
            EXPECT_EQ(covA->fallWords(), covB->fallWords());
        }
    }
};

/** Flips a mutation on for one scope; never leaks into other tests. */
struct MutationGuard
{
    explicit MutationGuard(int id) { activeMutation = id; }
    ~MutationGuard() { activeMutation = MUT_NONE; }
};

/** "[width-1:0]" */
std::string
vectorRange(uint32_t width)
{
    std::string out(1, '[');
    out += std::to_string(width - 1);
    out += ":0]";
    return out;
}

/** A @p width-bit value from @p rng (fromWords truncates). */
Bits
randomBits(std::mt19937_64 &rng, uint32_t width)
{
    uint64_t words[3] = {rng(), rng(), rng()};
    return Bits::fromWords(width, words, 3);
}

compile::Program
lower(const std::string &src, const std::string &top = "m")
{
    hdl::Design design = hdl::parse(src);
    LoweredDesign lowered(elab::elaborate(design, top).mod);
    return compile::lowerProgram(lowered);
}

} // namespace

TEST(BytecodeTest, WideArithmeticAndDivisionByZero)
{
    Pair p("module m(input wire [95:0] a, input wire [95:0] b,\n"
           "         output wire [95:0] sum, output wire [95:0] dif,\n"
           "         output wire [95:0] prd, output wire [95:0] quo,\n"
           "         output wire [95:0] rem, output wire [47:0] nar);\n"
           "assign sum = a + b;\n"
           "assign dif = a - b;\n"
           "assign prd = a * b;\n"
           "assign quo = a / b;\n"
           "assign rem = a % b;\n"
           "assign nar = a + b;\n" // context narrower than operands
           "endmodule");
    Bits a = Bits(96, 0xDEADBEEFCAFEF00DULL)
                 .shl(32)
                 .bitOr(Bits(96, 0x12345678));
    p.poke("a", a);
    p.poke("b", Bits(96, 0xFFFFFFFFFFFFFFFFULL));
    p.eval();
    p.poke("b", Bits(96, 0));
    p.eval();
    // Division by zero yields all-ones at the result width.
    EXPECT_EQ(p.peek("quo"), Bits::allOnes(96));
    EXPECT_EQ(p.peek("rem"), Bits::allOnes(96));

    // 64-bit fast path: divide small values too.
    p.poke("a", Bits(96, 1000));
    p.poke("b", Bits(96, 7));
    p.eval();
    EXPECT_EQ(p.peek("quo").toU64(), 142u);
    EXPECT_EQ(p.peek("rem").toU64(), 6u);
}

TEST(BytecodeTest, ShiftAmountsAtAndBeyondWidth)
{
    Pair p("module m(input wire [70:0] a, input wire [7:0] s,\n"
           "         output wire [70:0] l, output wire [70:0] r);\n"
           "assign l = a << s;\n"
           "assign r = a >> s;\n"
           "endmodule");
    Bits a = Bits::allOnes(71);
    p.poke("a", a);
    for (uint64_t s : {0u, 1u, 63u, 64u, 65u, 70u, 71u, 72u, 255u}) {
        p.poke("s", s);
        p.eval();
        if (s >= 71) {
            EXPECT_EQ(p.peek("l"), Bits(71, 0)) << "s=" << s;
            EXPECT_EQ(p.peek("r"), Bits(71, 0)) << "s=" << s;
        }
    }
}

TEST(BytecodeTest, ComparisonsAndBooleanOps)
{
    Pair p("module m(input wire [66:0] a, input wire [31:0] b,\n"
           "         output wire eq, output wire ne, output wire lt,\n"
           "         output wire le, output wire gt, output wire ge,\n"
           "         output wire la, output wire lo, output wire ln,\n"
           "         output wire ra, output wire ro, output wire rx);\n"
           "assign eq = a == b;\n"
           "assign ne = a != b;\n"
           "assign lt = a < b;\n"
           "assign le = a <= b;\n"
           "assign gt = a > b;\n"
           "assign ge = a >= b;\n"
           "assign la = a && b;\n"
           "assign lo = a || b;\n"
           "assign ln = !a;\n"
           "assign ra = &a;\n"
           "assign ro = |a;\n"
           "assign rx = ^a;\n"
           "endmodule");
    for (uint64_t av : {0ull, 5ull, 0xFFFFFFFFull, 0x1FFFFFFFFull}) {
        for (uint64_t bv : {0ull, 5ull, 0xFFFFFFFFull}) {
            p.poke("a", Bits(67, av));
            p.poke("b", Bits(32, bv));
            p.eval();
        }
    }
    p.poke("a", Bits::allOnes(67));
    p.eval();
    EXPECT_EQ(p.peek("ra").toU64(), 1u);
    EXPECT_EQ(p.peek("rx").toU64(), 1u); // 67 ones: odd parity
}

TEST(BytecodeTest, CaseWithAndWithoutDefault)
{
    Pair p("module m(input wire clk, input wire [2:0] sel,\n"
           "         output reg [7:0] q, output reg [7:0] r);\n"
           "always @(posedge clk) begin\n"
           "  case (sel)\n"
           "    3'd0: q <= 8'h10;\n"
           "    3'd1: q <= 8'h20;\n"
           "    default: q <= 8'hFF;\n"
           "  endcase\n"
           "  case (sel)\n" // no default: no-match leaves r alone
           "    3'd2: r <= 8'hA2;\n"
           "    3'd3: r <= 8'hA3;\n"
           "  endcase\n"
           "end\nendmodule");
    for (uint64_t s = 0; s < 8; ++s) {
        p.poke("sel", s);
        p.tick();
    }
    EXPECT_EQ(p.peek("q").toU64(), 0xFFu);
    EXPECT_EQ(p.peek("r").toU64(), 0xA3u);
}

TEST(BytecodeTest, ConcatRepeatAndSliceExpressions)
{
    Pair p("module m(input wire [7:0] a, input wire [3:0] b,\n"
           "         output wire [11:0] cat, output wire [15:0] rep,\n"
           "         output wire [4:0] sl, output wire [2:0] tern);\n"
           "assign cat = {a, b};\n"
           "assign rep = {4{b}};\n"
           "assign sl = a[6:2];\n"
           "assign tern = b[0] ? a[2:0] : 3'd5;\n"
           "endmodule");
    p.poke("a", uint64_t(0xC5));
    p.poke("b", uint64_t(0x9));
    p.eval();
    EXPECT_EQ(p.peek("cat").toU64(), 0xC59u);
    EXPECT_EQ(p.peek("rep").toU64(), 0x9999u);
    EXPECT_EQ(p.peek("sl").toU64(), 0x11u);
    EXPECT_EQ(p.peek("tern").toU64(), 5u);
    p.poke("b", uint64_t(0x8));
    p.eval();
}

TEST(BytecodeTest, ConcatLvaluesSplitTheValue)
{
    Pair p("module m(input wire clk, input wire [11:0] d,\n"
           "         output reg [7:0] hi, output reg [3:0] lo,\n"
           "         output reg [7:0] nhi, output reg [3:0] nlo);\n"
           "always @(posedge clk) begin\n"
           "  {hi, lo} = d;\n"
           "  {nhi, nlo} <= d + 12'd1;\n"
           "end\nendmodule");
    p.poke("d", uint64_t(0xABC));
    p.tick();
    EXPECT_EQ(p.peek("hi").toU64(), 0xABu);
    EXPECT_EQ(p.peek("lo").toU64(), 0xCu);
    EXPECT_EQ(p.peek("nhi").toU64(), 0xABu);
    EXPECT_EQ(p.peek("nlo").toU64(), 0xDu);
}

TEST(BytecodeTest, NonblockingSwapCommitsOldValues)
{
    Pair p("module m(input wire clk, input wire [7:0] d,\n"
           "         input wire ld, output reg [7:0] x,\n"
           "         output reg [7:0] y);\n"
           "always @(posedge clk) begin\n"
           "  if (ld) begin x <= d; y <= ~d; end\n"
           "  else begin x <= y; y <= x; end\n"
           "end\nendmodule");
    p.poke("ld", uint64_t(1));
    p.poke("d", uint64_t(0x42));
    p.tick();
    p.poke("ld", uint64_t(0));
    p.tick();
    EXPECT_EQ(p.peek("x").toU64(), 0xBDu);
    EXPECT_EQ(p.peek("y").toU64(), 0x42u);
    p.tick();
    EXPECT_EQ(p.peek("x").toU64(), 0x42u);
}

TEST(BytecodeTest, DisplayAndFinishMatch)
{
    Pair p("module m(input wire clk, output reg [3:0] n);\n"
           "always @(posedge clk) begin\n"
           "  n <= n + 4'd1;\n"
           "  $display(\"n=%d\", n);\n"
           "  if (n == 4'd3) $finish;\n"
           "end\nendmodule");
    for (int i = 0; i < 6 && !p.interp->finished(); ++i)
        p.tick();
    EXPECT_TRUE(p.bytecode->finished());
    EXPECT_EQ(p.interp->log().size(), p.bytecode->log().size());
    EXPECT_GE(p.interp->log().size(), 4u);
}

TEST(BytecodeTest, NonPowerOfTwoMemoryIndexing)
{
    // Size-5 memory: the interpreter masks indexes to ceil(log2(5)) = 3
    // bits, then drops anything still out of range. Index 8 wraps to 0;
    // indexes 5..7 are dropped on write and read as zero.
    Pair p("module m(input wire clk, input wire [7:0] wa,\n"
           "         input wire [7:0] ra, input wire [15:0] d,\n"
           "         input wire we, output wire [15:0] q);\n"
           "reg [15:0] mem[0:4];\n"
           "always @(posedge clk) if (we) mem[wa] <= d;\n"
           "assign q = mem[ra];\n"
           "endmodule");
    p.poke("we", uint64_t(1));
    for (uint64_t wa : {0u, 3u, 4u, 5u, 7u, 8u, 9u}) {
        p.poke("wa", wa);
        p.poke("d", 0x100 + wa);
        p.tick();
    }
    p.poke("we", uint64_t(0));
    for (uint64_t ra = 0; ra < 10; ++ra) {
        p.poke("ra", ra);
        p.eval();
    }
    p.poke("ra", uint64_t(0));
    p.eval();
    EXPECT_EQ(p.peek("q").toU64(), 0x108u); // 8 wrapped onto 0
    p.poke("ra", uint64_t(5));
    p.eval();
    EXPECT_EQ(p.peek("q").toU64(), 0u); // dropped write, OOR read
    p.poke("ra", uint64_t(9)); // masks to 1, where wa=9 wrote 0x109
    p.eval();
    EXPECT_EQ(p.peek("q").toU64(), 0x109u);
    p.poke("ra", uint64_t(4));
    p.eval();
    EXPECT_EQ(p.peek("q").toU64(), 0x104u);
}

TEST(BytecodeTest, ScalarBitIndexReadWriteAsymmetry)
{
    // Reads truncate the index to uint32 before the range check; writes
    // compare the full 64-bit index. The bytecode backend must replicate
    // both behaviors exactly.
    Pair p("module m(input wire clk, input wire [39:0] i,\n"
           "         input wire [7:0] d, output wire o,\n"
           "         output reg [7:0] w);\n"
           "assign o = d[i];\n"
           "always @(posedge clk) w[i] = 1'b1;\n"
           "endmodule");
    p.poke("d", uint64_t(0x08)); // bit 3 set
    p.poke("i", Bits(40, 0x100000003ULL));
    p.eval();
    // Read: index truncates to 3 -> bit 3 -> 1.
    EXPECT_EQ(p.peek("o").toU64(), 1u);
    // Write: full index 0x100000003 >= 8 -> dropped.
    p.tick();
    EXPECT_EQ(p.peek("w").toU64(), 0u);
    p.poke("i", Bits(40, 6));
    p.tick();
    EXPECT_EQ(p.peek("w").toU64(), 0x40u);
}

TEST(BytecodeTest, FoldingStatsAndDeadGuards)
{
    // A constant expression feeding a guard that is always true: the
    // lowered program keeps both arms and must still run in lockstep.
    Pair p("module m(input wire clk, input wire [7:0] a,\n"
           "         output reg [7:0] q);\n"
           "wire [7:0] k = 8'd3 + 8'd4;\n"
           "always @(posedge clk) begin\n"
           "  if (k == 8'd7) q <= a;\n"
           "  else q <= 8'hEE;\n"
           "end\nendmodule");
    p.poke("a", uint64_t(0x5A));
    p.tick();
    EXPECT_EQ(p.peek("q").toU64(), 0x5Au);
}

TEST(BytecodeTest, ProgramStateRegionLayout)
{
    compile::Program prog = lower(
        "module m(input wire clk, input wire [64:0] d,\n"
        "         output reg [64:0] q);\n"
        "reg [15:0] mem[0:2];\n"
        "always @(posedge clk) q <= d;\n"
        "endmodule");
    // Every signal has a scalar slot and every array an element block,
    // all inside the state region.
    ASSERT_EQ(prog.sigOff.size(), prog.arrOff.size());
    for (size_t i = 0; i < prog.sigOff.size(); ++i)
        EXPECT_LT(prog.sigOff[i], prog.stateWords);
    EXPECT_GT(prog.stateWords, 0u);
    EXPECT_GE(prog.slabInit.size(), prog.stateWords);
    // The state region of the initial image is all-zero (constants live
    // behind it).
    for (uint32_t w = 0; w < prog.stateWords; ++w)
        EXPECT_EQ(prog.slabInit[w], 0u) << "word " << w;
}

TEST(BytecodeTest, PokeVisibleToBytecodeAndPeekFlushes)
{
    Pair p("module m(input wire [63:0] a, output wire [63:0] b);\n"
           "assign b = a ^ 64'hFFFF0000FFFF0000;\n"
           "endmodule");
    p.poke("a", uint64_t(0x1234));
    p.eval();
    EXPECT_EQ(p.peek("b").toU64(), 0xFFFF0000FFFF1234ULL);
}

TEST(BytecodeTest, WideDivisionMatchesLiteralValues)
{
    // Both engines divide wide operands with one shared kernel, so
    // their agreement cannot catch a bug in it. The expected values
    // here were computed with Python integers, outside hwdbg.
    Pair p("module m(input wire [64:0] a65, input wire [64:0] b65,\n"
           "         input wire [129:0] a130, input wire [129:0] b130,\n"
           "         output wire [64:0] q65, output wire [64:0] r65,\n"
           "         output wire [129:0] q130, output wire [129:0] r130,\n"
           "         output wire [129:0] qm, output wire [129:0] rm);\n"
           "assign q65 = a65 / b65;\n"
           "assign r65 = a65 % b65;\n"
           "assign q130 = a130 / b130;\n"
           "assign r130 = a130 % b130;\n"
           "assign qm = a130 / b65;\n"
           "assign rm = a130 % b65;\n"
           "endmodule");
    struct Case
    {
        const char *a, *b, *q, *r;
    };
    const Case cases65[] = {
        {"1d3c2b1a09f8e7d6c", "000000000fedcba98", "000000001d5d946fe",
         "000000000c2afca9c"},
        {"1d3c2b1a09f8e7d6c", "10000000000000007", "00000000000000001",
         "0d3c2b1a09f8e7d65"},
        {"1d3c2b1a09f8e7d6c", "00000000000000000", "1ffffffffffffffff",
         "1ffffffffffffffff"},
    };
    for (const Case &c : cases65) {
        p.poke("a65", Bits::parseVerilog(std::string("65'h") + c.a));
        p.poke("b65", Bits::parseVerilog(std::string("65'h") + c.b));
        p.eval();
        EXPECT_EQ(p.peek("q65").toHexString(), c.q) << c.b;
        EXPECT_EQ(p.peek("r65").toHexString(), c.r) << c.b;
    }
    const Case cases130[] = {
        {"30123456789abcdeffedcba9876543210",
         "00000000000000000123456789abcdef1",
         "0000000000000002a4000000000002573",
         "0000000000000000000da740da74336cd"},
        {"30123456789abcdeffedcba9876543210",
         "280000000000000000000000000000001",
         "000000000000000000000000000000001",
         "08123456789abcdeffedcba987654320f"},
        {"30123456789abcdeffedcba9876543210",
         "00000000000000abcdef0123456789abc",
         "000000000000000000047a10fb3f783c4",
         "000000000000001fe7842f2b3cb6b8620"},
        // Differs from the divisor in the low word only: the quotient
        // estimate 1 is one too high, so Algorithm D adds back.
        {"30123456789abcdef0000000000000004",
         "30123456789abcdef0000000000000005",
         "000000000000000000000000000000000",
         "30123456789abcdef0000000000000004"},
        {"30123456789abcdeffedcba9876543210",
         "000000000000000000000000000000000",
         "3ffffffffffffffffffffffffffffffff",
         "3ffffffffffffffffffffffffffffffff"},
    };
    for (const Case &c : cases130) {
        p.poke("a130", Bits::parseVerilog(std::string("130'h") + c.a));
        p.poke("b130", Bits::parseVerilog(std::string("130'h") + c.b));
        p.eval();
        EXPECT_EQ(p.peek("q130").toHexString(), c.q) << c.b;
        EXPECT_EQ(p.peek("r130").toHexString(), c.r) << c.b;
    }
    // A 130-bit dividend over a 65-bit divisor.
    p.poke("b65", Bits::parseVerilog("65'h10000000000000007"));
    p.eval();
    EXPECT_EQ(p.peek("qm").toHexString(),
              "000000000000000030123456789abcdda");
    EXPECT_EQ(p.peek("rm").toHexString(),
              "00000000000000000f6e5d4c3b2a1911a");
}

namespace
{

/**
 * Every op with a single-word form at operand width @p w, next to fixed
 * 64- and 65-bit operands, a 65-bit condition and a 130-bit slice
 * source, so one design crosses each form's width boundary.
 */
std::string
boundaryDesign(uint32_t w)
{
    std::string v = vectorRange(w);
    std::string cat = vectorRange(2 * w + 3);
    std::string parts = vectorRange(5 * w);
    return "module m(input wire clk, input wire " + v + " a,\n"
           "  input wire " + v + " b, input wire c,\n"
           "  input wire [64:0] c65, input wire [63:0] x64,\n"
           "  input wire [64:0] x65, input wire [39:0] i,\n"
           "  input wire [7:0] n, input wire [129:0] wide,\n"
           "  output wire " + v + " o_add, output wire " + v + " o_sub,\n"
           "  output wire " + v + " o_and, output wire " + v + " o_or,\n"
           "  output wire " + v + " o_xor, output wire " + v + " o_not,\n"
           "  output wire " + v + " o_shl, output wire " + v + " o_shr,\n"
           "  output wire " + v + " o_sel, output wire " + v + " o_sel65,\n"
           "  output wire [63:0] o_copy, output wire [7:0] o_trunc,\n"
           "  output wire o_lnot, output wire o_ror, output wire o_land,\n"
           "  output wire o_lor, output wire o_eq, output wire o_ne,\n"
           "  output wire o_lt, output wire o_le, output wire o_gt,\n"
           "  output wire o_ge, output wire o_bit,\n"
           "  output wire [64:0] o_mix, output wire o_mixlt,\n"
           "  output wire [30:0] o_hi, output wire [63:0] o_hi64,\n"
           "  output wire [63:0] o_al, output wire " + cat + " o_cat,\n"
           "  output reg " + v + " r, output reg " + v + " rb,\n"
           "  output reg [63:0] r64, output reg [7:0] r8,\n"
           "  output wire " + v + " o_mem, output wire " + v + " o_half,\n"
           "  output wire " + parts + " o_parts,\n"
           "  output wire o_land65, output wire o_lor65);\n"
           "reg " + v + " mem[0:5];\n"
           "assign o_mem = mem[i];\n"
           // Results above their width would show in these consumers.
           "assign o_half = (a - b) >> 1;\n"
           "assign o_parts = {a - b, ~a, a + b, a << n, a};\n"
           "assign o_land65 = a && c65;\n"
           "assign o_lor65 = b || c65;\n"
           "assign o_add = a + b;\n"
           "assign o_sub = a - b;\n"
           "assign o_and = a & b;\n"
           "assign o_or = a | b;\n"
           "assign o_xor = a ^ b;\n"
           "assign o_not = ~a;\n"
           "assign o_shl = a << n;\n"
           "assign o_shr = a >> n;\n"
           "assign o_sel = c ? a : b;\n"
           "assign o_sel65 = c65 ? a : b;\n"
           "assign o_copy = a;\n"
           "assign o_trunc = a + b;\n"
           "assign o_lnot = !a;\n"
           "assign o_ror = |a;\n"
           "assign o_land = a && b;\n"
           "assign o_lor = a || b;\n"
           "assign o_eq = a == b;\n"
           "assign o_ne = a != b;\n"
           "assign o_lt = a < b;\n"
           "assign o_le = a <= b;\n"
           "assign o_gt = a > b;\n"
           "assign o_ge = a >= b;\n"
           "assign o_bit = a[i];\n"
           "assign o_mix = x64 + x65;\n"
           "assign o_mixlt = x64 < x65;\n"
           "assign o_hi = wide[100:70];\n"
           "assign o_hi64 = wide[129:66];\n"
           "assign o_al = wide[127:64];\n"
           "assign o_cat = {3'b101, a, b};\n"
           "always @(posedge clk) begin\n"
           "  if (a) r <= a ^ b; else r <= b + 1'b1;\n"
           "  if (c65) r64 <= x65; else r64 <= x64;\n"
           "  case (c)\n"
           "    1'b0: rb <= a;\n"
           "    default: rb <= ~b;\n"
           "  endcase\n"
           "  r8 = a - b;\n"
           "  mem[n[2:0]] <= a;\n"
           "  $display(\"%d %h %b\", a, r, o_bit);\n"
           "end\n"
           "endmodule";
}

/** Drive boundaryDesign(@p w) through edge and random values. */
void
driveBoundary(Pair &p, uint32_t w)
{
    std::mt19937_64 rng(w);
    const uint64_t ones = ~uint64_t(0);
    const uint64_t top64 = uint64_t(1) << 63;
    const uint64_t edges[][2] = {
        {0, 0}, {ones, ones}, {ones, 1}, {1, ones}, {top64, top64},
        {top64, 0}, {0, 1}};
    for (int step = 0; step < 40; ++step) {
        if (step < 7) {
            uint64_t wa[2] = {edges[step][0], edges[step][0]};
            uint64_t wb[2] = {edges[step][1], 0};
            p.poke("a", Bits::fromWords(w, wa, 2));
            p.poke("b", Bits::fromWords(w, wb, 2));
        } else {
            p.poke("a", randomBits(rng, w));
            p.poke("b", step % 5 ? randomBits(rng, w) : Bits(w, 7));
        }
        p.poke("c", uint64_t(step & 1));
        // Only bit 64 set: a single-word test of c65 would read zero.
        uint64_t hi[2] = {0, 1};
        p.poke("c65", step % 3 ? randomBits(rng, 65)
                               : Bits::fromWords(65, hi, 2));
        p.poke("x64", randomBits(rng, 64));
        p.poke("x65", step % 4 ? randomBits(rng, 65)
                               : Bits::fromWords(65, hi, 2));
        // Indexes at and above 2^32 truncate to their low 32 bits.
        uint64_t index = step % 2 ? (uint64_t(1) << 32) + step % 70
                                  : rng() % 80;
        p.poke("i", index);
        p.poke("n", rng() % 80);
        p.poke("wide", randomBits(rng, 130));
        p.tick();
    }
}

} // namespace

TEST(BytecodeTest, SingleWordFormsMatchAtWidthBoundaries)
{
    for (uint32_t w : {1u, 63u, 64u, 65u}) {
        SCOPED_TRACE("width " + std::to_string(w));
        Pair p(boundaryDesign(w));
        driveBoundary(p, w);
        EXPECT_GT(p.interp->log().size(), 0u);
    }
}

TEST(BytecodeTest, SingleWordFormsMatchWithProfilerAndCoverage)
{
    // The single-word store hands a changing store to the generic path
    // when coverage is attached, so onStore sees both values, and
    // counts the toggle itself when only the profiler is.
    for (bool coverage : {false, true}) {
        for (uint32_t w : {1u, 63u, 64u, 65u}) {
            SCOPED_TRACE("width " + std::to_string(w) +
                         (coverage ? " with coverage" : ""));
            Pair p(boundaryDesign(w));
            p.instrument(coverage);
            driveBoundary(p, w);
            if (coverage) {
                EXPECT_GT(p.covB->events(), 0u);
            }
            uint64_t toggles = 0;
            for (uint64_t t : p.profB.toggles)
                toggles += t;
            EXPECT_GT(toggles, 0u);
        }
    }
}

TEST(BytecodeTest, SingleWordDesignsLowerToNoWideArithmeticCompareOrStore)
{
    auto design = [](uint32_t w) {
        std::string v = vectorRange(w);
        return "module m(input wire clk, input wire " + v + " a,\n"
               "  input wire " + v + " b, output wire " + v + " s,\n"
               "  output wire " + v + " d, output wire " + v + " x,\n"
               "  output wire " + v + " y, output wire " + v + " z,\n"
               "  output wire " + v + " t, output wire e,\n"
               "  output wire l, output reg " + v + " q);\n"
               "assign s = a + b;\n"
               "assign d = a - b;\n"
               "assign x = a & b;\n"
               "assign y = a | b;\n"
               "assign z = a ^ b;\n"
               "assign t = ~a;\n"
               "assign e = a == b;\n"
               "assign l = a < b;\n"
               "always @(posedge clk) if (a >= b) q = a; else q = b;\n"
               "endmodule";
    };
    auto wideOps = [](const compile::Program &prog) {
        using compile::Opc;
        size_t n = 0;
        for (const compile::Op &op : prog.ops)
            switch (op.opc) {
              case Opc::Add: case Opc::Sub: case Opc::And:
              case Opc::Or: case Opc::Xor: case Opc::Not:
              case Opc::CmpEq: case Opc::CmpNe: case Opc::CmpLt:
              case Opc::CmpLe: case Opc::CmpGt: case Opc::CmpGe:
              case Opc::Store:
                ++n;
                break;
              default:
                break;
            }
        return n;
    };
    compile::Program narrow = lower(design(64));
    EXPECT_EQ(wideOps(narrow), 0u);
    size_t stores = 0;
    for (const compile::Op &op : narrow.ops)
        stores += op.opc == compile::Opc::Store1;
    EXPECT_EQ(stores, 10u);
    EXPECT_GT(wideOps(lower(design(65))), 0u);
}

TEST(BytecodeTest, ValueMutationsReachEverySingleWordKernel)
{
    // A kernel that dropped its mutation check would disagree with the
    // interpreter here. The mutation is armed before both simulators
    // are built, as the fuzz self-check arms its mutations.
    struct Case
    {
        int mutation;
        const char *expr;
    };
    const Case cases[] = {
        {MUT_SIM_ADD_AS_SUB, "a + b"},
        {MUT_SIM_XOR_AS_OR, "a ^ b"},
        {MUT_SIM_LT_AS_LE, "{{W{1'b0}}, a < b}"},
        {MUT_SIM_SHR_OFF_BY_ONE, "a >> b[3:0]"},
        {MUT_SIM_TERNARY_SWAP, "b[0] ? a : b"},
    };
    for (uint32_t w : {8u, 65u}) {
        for (const Case &c : cases) {
            std::string expr = c.expr;
            size_t at = expr.find('W');
            if (at != std::string::npos)
                expr.replace(at, 1, std::to_string(w - 1));
            std::string v = vectorRange(w);
            SCOPED_TRACE(expr + " at width " + std::to_string(w));
            MutationGuard guard(c.mutation);
            Pair p("module m(input wire " + v + " a, input wire " + v +
                   " b,\n  output wire " + v + " o);\n"
                   "assign o = " + expr + ";\nendmodule");
            std::mt19937_64 rng(w * 31 + c.mutation);
            bool differs = false;
            for (int step = 0; step < 24; ++step) {
                Bits a = randomBits(rng, w);
                // Equal operands make < and <= differ.
                Bits b = step % 3 ? randomBits(rng, w) : a;
                p.poke("a", a);
                p.poke("b", b);
                p.eval();
                Bits o = p.peek("o");
                activeMutation = MUT_NONE;
                Bits want = a.add(b);
                switch (c.mutation) {
                  case MUT_SIM_XOR_AS_OR: want = a.bitXor(b); break;
                  case MUT_SIM_LT_AS_LE:
                    want = Bits(w, a.compare(b) < 0);
                    break;
                  case MUT_SIM_SHR_OFF_BY_ONE:
                    want = a.shr(b.toU64() & 15);
                    break;
                  case MUT_SIM_TERNARY_SWAP:
                    want = b.bit(0) ? a : b;
                    break;
                  default: break;
                }
                activeMutation = c.mutation;
                differs = differs || o != want;
            }
            // The stimulus shows the mutation; Pair showed agreement.
            EXPECT_TRUE(differs);
        }
    }
}
