/**
 * @file
 * The cross-backend fuzz oracle: generated designs must run identically
 * on the interpreter and the compiled bytecode backend, and the oracle
 * must actually catch a backend that diverges.
 */

#include <gtest/gtest.h>

#include "common/testhooks.hh"
#include "compile/backend.hh"
#include "elab/elaborate.hh"
#include "fuzz/generator.hh"
#include "fuzz/oracles.hh"
#include "hdl/parser.hh"
#include "sim/simulator.hh"

using namespace hwdbg;
using namespace hwdbg::fuzz;

TEST(XbackendOracleTest, CleanSweepOverGeneratedDesigns)
{
    // A miniature campaign; the CI fuzz-smoke step and the long-label
    // fuzz_xbackend_500 test run the full-size ones.
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        GeneratedDesign gd = generateDesign(seed, {});
        auto failure = runXbackend(gd, seed, 24);
        ASSERT_FALSE(failure.has_value())
            << "seed " << seed << ": " << failure->detail;
    }
}

TEST(XbackendOracleTest, RegistrationAndNaming)
{
    EXPECT_STREQ(oracleName(Oracle::Xbackend), "xbackend");
    Oracle parsed;
    ASSERT_TRUE(oracleFromName("xbackend", &parsed));
    EXPECT_EQ(parsed, Oracle::Xbackend);
    // Opt-in: the default mask excludes it.
    EXPECT_EQ(OracleOptions().mask & oracleBit(Oracle::Xbackend), 0u);

    OracleOptions opts;
    opts.mask = oracleBit(Oracle::Xbackend);
    GeneratedDesign gd = generateDesign(7, {});
    EXPECT_TRUE(runOracles(gd, 7, opts).empty());
}

TEST(XbackendOracleTest, ComparisonHasTeeth)
{
    // A correct interpreter and a correct lowering can only disagree
    // where lowering bakes in semantics: a structural mutation armed
    // after the program was built reaches the interpreter live but not
    // the lowered ops. Construct exactly that divergence and check the
    // comparison the oracle relies on sees it — guarding both the
    // oracle's sensitivity and the rule that lowering must re-run when
    // a mutation arms.
    hdl::Design design = hdl::parse(
        "module m(input wire [7:0] a, output reg [1:0] z);\n"
        "always @(*) case (a + 8'd1)\n"
        "  9'd256: z = 2'd1;\n"
        "  default: z = 2'd2;\n"
        "endcase\n"
        "endmodule");
    auto mod = elab::elaborate(design, "m").mod;
    sim::Simulator interp(mod);
    sim::Simulator bytecode(mod);
    bytecode.setBackend(compile::makeBytecodeBackend());

    // Labels compared at the selector's 8 bits: 9'd256 truncates to 0,
    // which a + 1 wraps to.
    activeMutation = MUT_SIM_CASE_SEL_WIDTH;
    interp.poke("a", uint64_t(255));
    bytecode.poke("a", uint64_t(255));
    interp.eval();   // live mutation: the label matches
    bytecode.eval(); // lowered at 9 bits: falls to default
    Bits zi = interp.peek("z");
    Bits zb = bytecode.peek("z");
    activeMutation = MUT_NONE;

    EXPECT_EQ(zi.toU64(), 1u);
    EXPECT_EQ(zb.toU64(), 2u);
    EXPECT_NE(zi.toU64(), zb.toU64())
        << "planted divergence was not observable";
}
