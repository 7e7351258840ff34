/**
 * @file
 * Tests for ValidCheck, the use-without-valid detector built on the
 * LossCheck machinery (the paper's §3.3.4 bug subclass).
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/logging.hh"
#include "core/validcheck.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "hdl/printer.hh"
#include "sim/simulator.hh"

using namespace hwdbg;
using namespace hwdbg::hdl;
using namespace hwdbg::sim;
using namespace hwdbg::core;

namespace
{

ModulePtr
flat(const std::string &src)
{
    return elab::elaborate(parse(src), "m").mod;
}

std::unique_ptr<Simulator>
simulate(ModulePtr mod)
{
    Design design = parse(printModule(*mod));
    return std::make_unique<Simulator>(
        elab::elaborate(design, "m").mod);
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

// The paper's §3.3.4 snippet: sum consumes data regardless of
// data_valid.
const char *buggy_accumulator =
    "module m(input wire clk, input wire data_valid,\n"
    "         input wire [7:0] data, output reg [7:0] sum);\n"
    "always @(posedge clk) sum <= sum + data;\nendmodule";

// The paper's fix: the use is guarded by the valid signal.
const char *fixed_accumulator =
    "module m(input wire clk, input wire data_valid,\n"
    "         input wire [7:0] data, output reg [7:0] sum);\n"
    "always @(posedge clk)\n"
    "    if (data_valid) sum <= sum + data;\n"
    "    else sum <= sum;\nendmodule";

ValidCheckOptions
accumulatorOptions()
{
    ValidCheckOptions opts;
    opts.pairs.push_back(ValidPair{"data", "data_valid"});
    return opts;
}

} // namespace

TEST(ValidCheckTest, FlagsThePaperPattern)
{
    auto mod = flat(buggy_accumulator);
    ValidCheckResult inst =
        applyValidCheck(analyze::Context(*mod), accumulatorOptions());
    EXPECT_EQ(inst.usesInstrumented.at("data"), 1);
    EXPECT_GT(inst.generatedLines, 0);

    auto sim = simulate(inst.module);
    sim->poke("data_valid", uint64_t(0));
    sim->poke("data", uint64_t(0x33)); // garbage on the bus
    tick(*sim, 2);
    auto uses = invalidUses(sim->log());
    ASSERT_EQ(uses.size(), 1u);
    EXPECT_EQ(uses[0].data, "data");
    EXPECT_EQ(uses[0].target, "sum");
}

TEST(ValidCheckTest, GuardedUseIsStaticallyClean)
{
    auto mod = flat(fixed_accumulator);
    ValidCheckResult inst =
        applyValidCheck(analyze::Context(*mod), accumulatorOptions());
    // Both branches' guards mention data_valid, so no checks are
    // inserted at all (the static analysis proves the fix).
    EXPECT_EQ(inst.usesInstrumented.at("data"), 0);

    auto sim = simulate(inst.module);
    sim->poke("data_valid", uint64_t(0));
    sim->poke("data", uint64_t(0x33));
    tick(*sim, 3);
    EXPECT_TRUE(invalidUses(sim->log()).empty());
}

TEST(ValidCheckTest, ValidUseDoesNotFire)
{
    auto mod = flat(buggy_accumulator);
    ValidCheckResult inst =
        applyValidCheck(analyze::Context(*mod), accumulatorOptions());
    auto sim = simulate(inst.module);
    sim->poke("data_valid", uint64_t(1));
    sim->poke("data", uint64_t(5));
    tick(*sim, 3);
    // The use is unguarded, but valid was high whenever it fired.
    EXPECT_TRUE(invalidUses(sim->log()).empty());
}

TEST(ValidCheckTest, MultiplePairsAndTargets)
{
    auto mod = flat(
        "module m(input wire clk, input wire av, input wire bv,\n"
        "         input wire [7:0] a, input wire [7:0] b,\n"
        "         output reg [7:0] x, output reg [7:0] y);\n"
        "always @(posedge clk) begin\n"
        "  x <= a;\n"              // unguarded use of a
        "  if (bv) y <= b;\n"      // properly guarded use of b
        "end\nendmodule");
    ValidCheckOptions opts;
    opts.pairs.push_back(ValidPair{"a", "av"});
    opts.pairs.push_back(ValidPair{"b", "bv"});
    ValidCheckResult inst = applyValidCheck(analyze::Context(*mod), opts);
    EXPECT_EQ(inst.usesInstrumented.at("a"), 1);
    EXPECT_EQ(inst.usesInstrumented.at("b"), 0);

    auto sim = simulate(inst.module);
    sim->poke("av", uint64_t(0));
    sim->poke("bv", uint64_t(0));
    tick(*sim, 2);
    auto uses = invalidUses(sim->log());
    ASSERT_EQ(uses.size(), 1u);
    EXPECT_EQ(uses[0].data, "a");
    EXPECT_EQ(uses[0].target, "x");
}

TEST(ValidCheckTest, UnknownSignalThrows)
{
    auto mod = flat(buggy_accumulator);
    ValidCheckOptions opts;
    opts.pairs.push_back(ValidPair{"nope", "data_valid"});
    EXPECT_THROW(applyValidCheck(analyze::Context(*mod), opts), HdlError);
}
