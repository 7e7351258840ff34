/**
 * @file
 * The Order oracle and the simulator's process-permutation hook.
 *
 * The oracle's contract: a divergence between declaration-order and
 * reversed-order execution is a Failure unless the analyze race pass
 * statically flagged the design, and every "confirmed" stat is such a
 * flagged design that really diverged. These tests pin the hook's
 * semantics (blocking visibility follows execution order, NBAs do
 * not), then drive the oracle over hand-written racy and race-free
 * designs and a seed sweep.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "fuzz/generator.hh"
#include "fuzz/oracles.hh"
#include "fuzz/runner.hh"
#include "hdl/parser.hh"
#include "sim/simulator.hh"

namespace hwdbg::fuzz
{
namespace
{

std::unique_ptr<sim::Simulator>
makeSim(const std::string &src, const std::string &top = "m")
{
    return std::make_unique<sim::Simulator>(
        elab::elaborate(hdl::parse(src), top).mod);
}

void
tick(sim::Simulator &sim)
{
    sim.poke("clk", uint64_t(0));
    sim.eval();
    sim.poke("clk", uint64_t(1));
    sim.eval();
}

/** Two clocked processes with a blocking-write race: the reader sees
 *  d's new value only when the writer runs first. */
const char *kRacySrc =
    "module m(input wire clk, input wire [3:0] d,\n"
    "         output reg [3:0] q);\n"
    "reg [3:0] x;\n"
    "always @(posedge clk) x = d;\n"
    "always @(posedge clk) q <= x;\nendmodule";

GeneratedDesign
fromSource(const char *src, std::vector<StimulusPort> inputs,
           std::vector<std::string> outputs)
{
    GeneratedDesign gd;
    gd.design = hdl::parse(src, "<order-test>");
    gd.top = std::string("m");
    gd.inputs = std::move(inputs);
    gd.outputs = std::move(outputs);
    return gd;
}

} // namespace

TEST(ProcessOrderTest, ReversedOrderChangesBlockingVisibility)
{
    // Declaration order: x = d runs before q <= x, so q tracks d with
    // no delay. Reversed: q samples the previous x.
    auto sim = makeSim(kRacySrc);
    sim->poke("d", uint64_t(7));
    tick(*sim);
    EXPECT_EQ(sim->peekU64("q"), 7u);

    auto rev = makeSim(kRacySrc);
    rev->setProcessOrder({1, 0});
    rev->poke("d", uint64_t(7));
    tick(*rev);
    EXPECT_EQ(rev->peekU64("q"), 0u);
    tick(*rev);
    EXPECT_EQ(rev->peekU64("q"), 7u);
}

TEST(ProcessOrderTest, EmptyOrderRestoresDeclarationOrder)
{
    auto sim = makeSim(kRacySrc);
    sim->setProcessOrder({1, 0});
    sim->setProcessOrder({});
    sim->poke("d", uint64_t(9));
    tick(*sim);
    EXPECT_EQ(sim->peekU64("q"), 9u);
}

TEST(ProcessOrderTest, NbaOnlyDesignIsOrderIndependent)
{
    const char *src =
        "module m(input wire clk, input wire [3:0] d,\n"
        "         output reg [3:0] q);\n"
        "reg [3:0] x;\n"
        "always @(posedge clk) x <= d;\n"
        "always @(posedge clk) q <= x;\nendmodule";
    auto a = makeSim(src);
    auto b = makeSim(src);
    b->setProcessOrder({1, 0});
    for (uint64_t v : {3u, 12u, 5u, 0u, 15u}) {
        a->poke("d", v);
        b->poke("d", v);
        tick(*a);
        tick(*b);
        EXPECT_EQ(a->peekU64("q"), b->peekU64("q"));
        EXPECT_EQ(a->peekU64("x"), b->peekU64("x"));
    }
}

TEST(ProcessOrderTest, InvalidPermutationIsFatal)
{
    auto sim = makeSim(kRacySrc);
    EXPECT_THROW(sim->setProcessOrder({0}), HdlError);
    EXPECT_THROW(sim->setProcessOrder({0, 0}), HdlError);
    EXPECT_THROW(sim->setProcessOrder({0, 2}), HdlError);
}

TEST(OrderOracleTest, RacyDesignIsFlaggedAndConfirmed)
{
    auto gd = fromSource(kRacySrc, {{"d", 4}}, {"q"});
    OrderStats stats;
    auto failure = runOrder(gd, 1, 24, &stats);
    // The race pass flags the design, so the divergence is a confirmed
    // verdict, not a soundness failure.
    EXPECT_FALSE(failure.has_value())
        << (failure ? failure->detail : "");
    EXPECT_EQ(stats.flagged, 1u);
    EXPECT_EQ(stats.confirmed, 1u);
    EXPECT_EQ(stats.unrefuted, 0u);
}

TEST(OrderOracleTest, CleanDesignAddsNoStats)
{
    const char *src =
        "module m(input wire clk, input wire [3:0] d,\n"
        "         output reg [3:0] q);\n"
        "reg [3:0] x;\n"
        "always @(posedge clk) x <= d;\n"
        "always @(posedge clk) q <= x;\nendmodule";
    auto gd = fromSource(src, {{"d", 4}}, {"q"});
    OrderStats stats;
    auto failure = runOrder(gd, 1, 24, &stats);
    EXPECT_FALSE(failure.has_value())
        << (failure ? failure->detail : "");
    EXPECT_EQ(stats.flagged, 0u);
    EXPECT_EQ(stats.confirmed, 0u);
    EXPECT_EQ(stats.unrefuted, 0u);
}

TEST(OrderOracleTest, SingleProcessDesignIsTriviallyClean)
{
    const char *src =
        "module m(input wire clk, input wire [3:0] d,\n"
        "         output reg [3:0] q);\n"
        "always @(posedge clk) q <= d;\nendmodule";
    auto gd = fromSource(src, {{"d", 4}}, {"q"});
    OrderStats stats;
    EXPECT_FALSE(runOrder(gd, 1, 24, &stats).has_value());
    EXPECT_EQ(stats.confirmed, 0u);
}

TEST(OrderOracleTest, GeneratedSeedsUpholdTheSoundnessContract)
{
    // Sweep generated designs with the race template enabled; any
    // divergence the race pass missed comes back as a Failure and
    // fails the test. The invariant flagged == confirmed + unrefuted
    // must hold at every step.
    GeneratorOptions gopts;
    gopts.raceChance = 60;
    OrderStats stats;
    for (uint64_t seed = 0; seed < 40; ++seed) {
        auto gd = generateDesign(seed, gopts);
        auto failure = runOrder(gd, seed, 24, &stats);
        EXPECT_FALSE(failure.has_value())
            << "seed " << seed << ": "
            << (failure ? failure->detail : "");
        EXPECT_EQ(stats.flagged, stats.confirmed + stats.unrefuted);
    }
    // With the template at 60%, the sweep must actually exercise the
    // confirmation path.
    EXPECT_GT(stats.flagged, 0u);
    EXPECT_GT(stats.confirmed, 0u);
}

TEST(OrderOracleTest, DefaultOptionDesignsUnchangedByRaceKnob)
{
    // raceChance = 0 must not disturb the RNG stream: the generated
    // design is byte-identical to the option-free generator's.
    for (uint64_t seed = 0; seed < 8; ++seed) {
        GeneratorOptions zero;
        zero.raceChance = 0;
        auto a = generateDesign(seed);
        auto b = generateDesign(seed, zero);
        EXPECT_TRUE(hdl::designEquals(a.design, b.design))
            << "seed " << seed;
    }
}

TEST(OrderCampaignTest, RunnerFoldsStatsDeterministically)
{
    FuzzConfig config;
    config.seeds = 30;
    config.cycles = 24;
    config.raceChance = 50;
    config.mask = oracleBit(Oracle::Order);
    config.jobs = 1;
    FuzzReport one = runFuzz(config);
    EXPECT_TRUE(reportOk(one));
    EXPECT_EQ(one.order.flagged,
              one.order.confirmed + one.order.unrefuted);
    EXPECT_GT(one.order.flagged, 0u);

    // Worker count must not change the tally or the report bytes.
    config.jobs = 4;
    FuzzReport four = runFuzz(config);
    EXPECT_EQ(one.order.flagged, four.order.flagged);
    EXPECT_EQ(one.order.confirmed, four.order.confirmed);
    EXPECT_EQ(renderReport(one, config), renderReport(four, config));
}

TEST(OrderCampaignTest, DefaultMaskReportHasNoOrderLines)
{
    FuzzConfig config;
    config.seeds = 3;
    config.cycles = 8;
    FuzzReport report = runFuzz(config);
    std::string text = renderReport(report, config);
    EXPECT_EQ(text.find("order oracle"), std::string::npos);
    config.json = true;
    std::string json = renderReport(report, config);
    EXPECT_EQ(json.find("\"order\""), std::string::npos);
}

} // namespace hwdbg::fuzz
