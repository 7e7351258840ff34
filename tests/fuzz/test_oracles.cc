/**
 * @file
 * The fuzz oracles: clean on HEAD, sharp against injected mutations,
 * and regressions for the bugs the first campaigns actually found.
 *
 * Three layers:
 *  - a HEAD sweep (a small fixed seed range must report zero failures
 *    — the tree the tests run on is the tree the fuzzer blesses),
 *  - mutation catches (one representative mutation per oracle flipped
 *    via activeMutation must be caught within a bounded seed budget),
 *  - hand-written reproducers for real bugs the fuzzer surfaced:
 *    negedge-$display recording, blocking-write/$display races being
 *    scoped out of SignalCat, and monitor sampling order around
 *    blocking-assigned event registers.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/testhooks.hh"
#include "core/signalcat.hh"
#include "elab/elaborate.hh"
#include "fuzz/oracles.hh"
#include "hdl/parser.hh"

namespace hwdbg::fuzz
{
namespace
{

/** Flips a mutation on for one scope; never leaks into other tests. */
struct MutationGuard
{
    explicit MutationGuard(int id) { activeMutation = id; }
    ~MutationGuard() { activeMutation = MUT_NONE; }
};

GeneratedDesign
fromSource(const char *src, std::vector<StimulusPort> inputs,
           std::vector<std::string> outputs,
           std::vector<std::string> events = {})
{
    GeneratedDesign gd;
    gd.design = hdl::parse(src, "<oracle-test>");
    gd.top = std::string("t");
    gd.inputs = std::move(inputs);
    gd.outputs = std::move(outputs);
    gd.eventSignals = std::move(events);
    return gd;
}

TEST(FuzzOracles, HeadSeedsAreClean)
{
    OracleOptions opts;
    for (uint64_t seed = 0; seed < 10; ++seed) {
        std::vector<Failure> fails =
            runOracles(generateDesign(seed), seed, opts);
        for (const auto &f : fails)
            ADD_FAILURE() << "seed " << seed << " "
                          << oracleName(f.oracle) << ": " << f.detail;
    }
}

TEST(FuzzOracles, EachOracleCatchesItsRepresentativeMutation)
{
    struct Probe
    {
        int mutation;
        Oracle expected;
    };
    const Probe probes[] = {
        {MUT_SIM_ADD_AS_SUB, Oracle::Differential},
        {MUT_PRINT_SHL_AS_SHR, Oracle::Roundtrip},
        {MUT_LINT_UNUSED_PARITY, Oracle::Lint},
        {MUT_INSTR_FSM_SWAP, Oracle::Instrument},
    };
    OracleOptions opts;
    for (const Probe &probe : probes) {
        MutationGuard guard(probe.mutation);
        bool caught = false;
        for (uint64_t seed = 0; seed < 64 && !caught; ++seed) {
            for (const auto &f :
                 runOracles(generateDesign(seed), seed, opts))
                caught |= f.oracle == probe.expected;
        }
        EXPECT_TRUE(caught)
            << "mutation " << probe.mutation << " escaped "
            << oracleName(probe.expected) << " over seeds 0..63";
    }
}

TEST(FuzzOracles, OracleMaskDisablesOracles)
{
    MutationGuard guard(MUT_SIM_ADD_AS_SUB);
    OracleOptions all;
    uint64_t hit = 0;
    bool caught = false;
    for (uint64_t seed = 0; seed < 64 && !caught; ++seed) {
        hit = seed;
        caught = !runOracles(generateDesign(seed), seed, all).empty();
    }
    ASSERT_TRUE(caught);

    // The same seed with the differential oracle masked off is silent:
    // the arithmetic mutation is invisible to the static oracles.
    OracleOptions masked;
    masked.mask = oracleBit(Oracle::Roundtrip) | oracleBit(Oracle::Lint);
    EXPECT_TRUE(
        runOracles(generateDesign(hit), hit, masked).empty());
}

// Regression: fuzzing found that negedge-clocked $display groups were
// recorded on the wrong phase (the recorder primitive only triggers on
// rising edges, so it must be fed the inverted clock) and that the
// simulator saw a phantom first rising edge on such inverted clocks.
TEST(FuzzOracles, NegedgeDisplaysSurviveAllOracles)
{
    GeneratedDesign gd = fromSource(
        "module t(input wire clk, input wire [3:0] a,\n"
        "         output reg [3:0] q);\n"
        "always @(negedge clk) begin\n"
        "  q <= a;\n"
        "  $display(\"q=%d a=%d\", q, a);\n"
        "end\nendmodule",
        {{"a", 4}}, {"q"});
    OracleOptions opts;
    for (const auto &f : runOracles(gd, 11, opts))
        ADD_FAILURE() << oracleName(f.oracle) << ": " << f.detail;
}

// Regression: a $display that reads a variable a blocking assignment
// updated earlier in the same edge cannot be reproduced by a net-tap
// recorder. SignalCat must refuse such modules (and the instrument
// oracle skips them) instead of recording wrong values.
TEST(FuzzOracles, BlockingWriteDisplayRaceIsOutsideSignalCatScope)
{
    auto flatten = [](const char *src) {
        return elab::elaborate(hdl::parse(src, "<t>"), "t").mod;
    };

    auto racy = flatten(
        "module t(input wire clk, input wire [3:0] a,\n"
        "         output reg [3:0] q);\n"
        "always @(posedge clk) begin\n"
        "  q = a;\n"
        "  $display(\"q=%d\", q);\n"
        "end\nendmodule");
    EXPECT_FALSE(core::signalCatSupported(*racy));
    EXPECT_THROW(core::applySignalCat(*racy), HdlError);

    // The same shape with a nonblocking assignment is recordable.
    auto clean = flatten(
        "module t(input wire clk, input wire [3:0] a,\n"
        "         output reg [3:0] q);\n"
        "always @(posedge clk) begin\n"
        "  q <= a;\n"
        "  $display(\"q=%d\", q);\n"
        "end\nendmodule");
    EXPECT_TRUE(core::signalCatSupported(*clean));

    // Displays split across both clock edges need two sampling clocks;
    // the single-recorder plan cannot express that.
    auto mixed = flatten(
        "module t(input wire clk, output reg [3:0] n);\n"
        "always @(posedge clk) begin\n"
        "  n <= n + 1;\n"
        "  $display(\"p=%d\", n);\n"
        "end\n"
        "always @(negedge clk) $display(\"m=%d\", n);\n"
        "endmodule");
    EXPECT_FALSE(core::signalCatSupported(*mixed));
    EXPECT_THROW(core::applySignalCat(*mixed), HdlError);
}

// Regression: generated monitor processes used to be appended after
// the user's clocked processes, so they read post-edge values of
// blocking-assigned registers and over/under-counted events by the
// edge's own update. Monitors must sample the pre-edge view.
TEST(FuzzOracles, StatsMonitorSamplesBlockingEventsPreEdge)
{
    GeneratedDesign gd = fromSource(
        "module t(input wire clk, input wire [3:0] a,\n"
        "         output reg [3:0] q, output reg ev0);\n"
        "always @(posedge clk) begin\n"
        "  ev0 = a[0] ^ q[0];\n"
        "  q <= q + a;\n"
        "end\nendmodule",
        {{"a", 4}}, {"q", "ev0"}, {"ev0"});
    OracleOptions opts;
    for (const auto &f : runOracles(gd, 26, opts))
        ADD_FAILURE() << oracleName(f.oracle) << ": " << f.detail;
}

} // namespace
} // namespace hwdbg::fuzz
