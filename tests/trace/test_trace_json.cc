/**
 * @file
 * hwdbg-trace JSON v1: byte-stable round-trip through
 * toJson/parseTraceDump, and rejection of the corruptions obscheck
 * exists to catch — wrong format tag, inconsistent window geometry,
 * non-monotonic row sequence numbers, row/signal arity mismatch, and
 * hex values wider than the declared signal.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "sim/simulator.hh"
#include "trace/json.hh"
#include "trace/trace.hh"

using namespace hwdbg;
using namespace hwdbg::trace;

namespace
{

/** A small real capture: counter, a dozen change rows. */
TraceDump
makeDump(uint64_t budgetBytes = 1 << 10)
{
    hdl::Design design = hdl::parse(
        "module m(input wire clk, input wire rst,\n"
        "         output reg [7:0] count);\n"
        "always @(posedge clk)\n"
        "  if (rst) count <= 0; else count <= count + 1;\nendmodule");
    sim::Simulator sim(elab::elaborate(design, "m").mod);

    TraceConfig cfg;
    cfg.signals = {"count"};
    cfg.trigger = "count == 8'h4";
    cfg.budgetBytes = budgetBytes;
    TraceRecorder rec(sim, cfg);
    rec.attach();
    for (int t = 0; t < 16; ++t) {
        sim.poke("rst", uint64_t(t < 2 ? 1 : 0));
        sim.poke("clk", uint64_t(0));
        sim.eval();
        sim.poke("clk", uint64_t(1));
        sim.eval();
    }
    rec.detach();
    return rec.dump("unit");
}

/** The serialized form after one struct-level corruption. */
std::string
corrupt(const TraceDump &dump, void (*mutate)(TraceDump &))
{
    TraceDump copy = dump;
    mutate(copy);
    return toJson(copy);
}

} // namespace

TEST(TraceJsonTest, RoundTripIsByteStable)
{
    TraceDump dump = makeDump();
    ASSERT_TRUE(dump.fired);
    ASSERT_GT(dump.rows.size(), 2u);

    std::string text = toJson(dump);
    EXPECT_EQ(checkTraceDumpJson(text), "");

    TraceDump parsed;
    std::string error;
    ASSERT_TRUE(parseTraceDump(text, &parsed, &error)) << error;
    EXPECT_EQ(parsed.rows.size(), dump.rows.size());
    EXPECT_EQ(parsed.triggerSeq, dump.triggerSeq);
    EXPECT_EQ(toJson(parsed), text);
}

TEST(TraceJsonTest, BudgetStopsAtTheLargestExactJsonInteger)
{
    // The ring grows lazily, so any budget the dump can record runs;
    // one past 2^53 - 1 would write a dump its own schema refuses.
    const uint64_t largest = (uint64_t(1) << 53) - 1;
    TraceDump dump = makeDump(largest);
    EXPECT_EQ(dump.config.budgetBytes, largest);
    EXPECT_EQ(checkTraceDumpJson(toJson(dump)), "");
    EXPECT_THROW(makeDump(largest + 1), HdlError);
}

TEST(TraceJsonTest, RejectsWrongFormatTag)
{
    std::string text = toJson(makeDump());
    size_t at = text.find("hwdbg-trace");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 11, "hwdbg-cover");
    EXPECT_NE(checkTraceDumpJson(text), "");
}

TEST(TraceJsonTest, RejectsInconsistentWindowGeometry)
{
    TraceDump dump = makeDump();
    // pre + post must equal depth.
    EXPECT_NE(checkTraceDumpJson(
                  corrupt(dump, [](TraceDump &d) { d.preDepth += 1; })),
              "");
    // fired without armed is impossible.
    EXPECT_NE(checkTraceDumpJson(
                  corrupt(dump, [](TraceDump &d) { d.armed = false; })),
              "");
    // More rows than the window can hold.
    EXPECT_NE(checkTraceDumpJson(corrupt(dump,
                                         [](TraceDump &d) {
                                             d.depth = 1;
                                             d.preDepth = 0;
                                             d.postDepth = 1;
                                         })),
              "");
}

TEST(TraceJsonTest, RejectsNonIncreasingRowSeq)
{
    TraceDump dump = makeDump();
    EXPECT_NE(checkTraceDumpJson(corrupt(dump,
                                         [](TraceDump &d) {
                                             d.rows[1].seq =
                                                 d.rows[0].seq;
                                         })),
              "");
}

TEST(TraceJsonTest, RejectsRowValueArityMismatch)
{
    TraceDump dump = makeDump();
    EXPECT_NE(checkTraceDumpJson(corrupt(dump,
                                         [](TraceDump &d) {
                                             d.rows[0].values.clear();
                                         })),
              "");
}

TEST(TraceJsonTest, RejectsOverwideHexValue)
{
    // Text-level corruption: an 8-bit signal serializes as exactly two
    // nibbles; widen one value and the fixed-width rule must trip.
    std::string text = toJson(makeDump());
    size_t at = text.find("\"values\": [\"0x");
    ASSERT_NE(at, std::string::npos);
    text.insert(at + 14, 1, 'f');
    EXPECT_NE(checkTraceDumpJson(text), "");
}
