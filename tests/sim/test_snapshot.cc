/**
 * @file
 * Snapshot determinism: the load-bearing guarantee for time travel.
 *
 * For every testbed bug: record the trigger workload as a stimulus
 * tape, replay to the halfway point, saveState(), continue to the end
 * capturing the final peek state / $display log / VCD tail, then
 * restoreState() and re-run the same tail — everything must be
 * bit-identical. Also unit-checks save/restore around the primitive
 * models (FIFO queues, RAM words, recorder buffers) and the pending
 * NBA queue, since those are the states a naive snapshot would miss.
 */

#include <gtest/gtest.h>

#include <memory>

#include "bugbase/testbed.hh"
#include "bugbase/workloads.hh"
#include "common/logging.hh"
#include "hdl/parser.hh"
#include "elab/elaborate.hh"
#include "sim/simulator.hh"
#include "trace/vcd.hh"

using namespace hwdbg;
using namespace hwdbg::sim;

namespace
{

std::unique_ptr<Simulator>
makeSim(const std::string &src, const std::string &top = "m")
{
    hdl::Design design = hdl::parse(src);
    return std::make_unique<Simulator>(elab::elaborate(design, top).mod);
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

/** Every externally-visible piece of simulator state. */
struct StateDump
{
    std::vector<Bits> values;
    std::vector<std::vector<Bits>> arrays;
    uint64_t cycle = 0;
    bool finished = false;
    std::vector<std::string> log;

    bool operator==(const StateDump &rhs) const
    {
        return values == rhs.values && arrays == rhs.arrays &&
               cycle == rhs.cycle && finished == rhs.finished &&
               log == rhs.log;
    }
};

StateDump
dumpState(Simulator &sim)
{
    StateDump dump;
    dump.values = sim.context().values;
    dump.arrays = sim.context().arrays;
    dump.cycle = sim.cycle();
    dump.finished = sim.finished();
    for (const auto &line : sim.log())
        dump.log.push_back(std::to_string(line.cycle) + ":" + line.text);
    return dump;
}

/** Replay tape[from, to) while sampling a VCD; returns the rendered
 *  dump of that tail. */
std::string
replayTail(Simulator &sim, const StimulusTape &tape, size_t from,
           size_t to)
{
    trace::VcdRecorder vcd(sim);
    for (size_t i = from; i < to; ++i) {
        sim.applyStep(tape.steps[i]);
        vcd.sample(i);
    }
    return vcd.render();
}

} // namespace

TEST(SnapshotTest, SaveRestoreIsDeterministicOnEveryTestbedBug)
{
    for (const auto &bug : bugs::testbedBugs()) {
        SCOPED_TRACE(bug.id);
        auto elaborated = bugs::buildDesign(bug, true);

        StimulusTape tape;
        {
            Simulator recorder(elaborated.mod);
            StimulusRecorder taping(recorder, tape);
            bugs::runWorkload(bug, recorder);
        }
        ASSERT_GT(tape.steps.size(), 2u);
        size_t k = tape.steps.size() / 2;

        Simulator sim(elaborated.mod);
        for (size_t i = 0; i < k; ++i)
            sim.applyStep(tape.steps[i]);
        SimSnapshot snap = sim.saveState();
        StateDump atK = dumpState(sim);

        std::string vcdFirst =
            replayTail(sim, tape, k, tape.steps.size());
        StateDump atEndFirst = dumpState(sim);

        sim.restoreState(snap);
        EXPECT_TRUE(dumpState(sim) == atK)
            << "restore did not reproduce the state at step " << k;

        std::string vcdSecond =
            replayTail(sim, tape, k, tape.steps.size());
        StateDump atEndSecond = dumpState(sim);

        EXPECT_TRUE(atEndFirst == atEndSecond)
            << "replayed tail diverged from the original run";
        EXPECT_EQ(vcdFirst, vcdSecond)
            << "VCD tails differ after restore";
    }
}

TEST(SnapshotTest, RestoreRejectsForeignDesign)
{
    auto a = makeSim(
        "module m(input wire clk, output reg [7:0] count);\n"
        "always @(posedge clk) count <= count + 1;\nendmodule");
    auto b = makeSim(
        "module m(input wire clk, input wire [3:0] d,\n"
        "         output reg [3:0] q, output reg [3:0] r);\n"
        "always @(posedge clk) begin q <= d; r <= q; end\nendmodule");
    SimSnapshot snap = a->saveState();
    EXPECT_THROW(b->restoreState(snap), HdlError);
}

TEST(SnapshotTest, PrimitiveStateRoundTrips)
{
    // An scfifo holds queued entries that live outside the signal
    // table; a snapshot taken mid-stream must capture them.
    auto sim = makeSim(
        "module m(input wire clk, input wire [7:0] data,\n"
        "         input wire wrreq, input wire rdreq,\n"
        "         output wire [7:0] q, output wire empty,\n"
        "         output wire full);\n"
        "scfifo #(.WIDTH(8), .DEPTH(4)) u_f(\n"
        "  .clock(clk), .sclr(1'b0), .data(data), .wrreq(wrreq),\n"
        "  .rdreq(rdreq), .q(q), .empty(empty), .full(full));\n"
        "endmodule");
    sim->poke("wrreq", uint64_t(1));
    sim->poke("rdreq", uint64_t(0));
    for (uint64_t v = 1; v <= 3; ++v) {
        sim->poke("data", 0x40 + v);
        tick(*sim);
    }
    sim->poke("wrreq", uint64_t(0));
    SimSnapshot snap = sim->saveState();

    auto drain = [&](Simulator &s) {
        std::vector<uint64_t> seen;
        s.poke("rdreq", uint64_t(1));
        for (int i = 0; i < 4; ++i) {
            tick(s);
            seen.push_back(s.peekU64("q"));
        }
        seen.push_back(s.peekU64("empty"));
        return seen;
    };

    auto first = drain(*sim);
    sim->restoreState(snap);
    auto second = drain(*sim);
    EXPECT_EQ(first, second);
}

TEST(SnapshotTest, PendingNbaQueueIsCaptured)
{
    // Snapshot between poke and eval cannot exist (saveState is called
    // at eval boundaries by the engine), but nonblocking assignments
    // pending *within* the eval are committed before eval returns — so
    // a snapshot boundary never splits them. This pins down that a
    // snapshot right after an edge eval resumes identically.
    auto sim = makeSim(
        "module m(input wire clk, input wire [3:0] d,\n"
        "         output reg [3:0] q, output reg [3:0] r);\n"
        "always @(posedge clk) begin q <= d; r <= q; end\nendmodule");
    sim->poke("d", uint64_t(5));
    tick(*sim);
    SimSnapshot snap = sim->saveState();
    sim->poke("d", uint64_t(9));
    tick(*sim);
    uint64_t qAfter = sim->peekU64("q");
    uint64_t rAfter = sim->peekU64("r");

    sim->restoreState(snap);
    EXPECT_EQ(sim->peekU64("q"), 5u);
    sim->poke("d", uint64_t(9));
    tick(*sim);
    EXPECT_EQ(sim->peekU64("q"), qAfter);
    EXPECT_EQ(sim->peekU64("r"), rAfter);
}

TEST(SnapshotTest, TapeRecordsPokesPerEval)
{
    auto sim = makeSim(
        "module m(input wire clk, input wire [7:0] d,\n"
        "         output reg [7:0] q);\n"
        "always @(posedge clk) q <= d;\nendmodule");
    StimulusTape tape;
    {
        StimulusRecorder taping(*sim, tape);
        sim->poke("d", uint64_t(7));
        tick(*sim, 2);
    }
    // 2 ticks = 4 evals; the first carries the d poke and a clk poke.
    ASSERT_EQ(tape.steps.size(), 4u);
    ASSERT_EQ(tape.steps[0].pokes.size(), 2u);
    EXPECT_EQ(tape.steps[0].pokes[0].first, "d");
    EXPECT_EQ(tape.steps[1].pokes.size(), 1u);
    EXPECT_EQ(tape.steps[1].pokes[0].first, "clk");
    EXPECT_GT(tape.sizeBytes(), 0u);

    // Replaying the tape on a fresh simulator reproduces the run.
    auto replayed = makeSim(
        "module m(input wire clk, input wire [7:0] d,\n"
        "         output reg [7:0] q);\n"
        "always @(posedge clk) q <= d;\nendmodule");
    for (const auto &step : tape.steps)
        replayed->applyStep(step);
    EXPECT_EQ(replayed->peekU64("q"), sim->peekU64("q"));
    EXPECT_EQ(replayed->cycle(), sim->cycle());
}
