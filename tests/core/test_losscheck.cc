/**
 * @file
 * Tests for LossCheck: shadow-state equations, precise localization,
 * false-positive filtering, and the known false-negative mode (§4.5).
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/logging.hh"
#include "core/losscheck.hh"
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
flat(const std::string &src, const std::string &top = "m")
{
    return elab::elaborate(parse(src), top).mod;
}

std::unique_ptr<Simulator>
simulate(ModulePtr mod)
{
    Design design = parse(printModule(*mod));
    return std::make_unique<Simulator>(
        elab::elaborate(design, design.modules[0]->name).mod);
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

// The paper's running example (§4.5.1): b's value can be lost when a
// second valid input arrives before cond_b propagates b into out.
const char *paper_example =
    "module m(input wire clk, input wire cond_a, input wire cond_b,\n"
    "         input wire in_valid, input wire [7:0] in,\n"
    "         input wire [7:0] a, output reg [7:0] out);\n"
    "reg [7:0] b;\n"
    "always @(posedge clk) begin\n"
    "  if (cond_a) out <= a;\n"
    "  else if (cond_b) out <= b;\n"
    "  if (in_valid) b <= in;\nend\nendmodule";

} // namespace

TEST(LossCheckTest, PathAndInstrumentationSets)
{
    auto mod = flat(paper_example);
    LossCheckOptions opts;
    opts.source = "in";
    opts.sourceValid = "in_valid";
    opts.sink = "out";
    LossCheckResult inst = applyLossCheck(*mod, analyze::Context(*mod), opts);
    EXPECT_EQ(inst.onPath, (std::set<std::string>{"in", "b", "out"}));
    // The sink is excluded; the source is a top-level input, so only b
    // carries shadow state.
    EXPECT_EQ(inst.instrumented, (std::set<std::string>{"b"}));
    EXPECT_GT(inst.generatedLines, 0);
}

TEST(LossCheckTest, DetectsOverwriteLoss)
{
    auto mod = flat(paper_example);
    LossCheckOptions opts;
    opts.source = "in";
    opts.sourceValid = "in_valid";
    opts.sink = "out";
    LossCheckResult inst = applyLossCheck(*mod, analyze::Context(*mod), opts);

    auto sim = simulate(inst.module);
    // Two valid inputs back to back, no cond_b: the first value of b is
    // overwritten before it ever propagates.
    sim->poke("in_valid", uint64_t(1));
    sim->poke("in", uint64_t(0x11));
    tick(*sim);
    sim->poke("in", uint64_t(0x22));
    tick(*sim);
    sim->poke("in_valid", uint64_t(0));
    tick(*sim);

    EXPECT_EQ(lossRegisters(sim->log()),
              (std::set<std::string>{"b"}));
}

TEST(LossCheckTest, NoLossWhenDataPropagates)
{
    auto mod = flat(paper_example);
    LossCheckOptions opts;
    opts.source = "in";
    opts.sourceValid = "in_valid";
    opts.sink = "out";
    LossCheckResult inst = applyLossCheck(*mod, analyze::Context(*mod), opts);

    auto sim = simulate(inst.module);
    // Value arrives, then propagates via cond_b before the next value.
    sim->poke("in_valid", uint64_t(1));
    sim->poke("in", uint64_t(0x11));
    tick(*sim);
    sim->poke("in_valid", uint64_t(0));
    sim->poke("cond_b", uint64_t(1));
    tick(*sim);
    sim->poke("cond_b", uint64_t(0));
    sim->poke("in_valid", uint64_t(1));
    sim->poke("in", uint64_t(0x22));
    tick(*sim);
    sim->poke("in_valid", uint64_t(0));
    sim->poke("cond_b", uint64_t(1));
    tick(*sim);

    EXPECT_TRUE(lossRegisters(sim->log()).empty());
}

TEST(LossCheckTest, OverwriteWithInvalidDataIsNotLoss)
{
    // Assigning while holding *invalid* data must not fire (N stays 0).
    auto mod = flat(paper_example);
    LossCheckOptions opts;
    opts.source = "in";
    opts.sourceValid = "in_valid";
    opts.sink = "out";
    LossCheckResult inst = applyLossCheck(*mod, analyze::Context(*mod), opts);

    auto sim = simulate(inst.module);
    sim->poke("in_valid", uint64_t(0));
    tick(*sim, 5); // b never assigned: nothing to lose
    EXPECT_TRUE(lossRegisters(sim->log()).empty());
}

TEST(LossCheckTest, SimultaneousAssignAndPropagateIsNotLoss)
{
    // cond_b and in_valid in the same cycle: the old value propagates
    // exactly when the new one lands - no loss.
    auto mod = flat(paper_example);
    LossCheckOptions opts;
    opts.source = "in";
    opts.sourceValid = "in_valid";
    opts.sink = "out";
    LossCheckResult inst = applyLossCheck(*mod, analyze::Context(*mod), opts);

    auto sim = simulate(inst.module);
    sim->poke("in_valid", uint64_t(1));
    sim->poke("in", uint64_t(0x11));
    tick(*sim);
    sim->poke("in", uint64_t(0x22));
    sim->poke("cond_b", uint64_t(1));
    tick(*sim);
    sim->poke("in_valid", uint64_t(0));
    sim->poke("in", uint64_t(0));
    tick(*sim);

    EXPECT_TRUE(lossRegisters(sim->log()).empty());
}

TEST(LossCheckTest, CondAMasksPropagation)
{
    // cond_a steals the mux: b's propagation guard is
    // !cond_a && cond_b, so cond_a && cond_b still loses b's data when
    // b is simultaneously rewritten.
    auto mod = flat(paper_example);
    LossCheckOptions opts;
    opts.source = "in";
    opts.sourceValid = "in_valid";
    opts.sink = "out";
    LossCheckResult inst = applyLossCheck(*mod, analyze::Context(*mod), opts);

    auto sim = simulate(inst.module);
    sim->poke("in_valid", uint64_t(1));
    sim->poke("in", uint64_t(0x11));
    tick(*sim);
    // New data arrives while cond_a blocks b's path to out.
    sim->poke("cond_a", uint64_t(1));
    sim->poke("cond_b", uint64_t(1));
    sim->poke("in", uint64_t(0x22));
    tick(*sim);
    EXPECT_EQ(lossRegisters(sim->log()),
              (std::set<std::string>{"b"}));
}

TEST(LossCheckTest, MultiStagePipelineLocalizesTheLossyStage)
{
    // Three-stage pipeline where stage2 only forwards when fwd is set:
    // loss happens precisely at stage2.
    auto mod = flat(
        "module m(input wire clk, input wire in_valid, input wire fwd,\n"
        "         input wire [7:0] in, output reg [7:0] out);\n"
        "reg [7:0] stage1, stage2;\n"
        "reg stage1_valid;\n"
        "always @(posedge clk) begin\n"
        "  if (in_valid) begin stage1 <= in; stage1_valid <= 1'b1; end\n"
        "  else stage1_valid <= 1'b0;\n"
        "  if (stage1_valid) stage2 <= stage1;\n"
        "  if (fwd) out <= stage2;\nend\nendmodule");
    LossCheckOptions opts;
    opts.source = "in";
    opts.sourceValid = "in_valid";
    opts.sink = "out";
    LossCheckResult inst = applyLossCheck(*mod, analyze::Context(*mod), opts);
    EXPECT_TRUE(inst.instrumented.count("stage1"));
    EXPECT_TRUE(inst.instrumented.count("stage2"));

    auto sim = simulate(inst.module);
    // Two values flow into stage2; fwd never fires, so the second
    // arrival at stage2 overwrites unpropagated valid data.
    sim->poke("in_valid", uint64_t(1));
    sim->poke("in", uint64_t(1));
    tick(*sim);
    sim->poke("in", uint64_t(2));
    tick(*sim);
    sim->poke("in_valid", uint64_t(0));
    tick(*sim, 2);

    auto lossy = lossRegisters(sim->log());
    EXPECT_TRUE(lossy.count("stage2"));
    EXPECT_FALSE(lossy.count("out"));
}

TEST(LossCheckTest, FalsePositiveFilteringSuppressesIntentionalDrops)
{
    // The design intentionally drops inputs failing a parity check
    // (paper's checksum example, §4.5.3): hold captures every input but
    // only even-parity values are forwarded; odd values are overwritten
    // on purpose. The real loss bug is downstream: fwd_reg can be
    // overwritten while waiting for send.
    const char *design =
        "module m(input wire clk, input wire in_valid,\n"
        "         input wire [7:0] in, input wire send,\n"
        "         output reg [7:0] out);\n"
        "reg [7:0] hold;\n"
        "reg hold_valid;\n"
        "reg [7:0] fwd_reg;\n"
        "always @(posedge clk) begin\n"
        "  hold_valid <= in_valid;\n"
        "  if (in_valid) hold <= in;\n"
        "  if (hold_valid && ^hold == 1'b0) fwd_reg <= hold;\n"
        "  if (send) out <= fwd_reg;\nend\nendmodule";
    auto mod = flat(design);
    LossCheckOptions opts;
    opts.source = "in";
    opts.sourceValid = "in_valid";
    opts.sink = "out";

    auto ground_truth = [&](ModulePtr inst_mod) {
        auto sim = simulate(inst_mod);
        // Passing test: an even-parity value flows all the way out, and
        // an odd-parity value is dropped on purpose at hold.
        sim->poke("in_valid", uint64_t(1));
        sim->poke("in", uint64_t(0x03)); // even parity: forwarded
        tick(*sim);
        sim->poke("in_valid", uint64_t(0));
        tick(*sim);
        sim->poke("send", uint64_t(1));
        tick(*sim);
        sim->poke("send", uint64_t(0));
        sim->poke("in_valid", uint64_t(1));
        sim->poke("in", uint64_t(0x01)); // odd parity: stuck in hold
        tick(*sim);
        sim->poke("in", uint64_t(0x03)); // overwrite: intentional drop
        tick(*sim);
        sim->poke("in_valid", uint64_t(0));
        tick(*sim, 2);
        sim->poke("send", uint64_t(1));
        tick(*sim);
        return sim->log();
    };
    auto failing = [&](ModulePtr inst_mod) {
        auto sim = simulate(inst_mod);
        // Bug trigger: two even-parity values without send, so fwd_reg
        // is overwritten while holding unsent valid data.
        sim->poke("in_valid", uint64_t(1));
        sim->poke("in", uint64_t(0x03));
        tick(*sim, 2);
        sim->poke("in", uint64_t(0x05));
        tick(*sim, 2);
        sim->poke("in_valid", uint64_t(0));
        tick(*sim, 2);
        return sim->log();
    };

    LossCheckReport report =
        runLossCheck(analyze::Context(*mod), opts, ground_truth, failing);
    EXPECT_TRUE(report.filtered.count("hold"));
    EXPECT_EQ(report.reported, (std::set<std::string>{"fwd_reg"}));
}

TEST(LossCheckTest, FalseNegativeWhenDropAndLossShareRegister)
{
    // D11-style limitation (§4.5.4): when the unintentional loss occurs
    // at a register that also drops intentionally, filtering hides it.
    const char *design =
        "module m(input wire clk, input wire in_valid,\n"
        "         input wire [7:0] in, input wire keep,\n"
        "         input wire send, output reg [7:0] out);\n"
        "reg [7:0] hold;\n"
        "always @(posedge clk) begin\n"
        "  if (in_valid) hold <= in;\n"
        "  if (send && keep) out <= hold;\nend\nendmodule";
    auto mod = flat(design);
    LossCheckOptions opts;
    opts.source = "in";
    opts.sourceValid = "in_valid";
    opts.sink = "out";

    auto ground_truth = [&](ModulePtr inst_mod) {
        auto sim = simulate(inst_mod);
        // The passing test exercises the intentional drop: keep=0.
        sim->poke("keep", uint64_t(0));
        sim->poke("in_valid", uint64_t(1));
        sim->poke("in", uint64_t(0x11));
        tick(*sim);
        sim->poke("in", uint64_t(0x22)); // overwrite: intentional drop
        tick(*sim);
        sim->poke("in_valid", uint64_t(0));
        tick(*sim);
        return sim->log();
    };
    auto failing = [&](ModulePtr inst_mod) {
        auto sim = simulate(inst_mod);
        // keep=1 but send never arrives: real loss at hold... which is
        // exactly where the intentional drop lives.
        sim->poke("keep", uint64_t(1));
        sim->poke("in_valid", uint64_t(1));
        sim->poke("in", uint64_t(0x11));
        tick(*sim);
        sim->poke("in", uint64_t(0x22));
        tick(*sim);
        sim->poke("in_valid", uint64_t(0));
        tick(*sim);
        return sim->log();
    };

    LossCheckReport report =
        runLossCheck(analyze::Context(*mod), opts, ground_truth, failing);
    EXPECT_TRUE(report.filtered.count("hold"));
    EXPECT_TRUE(report.reported.empty()); // the documented false negative
}

TEST(LossCheckTest, LossThroughFifoBackpressure)
{
    // Producer ignores FIFO backpressure: pushes while full lose the
    // staged register's data (C-class communication bug shape).
    const char *design =
        "module m(input wire clk, input wire in_valid,\n"
        "         input wire [7:0] in, input wire pop,\n"
        "         output reg [7:0] out);\n"
        "reg [7:0] staged;\n"
        "reg staged_valid;\n"
        "wire [7:0] q;\nwire empty, full;\n"
        "scfifo #(.WIDTH(8), .DEPTH(2)) u_f (.clock(clk),\n"
        "  .data(staged), .wrreq(staged_valid), .rdreq(pop), .q(q),\n"
        "  .empty(empty), .full(full));\n"
        "always @(posedge clk) begin\n"
        "  staged_valid <= in_valid;\n"
        "  if (in_valid) staged <= in;\n"
        "  out <= q;\nend\nendmodule";
    auto mod = flat(design);
    LossCheckOptions opts;
    opts.source = "in";
    opts.sourceValid = "in_valid";
    opts.sink = "out";
    LossCheckResult inst = applyLossCheck(*mod, analyze::Context(*mod), opts);
    EXPECT_TRUE(inst.onPath.count("q"));
    EXPECT_TRUE(inst.instrumented.count("staged"));

    auto sim = simulate(inst.module);
    sim->poke("in_valid", uint64_t(1));
    for (uint64_t v = 1; v <= 5; ++v) {
        sim->poke("in", v);
        tick(*sim);
    }
    sim->poke("in_valid", uint64_t(0));
    tick(*sim, 2);
    // FIFO (depth 2) fills; pushes while full means staged data never
    // propagated.
    EXPECT_TRUE(lossRegisters(sim->log()).count("staged"));
}

TEST(LossCheckTest, UnreachableSinkThrows)
{
    auto mod = flat(
        "module m(input wire clk, input wire v, input wire [7:0] in,\n"
        "         output reg [7:0] out);\n"
        "reg [7:0] unrelated;\n"
        "always @(posedge clk) begin\n"
        "  if (v) unrelated <= in;\n  out <= out;\nend\nendmodule");
    LossCheckOptions opts;
    opts.source = "in";
    opts.sourceValid = "v";
    opts.sink = "out";
    EXPECT_THROW(applyLossCheck(*mod, analyze::Context(*mod), opts), HdlError);
}

TEST(LossCheckTest, MemoryOverflowWrapDetected)
{
    // A power-of-two buffer indexed past its depth wraps and overwrites
    // an unconsumed slot: per-entry tracking flags the memory.
    const char *design =
        "module m(input wire clk, input wire in_valid,\n"
        "         input wire [7:0] in, input wire [3:0] waddr,\n"
        "         input wire rd, input wire [2:0] raddr,\n"
        "         output reg [7:0] out);\n"
        "reg [7:0] mem [0:7];\n"
        "always @(posedge clk) begin\n"
        "  if (in_valid) mem[waddr] <= in;\n"
        "  if (rd) out <= mem[raddr];\nend\nendmodule";
    auto mod = flat(design);
    LossCheckOptions opts;
    opts.source = "in";
    opts.sourceValid = "in_valid";
    opts.sink = "out";
    LossCheckResult inst = applyLossCheck(*mod, analyze::Context(*mod), opts);
    EXPECT_TRUE(inst.instrumented.count("mem"));

    // Healthy pattern: distinct slots, read before rewrite -> no loss.
    {
        auto sim = simulate(inst.module);
        sim->poke("in_valid", uint64_t(1));
        for (uint64_t i = 0; i < 8; ++i) {
            sim->poke("waddr", i);
            sim->poke("in", i + 1);
            tick(*sim);
        }
        sim->poke("in_valid", uint64_t(0));
        sim->poke("rd", uint64_t(1));
        for (uint64_t i = 0; i < 8; ++i) {
            sim->poke("raddr", i);
            tick(*sim);
        }
        EXPECT_TRUE(lossRegisters(sim->log()).empty());
    }

    // Overflow pattern: waddr=8 wraps onto slot 0 before it is read.
    {
        auto sim = simulate(inst.module);
        sim->poke("in_valid", uint64_t(1));
        for (uint64_t i = 0; i < 9; ++i) {
            sim->poke("waddr", i); // i=8 wraps to slot 0
            sim->poke("in", i + 1);
            tick(*sim);
        }
        sim->poke("in_valid", uint64_t(0));
        tick(*sim);
        EXPECT_EQ(lossRegisters(sim->log()),
                  (std::set<std::string>{"mem"}));
    }

    // Simultaneous read+write of the same slot is not loss.
    {
        auto sim = simulate(inst.module);
        sim->poke("in_valid", uint64_t(1));
        sim->poke("waddr", uint64_t(3));
        sim->poke("in", uint64_t(0x11));
        tick(*sim);
        sim->poke("rd", uint64_t(1));
        sim->poke("raddr", uint64_t(3));
        sim->poke("in", uint64_t(0x22));
        tick(*sim);
        sim->poke("in_valid", uint64_t(0));
        sim->poke("rd", uint64_t(0));
        tick(*sim);
        EXPECT_TRUE(lossRegisters(sim->log()).empty());
    }
}
