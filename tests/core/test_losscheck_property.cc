/**
 * @file
 * Fault-injection property test for LossCheck: generate an N-stage
 * valid/data pipeline, break the handshake at one randomly chosen
 * stage (its forwarding ignores the downstream stall), and require
 * LossCheck to name exactly that stage's register. This is the tool's
 * core promise - precise localization - checked across many random
 * topologies.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>

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

/**
 * An N-stage pipeline with per-stage enables. Stage i forwards its
 * register into stage i+1 when en<i> is high; the final stage drains
 * into the sink whenever en<N-1> is high. A lossy stage accepts new
 * data every valid beat even when its enable is low, overwriting the
 * unforwarded value.
 */
std::string
pipelineSource(int stages, int lossy_stage)
{
    std::ostringstream src;
    src << "module m(\n    input wire clk,\n"
           "    input wire in_valid,\n"
           "    input wire [7:0] in,\n";
    for (int i = 0; i < stages; ++i)
        src << "    input wire en" << i << ",\n";
    src << "    output reg [7:0] out\n);\n";
    for (int i = 0; i < stages; ++i) {
        src << "reg [7:0] st" << i << ";\n";
        src << "reg st" << i << "_v;\n";
    }
    src << "always @(posedge clk) begin\n";
    // Stage 0 capture.
    if (lossy_stage == 0) {
        src << "    if (in_valid) begin st0 <= in; st0_v <= 1'b1; end\n";
    } else {
        src << "    if (in_valid && !st0_v) begin st0 <= in; "
               "st0_v <= 1'b1; end\n";
    }
    src << "    if (en0 && st0_v) st0_v <= 1'b0;\n";
    for (int i = 1; i < stages; ++i) {
        // Forward from stage i-1 under en(i-1).
        if (lossy_stage == i) {
            // The broken stage accepts whenever upstream forwards,
            // regardless of its own occupancy/enable.
            src << "    if (en" << (i - 1) << " && st" << (i - 1)
                << "_v) begin st" << i << " <= st" << (i - 1)
                << "; st" << i << "_v <= 1'b1; end\n";
        } else {
            src << "    if (en" << (i - 1) << " && st" << (i - 1)
                << "_v && !st" << i << "_v) begin st" << i << " <= st"
                << (i - 1) << "; st" << i << "_v <= 1'b1; end\n";
        }
        src << "    if (en" << i << " && st" << i << "_v) st" << i
            << "_v <= 1'b0;\n";
    }
    src << "    if (en" << (stages - 1) << " && st" << (stages - 1)
        << "_v) out <= st" << (stages - 1) << ";\n";
    src << "end\nendmodule\n";
    return src.str();
}

} // namespace

class LossCheckFaultInjection
    : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LossCheckFaultInjection, LocalizesTheInjectedStage)
{
    std::mt19937 rng(GetParam());
    for (int trial = 0; trial < 4; ++trial) {
        int stages = 3 + static_cast<int>(rng() % 4); // 3..6
        int lossy = 1 + static_cast<int>(rng() % (stages - 1));
        std::string src = pipelineSource(stages, lossy);

        auto elaborated = elab::elaborate(parse(src), "m");
        LossCheckOptions opts;
        opts.source = "in";
        opts.sourceValid = "in_valid";
        opts.sink = "out";
        LossCheckResult inst = applyLossCheck(*elaborated.mod, analyze::Context(*elaborated.mod), opts);
        ASSERT_EQ(inst.instrumented.size(),
                  static_cast<size_t>(stages))
            << src;

        // Round-trip the instrumented Verilog and drive it: all
        // enables high except the one *below* the lossy stage, which
        // pulses slowly - so the lossy stage keeps receiving data it
        // has not forwarded.
        Design design = parse(printModule(*inst.module));
        Simulator sim(elab::elaborate(design, "m").mod);
        for (int i = 0; i < stages; ++i)
            sim.poke("en" + std::to_string(i),
                     uint64_t(i != lossy));
        uint64_t value = 1;
        for (int cycle = 0; cycle < 60; ++cycle) {
            sim.poke("in_valid", uint64_t(1));
            sim.poke("in", value++ & 0xff);
            // Occasionally let the stalled stage drain one value so
            // both loss and progress occur.
            sim.poke("en" + std::to_string(lossy),
                     uint64_t(cycle % 7 == 6));
            sim.poke("clk", uint64_t(0));
            sim.eval();
            sim.poke("clk", uint64_t(1));
            sim.eval();
        }

        auto lossy_regs = lossRegisters(sim.log());
        std::string expected = "st" + std::to_string(lossy);
        EXPECT_TRUE(lossy_regs.count(expected))
            << "stages=" << stages << " lossy=" << lossy
            << " reported: "
            << [&] {
                   std::string out;
                   for (const auto &reg : lossy_regs)
                       out += reg + " ";
                   return out;
               }();
        // Precision: healthy stages must not be blamed.
        for (int i = 0; i < stages; ++i) {
            if (i != lossy) {
                EXPECT_FALSE(
                    lossy_regs.count("st" + std::to_string(i)))
                    << "stages=" << stages << " lossy=" << lossy;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossCheckFaultInjection,
                         ::testing::Values(3u, 9u, 21u, 55u, 144u,
                                           377u));
