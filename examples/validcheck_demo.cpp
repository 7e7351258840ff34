/**
 * @file
 * ValidCheck on the paper's use-without-valid pattern (§3.3.4): an
 * accumulator that consumes its data bus regardless of the valid
 * signal, summing garbage between packets. ValidCheck statically finds
 * the unguarded use and dynamically reports the first offending cycle;
 * the paper's fix (guarding the use) is verified clean.
 */

#include <cstdio>

#include "core/validcheck.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "hdl/printer.hh"
#include "sim/simulator.hh"

using namespace hwdbg;

static const char *design_src = R"(
module checksum (
    input wire clk,
    input wire rst,
    input wire data_valid,
    input wire [7:0] data,
    output reg [7:0] sum
);
always @(posedge clk) begin
    if (rst)
        sum <= 8'd0;
`ifdef FIXED
    else if (data_valid)
        sum <= sum + data;
`else
    else
        sum <= sum + data;
`endif
end
endmodule
)";

static uint64_t
run(hdl::ModulePtr mod, std::vector<sim::EvalContext::LogLine> *log)
{
    hdl::Design design = hdl::parse(hdl::printModule(*mod));
    sim::Simulator sim(elab::elaborate(design, "checksum").mod);
    auto tick = [&] {
        sim.poke("clk", uint64_t(0));
        sim.eval();
        sim.poke("clk", uint64_t(1));
        sim.eval();
    };
    sim.poke("rst", uint64_t(1));
    tick();
    sim.poke("rst", uint64_t(0));
    // Two valid bytes with idle (bus-noise) gaps between them.
    uint64_t noise = 0x5a;
    for (int beat = 0; beat < 8; ++beat) {
        bool valid = beat == 2 || beat == 6;
        sim.poke("data_valid", uint64_t(valid));
        sim.poke("data", valid ? uint64_t(0x10) : noise++);
        tick();
    }
    if (log)
        *log = sim.log();
    return sim.peekU64("sum");
}

int
main()
{
    core::ValidCheckOptions opts;
    opts.pairs.push_back(core::ValidPair{"data", "data_valid"});

    for (bool fixed : {false, true}) {
        std::map<std::string, std::string> defines;
        if (fixed)
            defines["FIXED"] = "";
        hdl::Design design =
            hdl::parseWithDefines(design_src, defines, "checksum.v");
        auto elaborated = elab::elaborate(design, "checksum");
        core::ValidCheckResult inst =
            core::applyValidCheck(analyze::Context(*elaborated.mod), opts);

        std::printf("=== %s design ===\n", fixed ? "fixed" : "buggy");
        std::printf("unguarded uses of 'data': %d\n",
                    inst.usesInstrumented.at("data"));

        std::vector<sim::EvalContext::LogLine> log;
        uint64_t sum = run(inst.module, &log);
        std::printf("checksum after 2 valid 0x10 bytes: 0x%02llx "
                    "(expected 0x20)\n",
                    (unsigned long long)sum);
        for (const auto &use : core::invalidUses(log))
            std::printf("  [cycle %llu] %s consumed without %s "
                        "(flowed into %s)\n",
                        (unsigned long long)use.cycle, use.data.c_str(),
                        "data_valid", use.target.c_str());
        std::printf("\n");
    }
    return 0;
}
