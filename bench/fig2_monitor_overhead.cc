/**
 * @file
 * Reproduces Figure 2: the resource overhead (block RAM, registers,
 * logic) of SignalCat + the per-bug monitor set, as the recording
 * buffer size sweeps 1K/2K/4K/8K entries. HARP bugs (D1, D2, D3, D5,
 * D10, C2) are shown against the Intel platform, the rest against the
 * Xilinx KC705 platform.
 *
 * The property the figure demonstrates - BRAM grows linearly with
 * buffer depth while register/logic overhead stays flat - is checked
 * and reported at the end.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "synth/resources.hh"

using namespace hwdbg;
using namespace hwdbg::bugs;
using namespace hwdbg::bench;
using namespace hwdbg::synth;

int
main()
{
    const std::vector<uint32_t> depths = {1024, 2048, 4096, 8192};

    bool shapes_ok = true;
    for (const char *platform : {"HARP", "KC705"}) {
        std::printf("\nFigure 2 (%s): monitor + SignalCat overhead vs "
                    "recording buffer size\n", platform);
        std::printf("%-4s | %28s | %28s | %28s\n", "",
                    "block RAM (Mbit)", "registers", "logic");
        std::printf("%-4s | %6s %6s %6s %6s | %6s %6s %6s %6s | "
                    "%6s %6s %6s %6s\n",
                    "Bug", "1K", "2K", "4K", "8K", "1K", "2K", "4K",
                    "8K", "1K", "2K", "4K", "8K");
        std::printf("%s\n", std::string(100, '-').c_str());

        for (const auto &bug : testbedBugs()) {
            bool is_harp = bug.platform == "HARP";
            if (is_harp != (std::string(platform) == "HARP"))
                continue;

            ResourceUsage base =
                estimateResources(
                    analyze::Context(*buildDesign(bug, true).mod));
            std::vector<ResourceUsage> overheads;
            for (uint32_t depth : depths) {
                auto mod = applyFullInstrumentation(
                    bug, buildDesign(bug, true).mod, depth);
                overheads.push_back(
                    estimateResources(analyze::Context(*mod))
                        .overheadVs(base));
            }

            std::printf("%-4s |", bug.id.c_str());
            for (const auto &usage : overheads)
                std::printf(" %6.3f", usage.bramBits / 1e6);
            std::printf(" |");
            for (const auto &usage : overheads)
                std::printf(" %6llu",
                            (unsigned long long)usage.registers);
            std::printf(" |");
            for (const auto &usage : overheads)
                std::printf(" %6llu", (unsigned long long)usage.logic);
            std::printf("\n");

            // Shape checks: BRAM doubles with depth; registers/logic
            // stay within a few flip-flops of flat.
            for (size_t i = 1; i < overheads.size(); ++i) {
                double ratio =
                    overheads[i].bramBits / overheads[i - 1].bramBits;
                if (ratio < 1.9 || ratio > 2.1)
                    shapes_ok = false;
                if (overheads[i].registers >
                    overheads[i - 1].registers + 8)
                    shapes_ok = false;
                if (overheads[i].logic > overheads[i - 1].logic + 8)
                    shapes_ok = false;
            }
        }
    }

    std::printf("\nShape check: BRAM overhead linear in buffer size, "
                "register/logic overhead flat: %s\n",
                shapes_ok ? "ok" : "FAIL");
    return shapes_ok ? 0 : 1;
}
