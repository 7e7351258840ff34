/**
 * @file
 * Reproduces Figure 3: LossCheck's register and logic overhead,
 * normalized to the platform totals, for the data-loss bugs: D1, D2,
 * D3, C2 on Intel HARP (paper: < 1.7% of total resources) and D4, C4
 * on Xilinx KC705 (paper: < 0.7%).
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "synth/platform.hh"
#include "synth/resources.hh"

using namespace hwdbg;
using namespace hwdbg::bugs;
using namespace hwdbg::core;
using namespace hwdbg::synth;

int
main()
{
    std::printf("Figure 3: LossCheck overhead normalized to platform "
                "totals\n");
    std::printf("%-4s %-9s %14s %14s %12s %12s\n", "Bug", "Platform",
                "registers", "logic", "reg %%", "logic %%");
    std::printf("%s\n", std::string(72, '-').c_str());

    bool within_bounds = true;
    for (const char *id : {"D1", "D2", "D3", "C2", "D4", "C4"}) {
        const TestbedBug &bug = bugById(id);
        const Platform &platform = platformByName(bug.platform);

        auto mod = buildDesign(bug, true).mod;
        analyze::Context facts(*mod);
        ResourceUsage base = estimateResources(facts);
        auto inst = applyLossCheck(*mod, facts, *bug.lossCheck);
        ResourceUsage overhead =
            estimateResources(analyze::Context(*inst.module))
                .overheadVs(base);
        NormalizedUsage pct = normalize(overhead, platform);

        std::printf("%-4s %-9s %14llu %14llu %11.4f%% %11.4f%%\n", id,
                    platform.name.c_str(),
                    (unsigned long long)overhead.registers,
                    (unsigned long long)overhead.logic,
                    pct.registersPct, pct.logicPct);

        double bound = bug.platform == "HARP" ? 1.7 : 0.7;
        if (pct.registersPct > bound || pct.logicPct > bound)
            within_bounds = false;
    }

    std::printf("%s\n", std::string(72, '-').c_str());
    std::printf("Bound check: HARP bugs < 1.7%% and KC705 bugs < 0.7%% "
                "of platform resources: %s\n",
                within_bounds ? "ok" : "FAIL");
    return within_bounds ? 0 : 1;
}
