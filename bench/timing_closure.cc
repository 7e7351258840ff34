/**
 * @file
 * Reproduces the §6.4 timing results: with the full debugging
 * deployment in place (monitors + LossCheck where applicable +
 * SignalCat's recording IP), 18 of the 20 instrumented designs still
 * meet their target clock frequency. The exception is Optimus: both of
 * its bugs (D3, C2) lose the 400 MHz target and the design must run at
 * its 200 MHz fallback during debugging. SHA512, which also targets
 * 400 MHz, keeps its frequency.
 */

#include <cstdio>

#include "bench_util.hh"
#include "synth/timing.hh"

using namespace hwdbg;
using namespace hwdbg::bugs;
using namespace hwdbg::bench;
using namespace hwdbg::synth;

int
main()
{
    std::printf("Timing closure with debugging instrumentation\n");
    std::printf("%-4s %-13s %7s %12s %12s  %s\n", "Bug", "Design",
                "target", "base Fmax", "inst Fmax", "verdict");
    std::printf("%s\n", std::string(66, '-').c_str());

    int kept = 0;
    bool sha_ok = true, optimus_dropped = true;
    for (const auto &bug : testbedBugs()) {
        TimingReport base =
            estimateTiming(analyze::Context(*buildDesign(bug, true).mod));
        auto inst_mod = applyFullInstrumentation(
            bug, buildDesign(bug, true).mod, 8192, true);
        TimingReport inst = estimateTiming(analyze::Context(*inst_mod));

        bool base_meets = meetsTarget(base, bug.targetMhz);
        bool inst_meets = meetsTarget(inst, bug.targetMhz);
        if (inst_meets)
            ++kept;

        const char *verdict = inst_meets
                                  ? "meets target"
                                  : "reduced to 200 MHz for debugging";
        std::printf("%-4s %-13s %5.0fM %9.1f MHz %9.1f MHz  %s%s\n",
                    bug.id.c_str(), bug.designName.c_str(),
                    bug.targetMhz, base.fmaxMhz, inst.fmaxMhz, verdict,
                    base_meets ? "" : " (BASELINE MISS)");

        if (bug.designName == "sha512" && !inst_meets)
            sha_ok = false;
        if (bug.designName == "optimus" && inst_meets)
            optimus_dropped = false;
        if (bug.designName == "optimus" && inst.fmaxMhz < 200)
            optimus_dropped = false; // must still run at 200
    }

    std::printf("%s\n", std::string(66, '-').c_str());
    std::printf("%d/20 instrumented designs keep their target "
                "frequency (paper: 18/20)\n", kept);
    std::printf("SHA512 keeps 400 MHz: %s; Optimus reduced 400 -> 200 "
                "MHz: %s\n", sha_ok ? "yes" : "NO",
                optimus_dropped ? "yes" : "NO");

    bool ok = kept == 18 && sha_ok && optimus_dropped;
    std::printf("Match: %s\n", ok ? "ok" : "FAIL");
    return ok ? 0 : 1;
}
