/**
 * @file
 * Reproduces the §4.2 FSM-detection accuracy experiment: the detector
 * is scored against 32 manually-identified FSMs across the benchmark
 * suite (the 14 testbed designs plus the fsm_zoo style corpus). The
 * paper reports 0 false positives and 5 false negatives.
 */

#include <cstdio>
#include <set>
#include <string>

#include "analyze/context.hh"
#include "bugbase/designs.hh"
#include "bugbase/fsm_zoo.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"

using namespace hwdbg;
using namespace hwdbg::bugs;

namespace
{

std::set<std::string>
detect(const std::string &source, const std::string &top)
{
    hdl::Design design = hdl::parseWithDefines(source, {}, top + ".v");
    auto mod = elab::elaborate(design, top).mod;
    std::set<std::string> found;
    const analyze::Context facts(*mod);
    for (const auto &fsm : facts.fsms())
        found.insert(fsm.stateVar);
    return found;
}

} // namespace

int
main()
{
    int labeled = 0, detected_true = 0, false_pos = 0, false_neg = 0;

    // Testbed designs (fixed variants), hand-labeled.
    std::map<std::string, std::set<std::string>> labels;
    for (const auto &[design, var] : testbedFsmLabels())
        labels[design].insert(var);

    std::printf("FSM detection accuracy (vs hand labels)\n");
    std::printf("%-14s %8s %9s %4s %4s  %s\n", "Design", "labeled",
                "detected", "FP", "FN", "missed");
    std::printf("%s\n", std::string(70, '-').c_str());

    for (const auto &name : designNames()) {
        std::set<std::string> truth = labels.count(name)
                                          ? labels[name]
                                          : std::set<std::string>{};
        std::set<std::string> found = detect(designSource(name), name);
        int fp = 0, fn = 0;
        std::string missed;
        for (const auto &var : found)
            if (!truth.count(var))
                ++fp;
        for (const auto &var : truth)
            if (!found.count(var)) {
                ++fn;
                missed += var + " ";
            }
        labeled += static_cast<int>(truth.size());
        detected_true +=
            static_cast<int>(truth.size()) - fn;
        false_pos += fp;
        false_neg += fn;
        std::printf("%-14s %8zu %9zu %4d %4d  %s\n", name.c_str(),
                    truth.size(), found.size(), fp, fn,
                    missed.c_str());
    }

    // The style corpus.
    const FsmZoo &zoo = fsmZoo();
    std::set<std::string> truth(zoo.labeledFsms.begin(),
                                zoo.labeledFsms.end());
    std::set<std::string> found = detect(zoo.source, "fsm_zoo");
    int fp = 0, fn = 0;
    std::string missed;
    for (const auto &var : found)
        if (!truth.count(var))
            ++fp;
    for (const auto &var : truth)
        if (!found.count(var)) {
            ++fn;
            missed += var + " ";
        }
    labeled += static_cast<int>(truth.size());
    detected_true += static_cast<int>(truth.size()) - fn;
    false_pos += fp;
    false_neg += fn;
    std::printf("%-14s %8zu %9zu %4d %4d  %s\n", "fsm_zoo",
                truth.size(), found.size(), fp, fn, missed.c_str());

    std::printf("%s\n", std::string(70, '-').c_str());
    std::printf("Total: %d manually-identified FSMs, %d detected, "
                "%d false positives, %d false negatives\n",
                labeled, detected_true, false_pos, false_neg);
    std::printf("Paper (§4.2): 32 FSMs, 0 false positives, 5 false "
                "negatives\n");

    bool ok = labeled == 32 && false_pos == 0 && false_neg == 5;
    std::printf("Match: %s\n", ok ? "ok" : "FAIL");
    return ok ? 0 : 1;
}
