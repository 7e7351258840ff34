/**
 * @file
 * Ablation: contribution of each FSM-detection heuristic (§4.2).
 *
 * The detector's accuracy (32 labeled FSMs, 0 FP / 5 FN with all
 * heuristics on) comes from a stack of exclusion rules. This bench
 * disables each rule in turn and re-scores the corpus, showing what
 * each heuristic buys: the exclusion rules suppress false positives
 * (counters, flags, status words) at the cost of a few false negatives
 * in unusual coding styles.
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
using namespace hwdbg::analyze;

namespace
{

struct Score
{
    int falsePos = 0;
    int falseNeg = 0;
};

Score
scoreCorpus(const FsmDetectOptions &opts)
{
    Score score;

    std::map<std::string, std::set<std::string>> labels;
    for (const auto &[design, var] : testbedFsmLabels())
        labels[design].insert(var);

    auto score_one = [&](const std::string &source,
                         const std::string &top,
                         const std::set<std::string> &truth) {
        hdl::Design design =
            hdl::parseWithDefines(source, {}, top + ".v");
        auto mod = elab::elaborate(design, top).mod;
        std::set<std::string> found;
        for (const auto &fsm : detectFsms(Context(*mod), opts))
            found.insert(fsm.stateVar);
        for (const auto &var : found)
            if (!truth.count(var))
                ++score.falsePos;
        for (const auto &var : truth)
            if (!found.count(var))
                ++score.falseNeg;
    };

    for (const auto &name : designNames())
        score_one(designSource(name), name,
                  labels.count(name) ? labels[name]
                                     : std::set<std::string>{});
    const FsmZoo &zoo = fsmZoo();
    score_one(zoo.source, "fsm_zoo",
              {zoo.labeledFsms.begin(), zoo.labeledFsms.end()});
    return score;
}

} // namespace

int
main()
{
    struct Variant
    {
        const char *name;
        FsmDetectOptions opts;
    };
    std::vector<Variant> variants;
    variants.push_back({"all heuristics (baseline)", {}});
    {
        FsmDetectOptions opts;
        opts.excludeArithmetic = false;
        variants.push_back({"- exclude-arithmetic", opts});
    }
    {
        FsmDetectOptions opts;
        opts.excludeBitSelect = false;
        variants.push_back({"- exclude-bit-select", opts});
    }
    {
        FsmDetectOptions opts;
        opts.excludeOrderedCompare = false;
        variants.push_back({"- exclude-ordered-compare", opts});
    }
    {
        FsmDetectOptions opts;
        opts.requireSelfTest = false;
        variants.push_back({"- require-self-test", opts});
    }
    {
        FsmDetectOptions opts;
        opts.requireConstantRhs = false;
        variants.push_back({"- require-constant-rhs", opts});
    }
    {
        FsmDetectOptions opts;
        opts.minWidthTwo = false;
        variants.push_back({"- min-width-two", opts});
    }
    {
        FsmDetectOptions opts;
        opts.excludeArithmetic = false;
        opts.excludeBitSelect = false;
        opts.excludeOrderedCompare = false;
        opts.requireSelfTest = false;
        opts.requireConstantRhs = false;
        opts.minWidthTwo = false;
        variants.push_back({"no heuristics at all", opts});
    }

    std::printf("FSM-detection heuristic ablation (32 labeled FSMs)\n");
    std::printf("%-28s %6s %6s\n", "variant", "FP", "FN");
    std::printf("%s\n", std::string(44, '-').c_str());

    Score baseline;
    bool first = true;
    bool monotone = true;
    for (const auto &variant : variants) {
        Score score = scoreCorpus(variant.opts);
        std::printf("%-28s %6d %6d\n", variant.name, score.falsePos,
                    score.falseNeg);
        if (first) {
            baseline = score;
            first = false;
        } else if (score.falsePos < baseline.falsePos) {
            monotone = false; // a heuristic that only hurt precision
        }
    }

    std::printf("%s\n", std::string(44, '-').c_str());
    std::printf("Baseline matches the paper (0 FP / 5 FN); disabling "
                "any exclusion rule trades false positives for "
                "recall: %s\n",
                monotone && baseline.falsePos == 0 &&
                        baseline.falseNeg == 5
                    ? "ok" : "FAIL");
    return monotone && baseline.falsePos == 0 && baseline.falseNeg == 5
               ? 0 : 1;
}
