/**
 * @file
 * Tests for the FSM-detection accuracy corpus.
 */

#include <gtest/gtest.h>

#include <set>

#include "analyze/context.hh"
#include "bugbase/fsm_zoo.hh"
#include "elab/elaborate.hh"
#include "sim/simulator.hh"
#include "hdl/parser.hh"

using namespace hwdbg;
using namespace hwdbg::bugs;

namespace
{

std::set<std::string>
detectZoo(const analyze::FsmDetectOptions &opts = {})
{
    const FsmZoo &zoo = fsmZoo();
    hdl::Design design =
        hdl::parseWithDefines(zoo.source, {}, "fsm_zoo.v");
    auto mod = elab::elaborate(design, "fsm_zoo").mod;
    std::set<std::string> found;
    for (const auto &fsm :
         analyze::detectFsms(analyze::Context(*mod), opts))
        found.insert(fsm.stateVar);
    return found;
}

} // namespace

TEST(FsmZooTest, CorpusShape)
{
    const FsmZoo &zoo = fsmZoo();
    EXPECT_EQ(zoo.labeledFsms.size(), 26u);
    EXPECT_EQ(zoo.hardStyles.size(), 5u);
    EXPECT_FALSE(zoo.decoys.empty());
    // Hard styles are labeled FSMs.
    std::set<std::string> labeled(zoo.labeledFsms.begin(),
                                  zoo.labeledFsms.end());
    for (const auto &var : zoo.hardStyles)
        EXPECT_TRUE(labeled.count(var)) << var;
    // Decoys are not.
    for (const auto &var : zoo.decoys)
        EXPECT_FALSE(labeled.count(var)) << var;
}

TEST(FsmZooTest, SourceParsesAndSimLowers)
{
    const FsmZoo &zoo = fsmZoo();
    hdl::Design design =
        hdl::parseWithDefines(zoo.source, {}, "fsm_zoo.v");
    auto elaborated = elab::elaborate(design, "fsm_zoo");
    sim::Simulator sim(elaborated.mod);
    sim.poke("clk", uint64_t(0));
    sim.eval();
    sim.poke("clk", uint64_t(1));
    sim.eval(); // simulates cleanly
    SUCCEED();
}

TEST(FsmZooTest, ExactlyTheHardStylesAreMissed)
{
    const FsmZoo &zoo = fsmZoo();
    auto found = detectZoo();
    std::set<std::string> missed;
    for (const auto &var : zoo.labeledFsms)
        if (!found.count(var))
            missed.insert(var);
    EXPECT_EQ(missed, std::set<std::string>(zoo.hardStyles.begin(),
                                            zoo.hardStyles.end()));
}

TEST(FsmZooTest, NoDecoyIsDetected)
{
    const FsmZoo &zoo = fsmZoo();
    auto found = detectZoo();
    for (const auto &decoy : zoo.decoys)
        EXPECT_FALSE(found.count(decoy)) << decoy;
}

TEST(FsmZooTest, DisablingWidthRuleAdmitsFlags)
{
    analyze::FsmDetectOptions opts;
    opts.minWidthTwo = false;
    auto with_rule = detectZoo();
    auto without_rule = detectZoo(opts);
    // The relaxed detector can only find more, never fewer.
    for (const auto &var : with_rule)
        EXPECT_TRUE(without_rule.count(var)) << var;
    EXPECT_GE(without_rule.size(), with_rule.size());
}
