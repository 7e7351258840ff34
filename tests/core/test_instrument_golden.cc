/**
 * @file
 * Golden pin of the instrumented Verilog over the testbed.
 *
 * For all 20 bugs, buggy and fixed, one line records:
 *  - the generated-line count and an FNV-1a 64 hash of printModule()
 *    after debug::instrumentForDebug with the bug's own monitor
 *    configuration, followed by core::applySignalCat when the design
 *    supports it (what `perfbench`'s instrument operation prints);
 *  - the FSM coverage goals cover::coverBugWorkload reports: the number
 *    of FSMs and a hash of their state and transition lists.
 *
 * The text must match tests/core/instrument.golden byte for byte, so a
 * refactor of the monitors or of the facts they read cannot silently
 * change the instrumented design or the coverage goals.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bugbase/testbed.hh"
#include "core/signalcat.hh"
#include "cover/run.hh"
#include "debug/engine.hh"
#include "hdl/printer.hh"
#include "obs/metrics.hh"

using namespace hwdbg;

namespace
{

const char *const kGolden = HWDBG_TESTS_DIR "/core/instrument.golden";

uint64_t
fnv1a64(const std::string &text)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** What the instrument pipeline made of one design variant. */
struct Instrumented
{
    hdl::ModulePtr mod;
    int generated = 0;
    /** Instrumentation passes run, SignalCat included. */
    int passes = 0;
};

/** The bug's monitors, then SignalCat when the design supports it. */
Instrumented
instrument(const bugs::TestbedBug &bug, const elab::ElabResult &elaborated)
{
    debug::InstrumentConfig icfg;
    icfg.fsm = bug.monitors.fsm;
    icfg.depVariable = bug.monitors.depVariable;
    icfg.depCycles = bug.monitors.depCycles;
    icfg.lossCheck = bug.lossCheck;
    icfg.constants = elaborated.constants;
    auto instr = debug::instrumentForDebug(*elaborated.mod, icfg);
    Instrumented out{instr.module, instr.generatedLines,
                     int(icfg.fsm) + int(!icfg.depVariable.empty()) +
                         int(icfg.lossCheck.has_value())};
    if (core::signalCatSupported(*out.mod)) {
        auto cat = core::applySignalCat(*out.mod);
        out.mod = cat.module;
        out.generated += cat.generatedLines;
        ++out.passes;
    }
    return out;
}

std::string
variantLine(const bugs::TestbedBug &bug, bool buggy)
{
    auto [mod, generated, passes] =
        instrument(bug, bugs::buildDesign(bug, buggy));

    std::ostringstream goals;
    auto snap = cover::coverBugWorkload(bug, buggy);
    for (const auto &fsm : snap.fsms) {
        goals << fsm.stateVar << ":";
        for (uint64_t state : fsm.states)
            goals << state << ",";
        goals << ";";
        for (const auto &trans : fsm.transitions) {
            if (trans.hasFrom)
                goals << trans.from;
            else
                goals << "*";
            goals << ">" << trans.to << ",";
        }
        goals << "\n";
    }

    return bug.id + (buggy ? " buggy" : " fixed") +
           " lines=" + std::to_string(generated) +
           " verilog=" + hex64(fnv1a64(hdl::printModule(*mod))) +
           " fsms=" + std::to_string(snap.fsms.size()) +
           " goals=" + hex64(fnv1a64(goals.str())) + "\n";
}

} // namespace

TEST(InstrumentGoldenTest, ChainPrintsEachModuleOnce)
{
    // D3 runs the FSM and Dependency Monitors and LossCheck, then
    // SignalCat. Counting generated lines prints the original once and
    // each pass's result once: the next pass reuses that count.
    const auto &bug = bugs::bugById("D3");
    auto elaborated = bugs::buildDesign(bug, true);
    obs::enableMetrics(true);
    obs::resetMetrics();
    Instrumented out = instrument(bug, elaborated);
    uint64_t prints = obs::counterValue("printer.modules");
    obs::enableMetrics(false);
    ASSERT_EQ(out.passes, 4);
    EXPECT_GE(prints, 1u);
    EXPECT_LE(prints, static_cast<uint64_t>(out.passes + 1));
}

TEST(InstrumentGoldenTest, TestbedInstrumentationIsPinned)
{
    std::vector<std::string> lines;
    for (const auto &bug : bugs::testbedBugs())
        for (bool buggy : {true, false})
            lines.push_back(variantLine(bug, buggy));
    ASSERT_EQ(lines.size(), 40u);

    std::ifstream in(kGolden, std::ios::binary);
    ASSERT_TRUE(in) << "missing " << kGolden;
    std::vector<std::string> expected;
    std::string line;
    while (std::getline(in, line))
        expected.push_back(line + "\n");

    // Line by line first, so a failure names the variant.
    ASSERT_EQ(expected.size(), lines.size());
    for (size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(lines[i], expected[i]);
}
