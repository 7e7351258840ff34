/**
 * @file
 * Backend equivalence over the curated testbed: the compiled bytecode
 * backend must be observationally indistinguishable from the AST
 * interpreter.
 *
 * For all 20 testbed bugs, buggy and fixed variants alike, the trigger
 * workload is recorded once and replayed step-by-step on both backends;
 * after every eval the complete simulator state — every signal, every
 * memory element, cycle count, $finish, and the $display log — must be
 * byte-identical. Snapshots are exercised across the seam too: a
 * mid-run save/restore on the bytecode backend must round-trip, and a
 * snapshot taken from an interpreter run must restore into a bytecode
 * simulator (and vice versa) without perturbing the trajectory.
 *
 * The coverage and profiler cross-checks double as regression tests for
 * the Backend seam: both tools consume simulator state exclusively
 * through the facade, so their deterministic outputs cannot depend on
 * which backend ran underneath.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bugbase/testbed.hh"
#include "bugbase/workloads.hh"
#include "compile/backend.hh"
#include "cover/run.hh"
#include "cover/snapshot.hh"
#include "sim/profiler.hh"
#include "sim/simulator.hh"

using namespace hwdbg;
using namespace hwdbg::sim;

namespace
{

/** Every externally-visible piece of simulator state. */
struct StateDump
{
    std::vector<Bits> values;
    std::vector<std::vector<Bits>> arrays;
    uint64_t cycle = 0;
    bool finished = false;
    std::vector<std::string> log;

    bool operator==(const StateDump &rhs) const
    {
        return values == rhs.values && arrays == rhs.arrays &&
               cycle == rhs.cycle && finished == rhs.finished &&
               log == rhs.log;
    }
};

StateDump
dumpState(Simulator &sim)
{
    StateDump dump;
    dump.values = sim.context().values;
    dump.arrays = sim.context().arrays;
    dump.cycle = sim.cycle();
    dump.finished = sim.finished();
    for (const auto &line : sim.log())
        dump.log.push_back(std::to_string(line.cycle) + ":" +
                           line.text);
    return dump;
}

/** The bug's trigger workload as a replayable tape. */
StimulusTape
recordWorkload(const bugs::TestbedBug &bug, const hdl::ModulePtr &mod)
{
    StimulusTape tape;
    Simulator recorder(mod);
    StimulusRecorder taping(recorder, tape);
    bugs::runWorkload(bug, recorder);
    return tape;
}

} // namespace

TEST(BackendEquivTest, TrajectoriesMatchOnEveryTestbedBug)
{
    for (const auto &bug : bugs::testbedBugs()) {
        for (bool buggy : {true, false}) {
            SCOPED_TRACE(bug.id + (buggy ? "/buggy" : "/fixed"));
            auto elaborated = bugs::buildDesign(bug, buggy);
            StimulusTape tape = recordWorkload(bug, elaborated.mod);
            ASSERT_GT(tape.steps.size(), 0u);

            Simulator interp(elaborated.mod);
            Simulator bytecode(elaborated.mod);
            bytecode.setBackend(compile::makeBytecodeBackend());
            ASSERT_STREQ(bytecode.backendName(), "bytecode");

            // The initial settle already ran; states must agree before
            // the first stimulus step too.
            ASSERT_TRUE(dumpState(interp) == dumpState(bytecode))
                << "initial state differs";
            for (size_t i = 0; i < tape.steps.size(); ++i) {
                interp.applyStep(tape.steps[i]);
                bytecode.applyStep(tape.steps[i]);
                ASSERT_TRUE(dumpState(interp) == dumpState(bytecode))
                    << "state diverged at step " << i << " of "
                    << tape.steps.size();
            }
        }
    }
}

TEST(BackendEquivTest, SnapshotRoundTripsMidRunOnBytecode)
{
    for (const auto &bug : bugs::testbedBugs()) {
        SCOPED_TRACE(bug.id);
        auto elaborated = bugs::buildDesign(bug, true);
        StimulusTape tape = recordWorkload(bug, elaborated.mod);
        ASSERT_GT(tape.steps.size(), 2u);
        size_t k = tape.steps.size() / 2;

        Simulator sim(elaborated.mod);
        sim.setBackend(compile::makeBytecodeBackend());
        for (size_t i = 0; i < k; ++i)
            sim.applyStep(tape.steps[i]);
        SimSnapshot snap = sim.saveState();
        StateDump atK = dumpState(sim);

        for (size_t i = k; i < tape.steps.size(); ++i)
            sim.applyStep(tape.steps[i]);
        StateDump atEndFirst = dumpState(sim);

        sim.restoreState(snap);
        EXPECT_TRUE(dumpState(sim) == atK)
            << "restore did not reproduce the state at step " << k;
        for (size_t i = k; i < tape.steps.size(); ++i)
            sim.applyStep(tape.steps[i]);
        EXPECT_TRUE(dumpState(sim) == atEndFirst)
            << "replayed tail diverged from the original run";
    }
}

TEST(BackendEquivTest, SnapshotsCrossTheBackendSeam)
{
    // A snapshot is backend-independent: interp state restores into a
    // bytecode simulator and vice versa, and the continued runs agree.
    for (const auto &bug : bugs::testbedBugs()) {
        SCOPED_TRACE(bug.id);
        auto elaborated = bugs::buildDesign(bug, true);
        StimulusTape tape = recordWorkload(bug, elaborated.mod);
        ASSERT_GT(tape.steps.size(), 2u);
        size_t k = tape.steps.size() / 2;

        Simulator interp(elaborated.mod);
        for (size_t i = 0; i < k; ++i)
            interp.applyStep(tape.steps[i]);
        SimSnapshot snap = interp.saveState();

        Simulator bytecode(elaborated.mod);
        bytecode.setBackend(compile::makeBytecodeBackend());
        bytecode.restoreState(snap);
        ASSERT_TRUE(dumpState(bytecode) == dumpState(interp))
            << "interp snapshot did not restore into bytecode";

        for (size_t i = k; i < tape.steps.size(); ++i) {
            interp.applyStep(tape.steps[i]);
            bytecode.applyStep(tape.steps[i]);
        }
        EXPECT_TRUE(dumpState(bytecode) == dumpState(interp))
            << "trajectories diverged after cross-backend restore";

        // And back: a bytecode snapshot restores into an interp sim.
        SimSnapshot snapB = bytecode.saveState();
        Simulator interp2(elaborated.mod);
        interp2.restoreState(snapB);
        EXPECT_TRUE(dumpState(interp2) == dumpState(bytecode))
            << "bytecode snapshot did not restore into interp";
    }
}

TEST(BackendEquivTest, SwappingBackendsMidRunKeepsTheTrajectory)
{
    // setBackend is legal at any eval boundary; a run that switches
    // interp -> bytecode -> interp halfway must match a pure interp run.
    for (const auto &bug : bugs::testbedBugs()) {
        SCOPED_TRACE(bug.id);
        auto elaborated = bugs::buildDesign(bug, true);
        StimulusTape tape = recordWorkload(bug, elaborated.mod);
        ASSERT_GT(tape.steps.size(), 3u);

        Simulator pure(elaborated.mod);
        Simulator swapped(elaborated.mod);
        size_t third = tape.steps.size() / 3;
        for (size_t i = 0; i < tape.steps.size(); ++i) {
            if (i == third)
                swapped.setBackend(compile::makeBytecodeBackend());
            if (i == 2 * third)
                swapped.setBackend({});
            pure.applyStep(tape.steps[i]);
            swapped.applyStep(tape.steps[i]);
            ASSERT_TRUE(dumpState(pure) == dumpState(swapped))
                << "state diverged at step " << i;
        }
    }
}

TEST(BackendEquivTest, CoverageSnapshotsAreBackendIndependent)
{
    // The collectors hang off the Simulator facade; both backends must
    // drive the same onStmt/onArm/onStore event stream, so the JSON
    // snapshot (counts included) is identical.
    for (const auto &bug : bugs::testbedBugs()) {
        SCOPED_TRACE(bug.id);
        cover::Snapshot interp = cover::coverBugWorkload(bug, true);
        cover::Snapshot bytecode = cover::coverBugWorkload(
            bug, true, compile::makeBytecodeBackend());
        EXPECT_EQ(cover::toJson(interp), cover::toJson(bytecode));
    }
}

TEST(BackendEquivTest, ProfilerCountersAreBackendIndependent)
{
    // Eval counts, toggle counts, settle depths, and cycle totals are
    // deterministic functions of the stimulus; only wall time may
    // differ between backends.
    for (const auto &bug : bugs::testbedBugs()) {
        SCOPED_TRACE(bug.id);
        auto elaborated = bugs::buildDesign(bug, true);
        ProfileOptions opts;
        opts.cycles = 200;
        opts.rank = ProfileOptions::Rank::Evals;
        ProfileReport interp = profileDesign(elaborated.mod, opts);
        opts.backend = compile::makeBytecodeBackend();
        ProfileReport bytecode = profileDesign(elaborated.mod, opts);

        EXPECT_EQ(interp.cyclesRun, bytecode.cyclesRun);
        EXPECT_EQ(interp.finished, bytecode.finished);
        EXPECT_EQ(interp.settleCalls, bytecode.settleCalls);
        EXPECT_EQ(interp.maxSettleDepth, bytecode.maxSettleDepth);
        EXPECT_EQ(interp.settleHist, bytecode.settleHist);
        ASSERT_EQ(interp.rows.size(), bytecode.rows.size());
        for (size_t i = 0; i < interp.rows.size(); ++i) {
            EXPECT_EQ(interp.rows[i].label, bytecode.rows[i].label);
            EXPECT_EQ(interp.rows[i].evals, bytecode.rows[i].evals);
        }
        ASSERT_EQ(interp.signals.size(), bytecode.signals.size());
        for (size_t i = 0; i < interp.signals.size(); ++i) {
            EXPECT_EQ(interp.signals[i].name, bytecode.signals[i].name);
            EXPECT_EQ(interp.signals[i].toggles,
                      bytecode.signals[i].toggles);
        }
    }
}
