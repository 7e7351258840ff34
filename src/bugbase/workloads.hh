/**
 * @file
 * Workload drivers for the testbed.
 *
 * Each bug has a trigger workload that reproduces it push-button style:
 * the driver acts as the testbench/shell (memory responses, bus masters,
 * stream producers/consumers, protocol checkers), compares against a
 * golden model of the fixed design, and reports the observed symptoms.
 * The same driver passes on the fixed variant of the design.
 *
 * LossCheck bugs additionally have a ground-truth stimulus: a test that
 * passes even on the buggy design (the paper's §4.5.3 "presumably passed
 * during simulation testing"), used to filter intentional data drops.
 */

#ifndef HWDBG_BUGBASE_WORKLOADS_HH
#define HWDBG_BUGBASE_WORKLOADS_HH

#include <set>
#include <string>

#include "bugbase/testbed.hh"
#include "sim/simulator.hh"
#include "sim/stimulus.hh"

namespace hwdbg::bugs
{

struct WorkloadResult
{
    /** Symptoms detected by the testbench. */
    std::set<Symptom> observed;
    /** True when the run completed with golden-matching outputs. */
    bool passed = false;
    uint64_t inputsAccepted = 0;
    uint64_t outputsProduced = 0;
    std::string detail;
};

/** Run the trigger workload for @p bug on @p sim. */
WorkloadResult runWorkload(const TestbedBug &bug, sim::Simulator &sim);

/** @p bug's trigger workload as a live Stimulus, labelled
 *  "bug:<id>" ("bug:<id>:fixed" for the fixed variant). The stimulus
 *  refers to @p bug, which must outlive it (testbedBugs() entries
 *  live for the whole program). */
sim::Stimulus workloadStimulus(const TestbedBug &bug, bool buggy);

/**
 * Drive the passing (ground truth) stimulus for @p bug; meaningful for
 * the LossCheck-relevant bugs. The caller inspects sim.log() afterward.
 */
void driveGroundTruth(const TestbedBug &bug, sim::Simulator &sim);

} // namespace hwdbg::bugs

#endif // HWDBG_BUGBASE_WORKLOADS_HH
