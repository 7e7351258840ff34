/**
 * @file
 * One stimulus source for every one-shot simulation run (cover, trace,
 * profile, and serve's one-shot sessions).
 *
 * A Stimulus is a report label plus exactly one of:
 *  - a live driver: a testbed bug's trigger workload, run directly
 *    against the simulator (bugs::workloadStimulus builds one);
 *  - a recorded stimulus tape, replayed step by step until the tape
 *    ends or the design executes $finish;
 *  - seeded random input {seed, cycles}: rst held for two cycles, every
 *    other non-clock input redrawn from splitmix64 each cycle, clk
 *    toggled low then high. Designs without a clk input get `cycles`
 *    combinational eval rounds instead.
 */

#ifndef HWDBG_SIM_STIMULUS_HH
#define HWDBG_SIM_STIMULUS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/simulator.hh"

namespace hwdbg::sim
{

struct Stimulus
{
    /** Workload label recorded in reports ("bug:D3", "seed:1", ...). */
    std::string label;
    /** Live driver; wins over the other sources when set. */
    std::function<void(Simulator &)> live;
    /** Recorded tape; used when no live driver is set. */
    std::shared_ptr<const StimulusTape> tape;
    /** Random source, used when neither of the above is set. */
    uint64_t seed = 1;
    uint32_t cycles = 0;

    /** Seeded random input, labelled "seed:<seed>". */
    static Stimulus random(uint64_t seed, uint32_t cycles);

    /** Run the stimulus on @p sim; @p who prefixes the no-clock
     *  warning of the random source ("cover", "trace", "profile"). */
    void drive(Simulator &sim, const char *who) const;
};

} // namespace hwdbg::sim

#endif // HWDBG_SIM_STIMULUS_HH
