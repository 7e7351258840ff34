#include "sim/stimulus.hh"

#include <vector>

#include "common/logging.hh"

namespace hwdbg::sim
{

namespace
{

/** splitmix64: deterministic draws without depending on fuzz/rng. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

Stimulus
Stimulus::random(uint64_t seed, uint32_t cycles)
{
    Stimulus stim;
    stim.label = "seed:" + std::to_string(seed);
    stim.seed = seed;
    stim.cycles = cycles;
    return stim;
}

void
Stimulus::drive(Simulator &sim, const char *who) const
{
    if (live) {
        live(sim);
        return;
    }
    if (tape) {
        for (const auto &step : tape->steps) {
            sim.applyStep(step);
            if (sim.finished())
                break;
        }
        return;
    }
    const LoweredDesign &design = sim.design();
    auto isInput = [&](const char *name) {
        int id = design.signalId(name);
        return id >= 0 && design.info(id).dir == hdl::PortDir::Input;
    };
    bool hasClk = isInput("clk");
    bool hasRst = isInput("rst");
    std::vector<const SignalInfo *> inputs;
    for (size_t i = 0; i < design.numSignals(); ++i) {
        const SignalInfo &sig = design.info(static_cast<int>(i));
        if (sig.dir == hdl::PortDir::Input && sig.name != "clk" &&
            sig.name != "rst")
            inputs.push_back(&sig);
    }
    if (!hasClk)
        warn("%s: design has no 'clk' input; running %u "
             "combinational eval rounds",
             who, cycles);

    for (uint32_t t = 0; t < cycles; ++t) {
        if (hasRst)
            sim.poke("rst", Bits(1, t < 2 ? 1 : 0));
        for (size_t i = 0; i < inputs.size(); ++i) {
            uint64_t draw =
                mix64(seed ^ (static_cast<uint64_t>(t) << 20) ^ i);
            sim.poke(inputs[i]->name, Bits(inputs[i]->width, draw));
        }
        if (hasClk) {
            sim.poke("clk", Bits(1, 0));
            sim.eval();
            sim.poke("clk", Bits(1, 1));
        }
        sim.eval();
        if (sim.finished())
            break;
    }
}

} // namespace hwdbg::sim
