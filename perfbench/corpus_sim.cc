/**
 * @file
 * corpus_sim: long simulation of the generated corpus on both backends.
 *
 * The corpus is the 12 fuzz-generator designs `backend_speedup` gates
 * (seeds 1-12, every template on). Seeds 2 and 9 are the known
 * wide-value slow paths: a 128-bit `%0d` log drain and a 65-bit `%`.
 * Each design gets its own seeded stimulus for a fixed number of
 * cycles, drawn once before timing. backend_speedup runs 3000 cycles a
 * design; kCycles is 100 so that a run of 20 s holds the 240 operations
 * its p95 needs (seed 2's drain alone grows about linearly with cycles,
 * to seconds at 3000).
 *
 * One operation is one design run on `interp` and then on `bytecode`,
 * each timed from Simulator construction through the first log()
 * drain; the operation's latency is the sum of the two. Generating and
 * elaborating the corpus is set-up, off the clock. The two runs must end
 * in the same final state and log, as backend_speedup asserts.
 */

#include <memory>

#include "bench.hh"
#include "common/bits.hh"
#include "compile/backend.hh"
#include "elab/elaborate.hh"
#include "fuzz/generator.hh"
#include "hdl/ast.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"

namespace perfbench
{
namespace
{

using namespace hwdbg;

constexpr uint32_t kCycles = 100;
constexpr uint64_t kCorpusSeeds = 12;

struct FinalState
{
    std::vector<Bits> values;
    std::vector<std::vector<Bits>> arrays;
    uint64_t cycle = 0;
    bool finished = false;
    std::vector<std::string> log;
    bool operator==(const FinalState &) const = default;
};

FinalState
finalState(sim::Simulator &sim)
{
    FinalState state;
    state.values = sim.context().values;
    state.arrays = sim.context().arrays;
    state.cycle = sim.cycle();
    state.finished = sim.finished();
    for (const auto &line : sim.log())
        state.log.push_back(line.text);
    return state;
}

struct Design
{
    uint64_t seed = 0;
    /** The elaborated design, never lowered; runs lower a clone. */
    hdl::ModulePtr mod;
    bool hasRst = false;
    std::vector<std::string> inputs;
    /** stimulus[cycle][input] */
    std::vector<std::vector<Bits>> stimulus;
};

/**
 * Construct, lower, run the stimulus, and drain the log: the timed
 * region of one backend's run. @p mod is a fresh copy of the design,
 * since lowering annotates the AST. @p evalUs receives the poke/eval
 * loop time.
 */
std::unique_ptr<sim::Simulator>
simulate(hdl::ModulePtr mod, const Design &d, bool bytecode,
         double *evalUs)
{
    obs::ObsSpan opSpan("bench:op");
    std::unique_ptr<sim::Simulator> sim;
    {
        obs::ObsSpan span("bench:sim.lower");
        sim = std::make_unique<sim::Simulator>(std::move(mod));
    }
    if (bytecode) {
        obs::ObsSpan span("bench:compile.lower");
        sim->setBackend(compile::makeBytecodeBackend());
    }
    {
        obs::ObsSpan span(bytecode ? "bench:compile.eval_bytecode"
                                   : "bench:sim.eval_interp");
        auto t0 = Clock::now();
        for (size_t t = 0; t < d.stimulus.size() && !sim->finished();
             ++t) {
            if (d.hasRst)
                sim->poke("rst", uint64_t(t < 2 ? 1 : 0));
            for (size_t i = 0; i < d.inputs.size(); ++i)
                sim->poke(d.inputs[i], d.stimulus[t][i]);
            sim->poke("clk", uint64_t(0));
            sim->eval();
            sim->poke("clk", uint64_t(1));
            sim->eval();
        }
        *evalUs = microsSince(t0);
    }
    obs::ObsSpan span("bench:sim.drain");
    sim->log();
    return sim;
}

class CorpusSim : public Workload
{
  public:
    explicit CorpusSim(const Options &opts) : opts_(opts) {}

    void setup(Report &rep) override
    {
        // The backend_speedup generator options: every template on.
        fuzz::GeneratorOptions gopts;
        gopts.maxExprDepth = 4;
        gopts.fsmChance = 100;
        gopts.fifoChance = 100;
        gopts.memChance = 100;
        gopts.submoduleChance = 100;
        gopts.displayChance = 30;

        // One corpus build takes about 2 ms, too short to time alone on
        // a shared host: each set-up sample is the mean build time over
        // a batch of builds.
        constexpr int kBatches = 15, kBuildsPerBatch = 25;
        std::vector<fuzz::GeneratedDesign> generated;
        for (int batch = 0; batch < kBatches; ++batch) {
            auto t0 = Clock::now();
            for (int build = 0; build < kBuildsPerBatch; ++build) {
                generated.clear();
                designs_.clear();
                for (uint64_t seed = 1; seed <= kCorpusSeeds; ++seed) {
                    generated.push_back(fuzz::generateDesign(seed, gopts));
                    Design d;
                    d.seed = seed;
                    d.mod = elab::elaborate(generated.back().design,
                                            generated.back().top)
                                .mod;
                    designs_.push_back(std::move(d));
                }
            }
            rep.setupS.push_back(secondsSince(t0) / kBuildsPerBatch);
        }

        for (size_t i = 0; i < designs_.size(); ++i) {
            Design &d = designs_[i];
            d.hasRst = generated[i].hasRst;
            Rng rng(opts_.seed * 0x100000001B3ULL + d.seed);
            for (const auto &port : generated[i].inputs)
                d.inputs.push_back(port.name);
            d.stimulus.resize(kCycles);
            for (auto &row : d.stimulus)
                for (const auto &port : generated[i].inputs)
                    row.push_back(Bits(port.width, rng.next()));
        }
    }

    void measure(double seconds, bool traced, Report &rep) override
    {
        std::vector<size_t> order(designs_.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        // p95 with ten samples beyond it needs 200 operations.
        const size_t minOps = traced ? 0 : 240;
        size_t done = 0;
        auto t0 = Clock::now();
        do {
            shuffle(order, rng_);
            double cycles = 0, logLines = 0;
            for (size_t i : order) {
                const Design &d = designs_[i];
                std::string key = std::to_string(d.seed);
                FinalState states[2];
                double total = 0;
                std::string error;
                for (bool bytecode : {false, true}) {
                    const char *name = bytecode ? "bytecode" : "interp";
                    hdl::ModulePtr mod = hdl::cloneModule(*d.mod);
                    double evalUs = 0;
                    std::unique_ptr<sim::Simulator> sim;
                    auto start = Clock::now();
                    try {
                        sim = simulate(std::move(mod), d, bytecode,
                                       &evalUs);
                    } catch (const std::exception &err) {
                        error = err.what();
                        break;
                    }
                    double us = microsSince(start);
                    total += us;
                    rep.samples[std::string(name) + "." + key].add(us);
                    rep.samples[std::string("eval_") + name + "." + key]
                        .add(evalUs);
                    states[bytecode] = finalState(*sim);
                }
                if (error.empty() && !(states[0] == states[1]))
                    error = "interp and bytecode end in different final "
                            "state or log";
                rep.check(error.empty(), "seed " + key + ": " + error);
                rep.samples["op"].add(total);
                rep.samples["design." + key].add(total);
                rep.values["cycles." + key] = double(states[0].cycle);
                cycles += 2 * double(states[0].cycle);
                logLines += 2 * double(states[0].log.size());
            }
            rep.values["sim.cycles"] = cycles;
            rep.values["sim.log_lines"] = logLines;
            done += order.size();
        } while (secondsSince(t0) < seconds || done < minOps);
        rep.measureS += secondsSince(t0);
    }

  private:
    Options opts_;
    Rng rng_{opts_.seed ^ 0x636f72707573ULL};
    CpuRotor rotor_;
    std::vector<Design> designs_;
};

} // namespace

std::unique_ptr<Workload>
makeCorpusSim(const Options &opts)
{
    return std::make_unique<CorpusSim>(opts);
}

} // namespace perfbench
