/**
 * @file
 * Interpreter vs. compiled bytecode backend: the speedup gate.
 *
 * A corpus of generated designs (the fuzz generator with every template
 * enabled, so memories, FSMs, FIFOs, and submodules are all present)
 * runs the same deterministic stimulus on both backends. Per design the
 * bench reports the run time on each backend and their ratio, and the
 * time to build the bytecode Program (installing the backend on a
 * constructed simulator), each the median of kRepeats runs; the gate
 * is the geometric-mean speedup, which must stay >= 5x or the bench
 * exits 1 — the bar the compiled backend must clear to justify its
 * existence. The worst per-design ratio and its seed are reported
 * next to the geomean, ungated.
 *
 * While it measures, the bench asserts what the equivalence tests
 * assert: both runs must end in the identical architectural state
 * (every signal, every memory element, cycle count, $finish, $display
 * log). A speedup built on divergence is a bug, not a result.
 *
 * With a path argument the per-design table and the geomean land in a
 * BENCH_backend_speedup.json trajectory file, the perf baseline future
 * PRs diff against.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "compile/backend.hh"
#include "elab/elaborate.hh"
#include "fuzz/generator.hh"
#include "sim/simulator.hh"

using namespace hwdbg;

namespace
{

/** splitmix64: one deterministic stimulus stream per seed. */
struct Rng
{
    uint64_t state;
    explicit Rng(uint64_t seed) : state(seed) {}
    uint64_t next()
    {
        uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
};

struct FinalState
{
    std::vector<Bits> values;
    std::vector<std::vector<Bits>> arrays;
    uint64_t cycle = 0;
    bool finished = false;
    size_t logLines = 0;
    /** Seconds spent formatting the deferred $display log — work the
     *  hot loop used to pay inline and now pays at the drain. */
    double fmtSec = 0;

    bool operator==(const FinalState &rhs) const
    {
        return values == rhs.values && arrays == rhs.arrays &&
               cycle == rhs.cycle && finished == rhs.finished &&
               logLines == rhs.logLines;
    }
};

/** Seconds since @p begin. */
double
since(std::chrono::steady_clock::time_point begin)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         begin)
        .count();
}

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

/** Clock @p cycles of seeded stimulus through @p sim; returns seconds. */
double
runStimulus(sim::Simulator &sim, const fuzz::GeneratedDesign &gd,
            uint64_t seed, uint32_t cycles, FinalState *out)
{
    Rng rng(seed ^ 0x42454E4348ULL);
    auto begin = std::chrono::steady_clock::now();
    for (uint32_t t = 0; t < cycles && !sim.finished(); ++t) {
        if (gd.hasRst)
            sim.poke("rst", uint64_t(t < 2 ? 1 : 0));
        for (const auto &port : gd.inputs)
            sim.poke(port.name, Bits(port.width, rng.next()));
        sim.poke("clk", uint64_t(0));
        sim.eval();
        sim.poke("clk", uint64_t(1));
        sim.eval();
    }
    double sec = since(begin);
    out->values = sim.context().values;
    out->arrays = sim.context().arrays;
    out->cycle = sim.cycle();
    out->finished = sim.finished();
    // The first log() access drains and formats the deferred $display
    // entries; timing it separately shows what the hot loop no longer
    // pays.
    auto fmtBegin = std::chrono::steady_clock::now();
    out->logLines = sim.log().size();
    out->fmtSec = since(fmtBegin);
    return sec;
}

struct Row
{
    uint64_t seed;
    size_t signals;
    double interpSec;
    double bytecodeSec;
    double buildSec;
    double speedup;
    double interpFmtSec;
    double bytecodeFmtSec;
    bool identical;
};

} // namespace

int
main(int argc, char **argv)
{
    uint32_t cycles = argc > 1
                          ? static_cast<uint32_t>(
                                std::strtoul(argv[1], nullptr, 10))
                          : 3000;
    const char *jsonPath = argc > 2 ? argv[2] : nullptr;
    const double kGate = 5.0;
    const int kRepeats = 5;

    // Every template on: the corpus leans large on purpose — the gate
    // measures the backend on designs worth compiling, and the small
    // degenerate ones are the fuzz campaign's job.
    fuzz::GeneratorOptions opts;
    opts.maxExprDepth = 4;
    opts.fsmChance = 100;
    opts.fifoChance = 100;
    opts.memChance = 100;
    opts.submoduleChance = 100;
    opts.displayChance = 30;

    std::printf("Backend speedup: interpreter vs. compiled bytecode, "
                "%u cycles/design, median of %d\n",
                cycles, kRepeats);
    std::printf("%-6s %-8s %-11s %-13s %-10s %-9s %-9s %s\n", "seed",
                "signals", "interp s", "bytecode s", "build ms",
                "speedup", "fmt s", "state");

    std::vector<Row> rows;
    double logSum = 0;
    const Row *worst = nullptr;
    bool diverged = false;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        fuzz::GeneratedDesign gd = fuzz::generateDesign(seed, opts);
        std::vector<double> secA, secB, build, fmtA, fmtB;
        size_t signals = 0;
        bool identical = true;
        for (int rep = 0; rep < kRepeats; ++rep) {
            // Lowering annotates the AST, so each run elaborates afresh.
            sim::Simulator interp(elab::elaborate(gd.design, gd.top).mod);
            sim::Simulator bytecode(elab::elaborate(gd.design, gd.top).mod);
            auto buildBegin = std::chrono::steady_clock::now();
            bytecode.setBackend(compile::makeBytecodeBackend());
            build.push_back(since(buildBegin));

            FinalState stateA, stateB;
            secA.push_back(runStimulus(interp, gd, seed, cycles, &stateA));
            secB.push_back(
                runStimulus(bytecode, gd, seed, cycles, &stateB));
            fmtA.push_back(stateA.fmtSec);
            fmtB.push_back(stateB.fmtSec);
            signals = interp.design().numSignals();
            identical = identical && stateA == stateB;
        }

        double interpSec = median(secA), bytecodeSec = median(secB);
        Row row{seed,
                signals,
                interpSec,
                bytecodeSec,
                median(build),
                bytecodeSec > 0 ? interpSec / bytecodeSec : 0,
                median(fmtA),
                median(fmtB),
                identical};
        rows.push_back(row);
        logSum += std::log(row.speedup);
        diverged = diverged || !row.identical;
        std::printf("%-6llu %-8zu %-11.4f %-13.4f %-10.3f %-9.2f %-9.4f "
                    "%s\n",
                    static_cast<unsigned long long>(seed), row.signals,
                    row.interpSec, row.bytecodeSec, row.buildSec * 1e3,
                    row.speedup, row.interpFmtSec,
                    row.identical ? "identical" : "DIVERGED");
    }

    for (const Row &row : rows)
        if (!worst || row.speedup < worst->speedup)
            worst = &row;
    double geomean = std::exp(logSum / static_cast<double>(rows.size()));
    std::printf("\ngeomean speedup: %.2fx (gate: >= %.1fx), "
                "min %.2fx (seed %llu)\n",
                geomean, kGate, worst->speedup,
                static_cast<unsigned long long>(worst->seed));

    if (jsonPath) {
        FILE *f = std::fopen(jsonPath, "w");
        if (!f) {
            std::fprintf(stderr, "FATAL: cannot write %s\n", jsonPath);
            return 1;
        }
        std::fprintf(f,
                     "{\n  \"bench\": \"backend_speedup\",\n"
                     "  \"cycles_per_design\": %u,\n  \"repeats\": %d,\n"
                     "  \"designs\": [\n",
                     cycles, kRepeats);
        for (size_t i = 0; i < rows.size(); ++i)
            std::fprintf(f,
                         "    {\"seed\": %llu, \"signals\": %zu, "
                         "\"interp_sec\": %.6f, "
                         "\"bytecode_sec\": %.6f, "
                         "\"bytecode_build_sec\": %.6f, "
                         "\"speedup\": %.3f, "
                         "\"interp_fmt_sec\": %.6f, "
                         "\"bytecode_fmt_sec\": %.6f}%s\n",
                         static_cast<unsigned long long>(rows[i].seed),
                         rows[i].signals, rows[i].interpSec,
                         rows[i].bytecodeSec, rows[i].buildSec,
                         rows[i].speedup,
                         rows[i].interpFmtSec, rows[i].bytecodeFmtSec,
                         i + 1 < rows.size() ? "," : "");
        std::fprintf(f,
                     "  ],\n  \"geomean_speedup\": %.3f,\n"
                     "  \"min_speedup\": %.3f,\n  \"min_seed\": %llu,\n"
                     "  \"gate\": %.1f\n}\n",
                     geomean, worst->speedup,
                     static_cast<unsigned long long>(worst->seed), kGate);
        std::fclose(f);
        std::printf("trajectory written to %s\n", jsonPath);
    }

    if (diverged) {
        std::fprintf(stderr,
                     "FATAL: backends disagreed on final state\n");
        return 1;
    }
    if (geomean < kGate) {
        std::fprintf(stderr,
                     "FATAL: geomean speedup %.2fx below the %.1fx "
                     "gate\n",
                     geomean, kGate);
        return 1;
    }
    return 0;
}
