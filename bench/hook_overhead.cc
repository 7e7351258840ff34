/**
 * @file
 * One overhead budget check for every way of observing the simulator
 * while it runs (DESIGN.md §10): the obs macros and spans, the
 * stimulus tape, coverage, and trace capture.
 *
 * Each observer stays compiled into every build, so the cost that
 * matters for everyone else is its DISABLED path. Per table row this
 * benchmark
 *
 *  1. calibrates the ns cost of one disabled site (median of 5 tight
 *     loops): an obs macro for the obs row, the empty observer-list
 *     test poke() and eval() pay for the others,
 *  2. counts how many such sites one simulated cycle of a testbed
 *     design executes, from the enabled runs' own counters,
 *  3. FAILS (exit 1) when sites/cycle x ns/site reaches 1% of the
 *     disabled ns/cycle.
 *
 * The enabled path is measured as interleaved off/on pairs, alternating
 * which side runs first; the gates read the medians and the quartiles
 * of the per-pair slowdown are printed beside them. Enabled coverage
 * FAILS at 10%; the other enabled costs are informational. The tape row
 * also reports what the time-travel debugger pays: snapshot size,
 * save/restore time, replay throughput and the checkpoint ring.
 *
 * With a path argument the rows land in a BENCH_hook_overhead.json
 * trajectory file.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bugbase/designs.hh"
#include "debug/checkpoint.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "hdl/preproc.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/coverage.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

using namespace hwdbg;

namespace
{

using Clock = std::chrono::steady_clock;

constexpr int kCalibrations = 5;
constexpr int kPairs = 21;
constexpr uint32_t kCycles = 2000;

double
nsSince(Clock::time_point begin)
{
    return std::chrono::duration<double, std::nano>(Clock::now() -
                                                    begin)
        .count();
}

/** The @p q quantile (0..1) of @p xs, by nearest rank. */
double
quantile(std::vector<double> xs, double q)
{
    std::sort(xs.begin(), xs.end());
    return xs[static_cast<size_t>(q * (xs.size() - 1) + 0.5)];
}

/** Median over kCalibrations runs of the ns per call of @p body,
 *  each run a tight loop of @p iters calls. */
template <typename Body>
double
calibrate(uint64_t iters, Body body)
{
    std::vector<double> runs;
    for (int run = 0; run < kCalibrations; ++run) {
        auto begin = Clock::now();
        for (uint64_t i = 0; i < iters; ++i)
            body();
        runs.push_back(nsSince(begin) / static_cast<double>(iters));
    }
    return quantile(runs, 0.5);
}

/** The RSD decoder testbed design: a realistic mix of clocked
 *  processes, continuous assigns, and a memory. */
std::unique_ptr<sim::Simulator>
makeWorkload()
{
    std::string src =
        hdl::preprocess(bugs::designSource("rsd"), {}, "rsd.v");
    hdl::Design design = hdl::parse(src, "rsd.v");
    return std::make_unique<sim::Simulator>(
        elab::elaborate(design, "rsd").mod);
}

/** ns per simulated cycle: 5 pokes and 2 evals each. */
double
simNsPerCycle(sim::Simulator &sim, uint32_t cycles)
{
    auto begin = Clock::now();
    for (uint32_t t = 0; t < cycles; ++t) {
        sim.poke("rst", Bits(1, t < 2 ? 1 : 0));
        sim.poke("in_valid", Bits(1, t & 1));
        sim.poke("in_data", Bits(8, t * 7));
        sim.poke("clk", Bits(1, 0));
        sim.eval();
        sim.poke("clk", Bits(1, 1));
        sim.eval();
    }
    return nsSince(begin) / cycles;
}

/** One observer of the table. */
struct Row
{
    const char *name;
    /** Disabled-path ns per site. */
    double siteNs;
    std::function<void()> on;
    std::function<void()> off;
    /** Sites executed so far by the enabled runs, over @p evals. */
    std::function<double(uint64_t evals)> sites;
    /** Enabled-path gate in percent; 0 = informational. */
    double enabledGate = 0;
};

struct Result
{
    double offNs, onNs, sitesPerCycle, impliedPct;
    double enabledPct, enabledQ1, enabledQ3;
};

Result
measure(sim::Simulator &sim, const Row &row)
{
    std::vector<double> off, on, pct;
    uint64_t onEvals = 0;
    auto timeOn = [&] {
        row.on();
        uint64_t seq = sim.evalSeq();
        double ns = simNsPerCycle(sim, kCycles);
        onEvals += sim.evalSeq() - seq;
        row.off();
        return ns;
    };
    for (int pair = 0; pair < kPairs; ++pair) {
        double offNs, onNs;
        if (pair % 2 == 0) {
            offNs = simNsPerCycle(sim, kCycles);
            onNs = timeOn();
        } else {
            onNs = timeOn();
            offNs = simNsPerCycle(sim, kCycles);
        }
        off.push_back(offNs);
        on.push_back(onNs);
        pct.push_back(100.0 * (onNs - offNs) / offNs);
    }
    Result r;
    r.offNs = quantile(off, 0.5);
    r.onNs = quantile(on, 0.5);
    r.sitesPerCycle =
        row.sites(onEvals) / (static_cast<double>(kPairs) * kCycles);
    r.impliedPct = 100.0 * r.sitesPerCycle * row.siteNs / r.offNs;
    r.enabledPct = quantile(pct, 0.5);
    r.enabledQ1 = quantile(pct, 0.25);
    r.enabledQ3 = quantile(pct, 0.75);
    return r;
}

/** What the time-travel debugger pays on @p sim and the @p tape the
 *  tape row recorded from it. */
void
reportDebugCosts(sim::Simulator &sim, const sim::StimulusTape &tape)
{
    constexpr int kSnaps = 200;
    sim::SimSnapshot snap;
    auto begin = Clock::now();
    for (int i = 0; i < kSnaps; ++i)
        snap = sim.saveState();
    double save_us = nsSince(begin) / kSnaps / 1e3;
    begin = Clock::now();
    for (int i = 0; i < kSnaps; ++i)
        sim.restoreState(snap);
    double restore_us = nsSince(begin) / kSnaps / 1e3;

    // applyStep over the tape on a fresh simulator: the speed
    // goto-cycle travels at.
    auto replayer = makeWorkload();
    begin = Clock::now();
    for (const auto &step : tape.steps)
        replayer->applyStep(step);
    double replay_ns = nsSince(begin) / tape.steps.size();

    // Checkpoint ring footprint at the debugger's default interval.
    debug::CheckpointRing ring(128, 64);
    ring.saveInitial(*replayer);
    for (uint64_t pos = 0; pos < tape.steps.size(); ++pos)
        ring.maybeSave(pos + 1, *replayer);

    std::printf("  tape                  : %zu steps, %zu bytes\n",
                tape.steps.size(), tape.sizeBytes());
    std::printf("  snapshot              : %zu bytes, save %.1f us, "
                "restore %.1f us\n",
                snap.sizeBytes(), save_us, restore_us);
    std::printf("  replay throughput     : %.1f ns/step "
                "(%.2f Msteps/s)\n",
                replay_ns, 1e3 / replay_ns);
    std::printf("  checkpoint ring       : %zu snapshots, %.2f MiB "
                "(interval 128)\n",
                ring.count(), ring.totalBytes() / (1024.0 * 1024.0));
}

} // namespace

int
main(int argc, char **argv)
{
    const char *jsonPath = argc > 1 ? argv[1] : nullptr;
    obs::enableMetrics(false);
    // A disabled observer site loads the (empty) observer list and
    // skips the loop over it, the shape poke() and eval() pay; the
    // per-construct coverage sinks pay a null test, no dearer.
    std::vector<sim::Observer *> empty;
    std::vector<sim::Observer *> *volatile observers = &empty;
    volatile uintptr_t sink = 0;
    double list_ns = calibrate(50'000'000, [&] {
        for (sim::Observer *observer : *observers)
            sink = sink + reinterpret_cast<uintptr_t>(observer);
    });
    double macro_ns = calibrate(
        20'000'000, [] { HWDBG_STAT_INC("bench.calibration", 1); });
    double span_ns =
        calibrate(5'000'000, [] { obs::ObsSpan span("bench.span"); });

    auto sim = makeWorkload();
    (void)simNsPerCycle(*sim, kCycles); // warm up

    // Stimulus tape: every poke and eval is one site.
    sim::StimulusTape tape;
    std::unique_ptr<sim::StimulusRecorder> taping;
    // Coverage: every mark counts itself in events().
    sim::CoverageItems items = sim::buildCoverageItems(sim->design());
    sim::CoverageCollector collector(items);
    // Trace: a recorder over every signal, free-running ring.
    trace::TraceConfig cfg;
    cfg.budgetBytes = 1 << 20;
    trace::TraceRecorder recorder(*sim, cfg);

    std::vector<Row> rows = {
        // With metrics on, settle_calls and display_records count
        // their own macros' executions; noteSettle() fires 4 macros
        // per settle call, and eval() 1 per eval (process_evals) and
        // 1 per posedge (cycles): 3 per cycle of 2 evals.
        {"obs", macro_ns, [] { obs::enableMetrics(true); },
         [] { obs::enableMetrics(false); },
         [](uint64_t) {
             return 4.0 * obs::counterValue("sim.settle_calls") +
                    3.0 * kPairs * kCycles +
                    obs::counterValue("sim.display_records");
         }},
        {"tape", list_ns,
         [&] {
             taping = std::make_unique<sim::StimulusRecorder>(*sim,
                                                              tape);
         },
         [&] { taping.reset(); },
         [&](uint64_t evals) {
             double sites = static_cast<double>(evals);
             for (const auto &step : tape.steps)
                 sites += step.pokes.size();
             return sites;
         }},
        {"cover", list_ns, [&] { sim->enableCoverage(&collector); },
         [&] { sim->enableCoverage(nullptr); },
         [&](uint64_t) {
             return static_cast<double>(collector.events());
         },
         10.0},
        {"trace", list_ns, [&] { recorder.attach(); },
         [&] { recorder.detach(); },
         [](uint64_t evals) { return static_cast<double>(evals); }},
    };

    std::printf("hook_overhead: observer budgets on rsd, median of %d "
                "interleaved off/on pairs of %u cycles\n",
                kPairs, kCycles);
    std::printf("  disabled site (median of %d): list test %.3f ns, "
                "macro %.3f ns, span %.3f ns\n",
                kCalibrations, list_ns, macro_ns, span_ns);
    std::printf("  %-6s %8s %10s %10s %10s  %-24s %9s\n", "row",
                "ns/site", "sites/cyc", "off ns/cyc", "on ns/cyc",
                "enabled (q1..q3)", "disabled");

    bool ok = true;
    std::vector<Result> results;
    for (const Row &row : rows) {
        obs::resetMetrics();
        Result r = measure(*sim, row);
        results.push_back(r);
        char enabled[64];
        std::snprintf(enabled, sizeof(enabled), "%+.2f%% (%+.1f..%+.1f)",
                      r.enabledPct, r.enabledQ1, r.enabledQ3);
        std::printf("  %-6s %8.3f %10.2f %10.1f %10.1f  %-24s %8.4f%%\n",
                    row.name, row.siteNs, r.sitesPerCycle, r.offNs,
                    r.onNs, enabled, r.impliedPct);
        if (r.impliedPct >= 1.0) {
            std::printf("FAIL: %s disabled-path overhead %.4f%% >= 1%%\n",
                        row.name, r.impliedPct);
            ok = false;
        }
        if (row.enabledGate > 0 && r.enabledPct >= row.enabledGate) {
            std::printf("FAIL: %s enabled-path overhead %.2f%% >= "
                        "%.0f%%\n",
                        row.name, r.enabledPct, row.enabledGate);
            ok = false;
        }
    }
    reportDebugCosts(*sim, tape);

    if (jsonPath) {
        FILE *f = std::fopen(jsonPath, "w");
        if (!f) {
            std::fprintf(stderr, "FATAL: cannot write %s\n", jsonPath);
            return 1;
        }
        std::fprintf(f, "{\n  \"bench\": \"hook_overhead\",\n"
                        "  \"rows\": [\n");
        for (size_t i = 0; i < rows.size(); ++i) {
            const Result &r = results[i];
            std::fprintf(f,
                         "    {\"observer\": \"%s\", \"hook_ns\": %.4f, "
                         "\"off_ns_per_cycle\": %.1f, "
                         "\"on_ns_per_cycle\": %.1f, "
                         "\"hook_tests_per_cycle\": %.2f, "
                         "\"implied_disabled_pct\": %.4f, "
                         "\"enabled_pct\": %.2f, \"gate_pct\": 1.0}%s\n",
                         rows[i].name, rows[i].siteNs, r.offNs, r.onNs,
                         r.sitesPerCycle, r.impliedPct, r.enabledPct,
                         i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("trajectory written to %s\n", jsonPath);
    }

    if (!ok)
        return 1;
    std::printf("PASS: every disabled path < 1%%, enabled coverage "
                "< 10%%\n");
    return 0;
}
