/**
 * @file
 * testbed_cli: one-shot CLI commands over the 20-bug testbed.
 *
 * Every bug, buggy and fixed, goes through five commands, each built
 * from source text the way `hwdbg` builds it and with its default
 * options. cover and trace run on the engine the built CLI picks without
 * --backend (Options::cliBackend), so a change of the CLI's default
 * engine shows here:
 *
 *   lint        --top <design> --define <bug>       text report
 *   analyze     --top <design> --define <bug>       --format json
 *   instrument  the paper's tools on the bug's monitor setup (FSM and
 *               Dependency Monitors, LossCheck), then SignalCat where
 *               the design supports it, printed as Verilog
 *   cover --bug                                      text + --out JSON
 *   trace --bug                                      --format json --vcd
 *
 * One operation is one command from source text to rendered output, run
 * one at a time on one thread in a seeded order. Every output must equal
 * the one the set-up pass produced.
 *
 * Untraced, cover and trace run through cover::coverBugWorkload and
 * trace::traceBugWorkload as the CLI does. Traced, the benchmark composes
 * the same calls itself so each layer gets its own span; set-up checks
 * that both give the same output.
 */

#include <array>
#include <memory>
#include <optional>

#include "analyze/analyze.hh"
#include "bench.hh"
#include "bugbase/designs.hh"
#include "bugbase/testbed.hh"
#include "bugbase/workloads.hh"
#include "compile/backend.hh"
#include "core/signalcat.hh"
#include "cover/report.hh"
#include "cover/run.hh"
#include "cover/snapshot.hh"
#include "debug/engine.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "hdl/printer.hh"
#include "lint/lint.hh"
#include "obs/trace.hh"
#include "sim/coverage.hh"
#include "sim/simulator.hh"
#include "trace/json.hh"
#include "trace/run.hh"
#include "trace/trace.hh"
#include "trace/vcd.hh"

namespace perfbench
{
namespace
{

using namespace hwdbg;

enum class Cmd { Lint, Analyze, Instrument, Cover, Trace };
constexpr std::array<Cmd, 5> kCmds = {Cmd::Lint, Cmd::Analyze,
                                      Cmd::Instrument, Cmd::Cover,
                                      Cmd::Trace};

const char *
cmdName(Cmd cmd)
{
    switch (cmd) {
    case Cmd::Lint: return "lint";
    case Cmd::Analyze: return "analyze";
    case Cmd::Instrument: return "instrument";
    case Cmd::Cover: return "cover";
    case Cmd::Trace: return "trace";
    }
    return "?";
}

/** One testbed design variant, as source text plus defines. */
struct Case
{
    const bugs::TestbedBug *bug;
    bool buggy;
    std::map<std::string, std::string> defines;
    /** The workload label cover and trace stamp on their output. */
    std::string label;
};

/** What a command prints or writes: its JSON artifact (analyze, cover,
 *  trace) and its text (a report, Verilog, or VCD). */
struct Output
{
    std::string json;
    std::string text;
    bool operator==(const Output &) const = default;
};

/** Per-pass counts, taken once in set-up. */
struct Tally
{
    uint64_t lintDiags = 0;
    uint64_t analyzeDiags = 0;
    uint64_t generatedLines = 0;
    uint64_t cycles = 0;
};

elab::ElabResult
frontEnd(const Case &c)
{
    hdl::Design design;
    {
        obs::ObsSpan span("bench:hdl.parse");
        design = hdl::parseWithDefines(
            bugs::designSource(c.bug->designName), c.defines,
            c.bug->designName + ".v");
    }
    obs::ObsSpan span("bench:elab.elaborate");
    return elab::elaborate(design, c.bug->designName);
}

Output
runLint(const Case &c, Tally *tally)
{
    auto elaborated = frontEnd(c);
    std::vector<lint::Diagnostic> diags;
    {
        obs::ObsSpan span("bench:lint.run");
        diags = lint::runLint(*elaborated.mod);
    }
    if (tally)
        tally->lintDiags += diags.size();
    obs::ObsSpan span("bench:lint.render");
    return Output{"", lint::renderText(diags)};
}

Output
runAnalyze(const Case &c, Tally *tally)
{
    auto elaborated = frontEnd(c);
    std::vector<lint::Diagnostic> diags;
    {
        obs::ObsSpan span("bench:analyze.run");
        diags = analyze::runAnalyze(*elaborated.mod);
    }
    if (tally)
        tally->analyzeDiags += diags.size();
    obs::ObsSpan span("bench:analyze.render");
    std::vector<std::string> ran;
    for (const auto &pass : analyze::analyzePasses())
        ran.push_back(pass.id);
    return Output{analyze::renderAnalyzeJson(ran, diags), ""};
}

Output
runInstrument(const Case &c, Tally *tally)
{
    auto elaborated = frontEnd(c);
    hdl::ModulePtr mod;
    int generated = 0;
    {
        obs::ObsSpan span("bench:core.instrument");
        debug::InstrumentConfig icfg;
        icfg.fsm = c.bug->monitors.fsm;
        icfg.depVariable = c.bug->monitors.depVariable;
        icfg.depCycles = c.bug->monitors.depCycles;
        icfg.lossCheck = c.bug->lossCheck;
        icfg.constants = elaborated.constants;
        auto instr = debug::instrumentForDebug(*elaborated.mod, icfg);
        mod = instr.module;
        generated = instr.generatedLines;
        if (core::signalCatSupported(*mod)) {
            auto cat = core::applySignalCat(*mod);
            mod = cat.module;
            generated += cat.generatedLines;
        }
    }
    if (tally)
        tally->generatedLines += static_cast<uint64_t>(generated);
    obs::ObsSpan span("bench:hdl.print");
    return Output{"", hdl::printModule(*mod)};
}

std::unique_ptr<sim::Simulator>
lower(hdl::ModulePtr mod, const sim::BackendFactory &backend)
{
    std::unique_ptr<sim::Simulator> sim;
    {
        obs::ObsSpan span("bench:sim.lower");
        sim = std::make_unique<sim::Simulator>(std::move(mod));
    }
    if (backend) {
        obs::ObsSpan span("bench:compile.lower");
        sim->setBackend(backend);
    }
    return sim;
}

Output
renderCover(const cover::Snapshot &snap)
{
    return Output{cover::toJson(snap), cover::renderCoverText(snap)};
}

Output
renderTrace(const trace::TraceDump &dump)
{
    return Output{trace::toJson(dump), trace::renderVcd(dump)};
}

/** cover::coverBugWorkload, one layer call at a time. */
Output
composedCover(const Case &c, const sim::BackendFactory &backend,
              Tally *tally)
{
    auto elaborated = frontEnd(c);
    std::string top = elaborated.mod->name;
    auto sim = lower(elaborated.mod, backend);
    std::optional<sim::CoverageItems> items;
    std::optional<sim::CoverageCollector> collector;
    {
        obs::ObsSpan span("bench:cover.items");
        items.emplace(sim::buildCoverageItems(
            sim->design(), cover::fsmSpecsFor(sim->design().module())));
        collector.emplace(*items);
        sim->enableCoverage(&*collector);
    }
    {
        obs::ObsSpan span("bench:sim.workload");
        bugs::runWorkload(*c.bug, *sim);
    }
    if (tally)
        tally->cycles += sim->cycle();
    sim->enableCoverage(nullptr);
    obs::ObsSpan span("bench:cover.render");
    return renderCover(
        cover::snapshotFrom(*items, *collector, top, c.label));
}

/** trace::traceBugWorkload, one layer call at a time. */
Output
composedTrace(const Case &c, const sim::BackendFactory &backend,
              Tally *tally)
{
    auto elaborated = frontEnd(c);
    auto sim = lower(elaborated.mod, backend);
    std::optional<trace::TraceRecorder> recorder;
    {
        obs::ObsSpan span("bench:trace.attach");
        recorder.emplace(*sim, trace::TraceConfig{});
        recorder->attach();
    }
    {
        obs::ObsSpan span("bench:sim.workload");
        bugs::runWorkload(*c.bug, *sim);
    }
    if (tally)
        tally->cycles += sim->cycle();
    obs::ObsSpan span("bench:trace.render");
    recorder->detach();
    return renderTrace(recorder->dump(c.label));
}

Output
runCommand(const Case &c, Cmd cmd, bool composed,
           const sim::BackendFactory &backend, Tally *tally = nullptr)
{
    switch (cmd) {
    case Cmd::Lint: return runLint(c, tally);
    case Cmd::Analyze: return runAnalyze(c, tally);
    case Cmd::Instrument: return runInstrument(c, tally);
    case Cmd::Cover:
        if (composed)
            return composedCover(c, backend, tally);
        return renderCover(
            cover::coverBugWorkload(*c.bug, c.buggy, backend));
    case Cmd::Trace:
        if (composed)
            return composedTrace(c, backend, tally);
        return renderTrace(trace::traceBugWorkload(
            *c.bug, c.buggy, trace::TraceConfig{}, backend));
    }
    return {};
}

/** The artifact checks `hwdbg obscheck` and a re-parse would make. */
std::string
checkOutput(Cmd cmd, const Output &out)
{
    switch (cmd) {
    case Cmd::Analyze: return analyze::checkAnalyzeJson(out.json);
    case Cmd::Cover: return cover::checkCoverageJson(out.json);
    case Cmd::Trace: return trace::checkTraceDumpJson(out.json);
    case Cmd::Instrument:
        if (hdl::parse(out.text, "instrumented.v").modules.empty())
            return "instrumented Verilog has no modules";
        return "";
    case Cmd::Lint: return "";
    }
    return "";
}

/** The factory `hwdbg` passes for `--backend @p name`. */
sim::BackendFactory
cliFactory(const std::string &name)
{
    if (name == "bytecode")
        return compile::makeBytecodeBackend();
    return {};
}

/** A trace dump with its "backend" member dropped. */
Output
withoutBackend(Output out)
{
    size_t at = out.json.find("\"backend\":");
    if (at != std::string::npos)
        out.json.erase(at, out.json.find('\n', at) - at);
    return out;
}

class TestbedCli : public Workload
{
  public:
    explicit TestbedCli(const Options &opts)
        : opts_(opts), cli_(cliFactory(opts.cliBackend)),
          other_(cliFactory(opts.cliBackend == "interp" ? "bytecode"
                                                        : "interp"))
    {
        for (const auto &bug : bugs::testbedBugs()) {
            for (bool buggy : {true, false}) {
                Case c{&bug, buggy, {}, "bug:" + bug.id};
                if (buggy)
                    c.defines[bug.bugDefine] = "";
                else
                    c.label += ":fixed";
                cases_.push_back(std::move(c));
            }
        }
    }

    void setup(Report &rep) override
    {
        // Set-up is the warm-up pass: every command once, repeated so
        // set-up time is a median. It times the commands, not the
        // artifact checks, and every pass must reproduce the first.
        Tally tally;
        expected_.resize(cases_.size());
        for (int rep_i = 0; rep_i < 9; ++rep_i) {
            double passS = 0;
            for (size_t i = 0; i < cases_.size(); ++i) {
                for (Cmd cmd : kCmds) {
                    std::string where = cases_[i].label + " " +
                                        cmdName(cmd);
                    Output out;
                    auto t0 = Clock::now();
                    try {
                        out = runCommand(cases_[i], cmd, false, cli_,
                                         rep_i == 0 ? &tally : nullptr);
                    } catch (const std::exception &err) {
                        rep.check(false, where + ": " + err.what());
                        continue;
                    }
                    passS += secondsSince(t0);
                    std::string verdict = checkOutput(cmd, out);
                    rep.check(verdict.empty(), where + ": " + verdict);
                    if (rep_i == 0)
                        expected_[i][size_t(cmd)] = out;
                    else
                        rep.check(out == expected_[i][size_t(cmd)],
                                  where + ": output changed between "
                                          "passes");
                }
            }
            rep.setupS.push_back(passS);
        }

        // Cover and trace agree across backends, and the composed
        // pipeline the traced run uses matches the library entry points.
        tally.cycles = 0;
        for (size_t i = 0; i < cases_.size(); ++i) {
            for (Cmd cmd : {Cmd::Cover, Cmd::Trace}) {
                const Output &want = expected_[i][size_t(cmd)];
                std::string where = cases_[i].label + " " + cmdName(cmd);
                try {
                    Output composed =
                        runCommand(cases_[i], cmd, true, cli_, &tally);
                    rep.check(composed == want,
                              where + ": composed pipeline differs "
                                      "from the library entry point");
                    Output other = runCommand(cases_[i], cmd, false,
                                              other_);
                    rep.check(withoutBackend(other) ==
                                  withoutBackend(want),
                              where + ": output differs across "
                                      "backends");
                } catch (const std::exception &err) {
                    rep.check(false, where + ": " + err.what());
                }
            }
        }
        rep.values["lint.diags"] = double(tally.lintDiags);
        rep.values["analyze.diags"] = double(tally.analyzeDiags);
        rep.values["core.generated_lines"] = double(tally.generatedLines);
        rep.values["sim.cycles"] = double(tally.cycles);
    }

    void measure(double seconds, bool traced, Report &rep) override
    {
        std::vector<std::pair<size_t, Cmd>> ops;
        for (size_t i = 0; i < cases_.size(); ++i)
            for (Cmd cmd : kCmds)
                ops.emplace_back(i, cmd);
        // p99 with ten samples beyond it needs 1000 commands.
        const size_t minOps = traced ? 0 : 1000;
        size_t done = 0;
        auto t0 = Clock::now();
        do {
            shuffle(ops, rng_);
            for (const auto &[i, cmd] : ops) {
                Output out;
                std::string error;
                auto start = Clock::now();
                try {
                    obs::ObsSpan span("bench:op");
                    out = runCommand(cases_[i], cmd, traced, cli_);
                } catch (const std::exception &err) {
                    error = err.what();
                }
                double us = microsSince(start);
                rep.samples["op"].add(us);
                rep.samples[cmdName(cmd)].add(us);
                if (error.empty() && !(out == expected_[i][size_t(cmd)]))
                    error = "output differs from set-up";
                rep.check(error.empty(), cases_[i].label + " " +
                                             cmdName(cmd) + ": " + error);
            }
            done += ops.size();
        } while (secondsSince(t0) < seconds || done < minOps);
        rep.measureS += secondsSince(t0);
    }

  private:
    Options opts_;
    Rng rng_{opts_.seed ^ 0x7465737462656e63ULL};
    /** The CLI's default engine, and the other one. */
    sim::BackendFactory cli_, other_;
    std::vector<Case> cases_;
    /** Each case's outputs, by command, from the first set-up pass. */
    std::vector<std::array<Output, kCmds.size()>> expected_;
};

} // namespace

std::unique_ptr<Workload>
makeTestbedCli(const Options &opts)
{
    return std::make_unique<TestbedCli>(opts);
}

} // namespace perfbench
