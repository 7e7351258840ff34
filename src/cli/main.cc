/**
 * @file
 * hwdbg command-line driver.
 *
 * Exposes the library's debugging tools over Verilog files:
 *
 *   hwdbg parse      <file> [--top M] [--define NAME]...
 *   hwdbg lint       <file> [--top M] [--format text|json]
 *                    [--rule ID]...
 *   hwdbg analyze    <file|--bug ID> [--pass LIST]
 *                    [--format text|json] [--out FILE]
 *   hwdbg fsm        <file> [--top M]
 *   hwdbg deps       <file> --var V [--cycles K] [--top M]
 *   hwdbg signalcat  <file> [--depth N] [--arm SIG] [--stop SIG]
 *                    [--pre-trigger] [--top M]
 *   hwdbg losscheck  <file> --source S --valid V --sink K [--top M]
 *   hwdbg resources  <file> [--platform HARP|KC705] [--top M]
 *   hwdbg timing     <file> [--target MHZ] [--top M]
 *   hwdbg testbed    list | emit <bug-id> [--fixed]
 *   hwdbg profile    <file> [--cycles N] [--seed S] [--rank time|evals]
 *   hwdbg cover      <file|--bug ID> [--out F] | cover merge <f>...
 *   hwdbg trace      <file|--bug ID> [--signals G] [--trigger E]
 *                    [--budget N] [--vcd F] [--out F]
 *   hwdbg obscheck   <file>...
 *   hwdbg debug      <file|--bug ID> [--machine] [--script FILE] ...
 *   hwdbg serve      [--port N | --connect N] [--script FILE]
 *   hwdbg version    (also --version)
 *   hwdbg help       [command]
 *
 * The command table below (kCommands) is the single source of truth for
 * the top-level usage() listing and for `hwdbg help <command>`, so the
 * help text can no longer drift from the dispatch table.
 *
 * Instrumentation commands print the instrumented Verilog on stdout so
 * it can be fed to a simulator or synthesis flow.
 *
 * Global options, valid with every command: --trace FILE records a
 * Chrome trace of the run, --metrics FILE snapshots the metrics
 * registry, --quiet silences warn()/inform().
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/fsm_detect.hh"
#include "analyze/analyze.hh"
#include "bugbase/designs.hh"
#include "bugbase/testbed.hh"
#include "common/logging.hh"
#include "compile/backend.hh"
#include "core/dep_monitor.hh"
#include "core/fsm_monitor.hh"
#include "core/losscheck.hh"
#include "core/signalcat.hh"
#include "cover/report.hh"
#include "cover/run.hh"
#include "cover/snapshot.hh"
#include "debug/engine.hh"
#include "debug/protocol.hh"
#include "debug/repl.hh"
#include "debug/workload.hh"
#include "hdl/parser.hh"
#include "hdl/preproc.hh"
#include "fuzz/runner.hh"
#include "hdl/printer.hh"
#include "lint/lint.hh"
#include "obs/json.hh"
#include "obs/jsoncheck.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/monitor.hh"
#include "serve/server.hh"
#include "serve/stats.hh"
#include "sim/profiler.hh"
#include "synth/platform.hh"
#include "trace/json.hh"
#include "trace/run.hh"
#include "trace/vcd.hh"
#include "synth/resources.hh"
#include "synth/timing.hh"

using namespace hwdbg;

namespace
{

struct Args
{
    std::string command;
    std::string file;
    std::map<std::string, std::string> options;
    std::vector<std::string> positional;
    std::map<std::string, std::string> defines;
    std::vector<std::string> rules;
    std::vector<std::string> oracles;
    bool flag(const std::string &name) const
    {
        return options.count(name) != 0;
    }
    std::string
    opt(const std::string &name, const std::string &def = "") const
    {
        auto it = options.find(name);
        return it == options.end() ? def : it->second;
    }
};

/**
 * One row per CLI command: the usage()/`hwdbg help` text and the
 * handler live side by side so they cannot drift apart.
 */
struct Command
{
    const char *name;
    /** One-line synopsis shown in the top-level listing. */
    const char *synopsis;
    /** One-line description shown in the top-level listing. */
    const char *summary;
    /** Full option/semantics text for `hwdbg help <command>`. */
    const char *detail;
    int (*fn)(const Args &);
};

const std::vector<Command> &commands();

const Command *
findCommand(const std::string &name)
{
    for (const auto &cmd : commands())
        if (name == cmd.name)
            return &cmd;
    return nullptr;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr, "usage: hwdbg <command> [options]\n\n"
                         "commands:\n");
    for (const auto &cmd : commands())
        std::fprintf(stderr, "  %-34s %s\n", cmd.synopsis, cmd.summary);
    std::fprintf(stderr,
        "\n"
        "'hwdbg help <command>' shows every option of one command.\n"
        "\n"
        "common options (valid with every command):\n"
        "  --top M          top module (default: the only/first one)\n"
        "  --define NAME    preprocessor define (repeatable)\n"
        "  --trace FILE     write a Chrome/Perfetto trace of this run\n"
        "  --metrics FILE   write a metrics snapshot (.json or text)\n"
        "  --quiet          silence warn()/inform() messages\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    if (argc < 2)
        usage();
    args.command = argv[1];
    if (args.command == "--version")
        args.command = "version";
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) {
            std::string name = arg.substr(2);
            bool takes_value =
                name == "top" || name == "var" || name == "cycles" ||
                name == "depth" || name == "arm" || name == "stop" ||
                name == "source" || name == "valid" || name == "sink" ||
                name == "platform" || name == "target" ||
                name == "define" || name == "format" ||
                name == "rule" || name == "seeds" ||
                name == "start" || name == "jobs" ||
                name == "oracle" || name == "replay" ||
                name == "trace" || name == "metrics" ||
                name == "seed" || name == "rank" ||
                name == "limit" || name == "signals" ||
                name == "bug" || name == "script" ||
                name == "stimulus" || name == "dep" ||
                name == "backend" ||
                name == "trigger" || name == "budget" ||
                name == "pre" || name == "vcd" ||
                name == "loss" || name == "checkpoint-interval" ||
                name == "checkpoint-capacity" || name == "out" ||
                name == "cover-plateau" || name == "pass" ||
                name == "race-chance" || name == "port" ||
                name == "connect" || name == "slow-us" ||
                name == "reqlog" || name == "interval" ||
                name == "iterations";
            std::string value;
            if (takes_value) {
                if (i + 1 >= argc)
                    fatal("option --%s needs a value", name.c_str());
                value = argv[++i];
            }
            if (name == "define")
                args.defines[value] = "";
            else if (name == "rule")
                args.rules.push_back(value);
            else if (name == "oracle")
                args.oracles.push_back(value);
            else
                args.options[name] = value;
        } else if (args.file.empty() && args.command != "testbed" &&
                   args.command != "fuzz" &&
                   args.command != "obscheck" &&
                   args.command != "help") {
            args.file = arg;
        } else {
            args.positional.push_back(arg);
        }
    }
    return args;
}

/** The design named by <file> [--top M] [--define NAME]... */
debug::WorkloadSpec
fileSpec(const Args &args)
{
    if (args.file.empty())
        fatal("no input file (see 'hwdbg' for usage)");
    debug::WorkloadSpec spec;
    spec.file = args.file;
    spec.top = args.opt("top");
    spec.defines = args.defines;
    return spec;
}

/** fileSpec, or the testbed bug named by --bug ID [--fixed], plus an
 *  optional --stimulus FILE. */
debug::WorkloadSpec
workloadSpec(const Args &args)
{
    debug::WorkloadSpec spec;
    spec.bug = args.opt("bug");
    spec.buggy = !args.flag("fixed");
    if (spec.bug.empty())
        spec = fileSpec(args);
    spec.stimulus = args.opt("stimulus");
    return spec;
}

debug::Workload
load(const Args &args)
{
    return debug::buildWorkload(fileSpec(args));
}

/** --format: true for json, false for text (the default). */
bool
jsonFormat(const Args &args)
{
    std::string format = args.opt("format", "text");
    if (format != "text" && format != "json")
        fatal("unknown format '%s' (expected text or json)",
              format.c_str());
    return format == "json";
}

sim::BackendFactory
backendOf(const Args &args)
{
    return compile::backendByName(args.opt("backend", "interp"));
}

int
cmdParse(const Args &args)
{
    hdl::Design design = hdl::parseWithDefines(
        readFileOrFatal(args.file), args.defines, args.file);
    std::fputs(hdl::printDesign(design).c_str(), stdout);
    return 0;
}

int
cmdLint(const Args &args)
{
    lint::LintOptions opts;
    opts.rules.insert(args.rules.begin(), args.rules.end());
    auto diags = lint::runLint(*load(args).base, opts);
    bool json = jsonFormat(args);
    std::fputs((json ? lint::renderJson(diags) : lint::renderText(diags))
                   .c_str(),
               stdout);
    if (!json)
        std::fprintf(stderr, "lint: %zu diagnostic%s\n", diags.size(),
                     diags.size() == 1 ? "" : "s");
    return lint::hasErrors(diags) ? 1 : 0;
}

int
cmdAnalyze(const Args &args)
{
    hdl::ModulePtr mod = debug::buildWorkload(workloadSpec(args)).base;

    analyze::AnalyzeOptions opts;
    for (const auto &id : splitCsv(args.opt("pass"))) {
        if (!analyze::passById(id)) {
            std::string known;
            for (const auto &pass : analyze::analyzePasses())
                known += (known.empty() ? "" : ", ") + pass.id;
            fatal("unknown analyze pass '%s' (%s)", id.c_str(),
                  known.c_str());
        }
        opts.passes.insert(id);
    }
    std::vector<std::string> ran = analyze::selectedPasses(opts);

    auto diags = analyze::runAnalyze(*mod, opts);
    if (!args.opt("out").empty())
        writeFileOrFatal(args.opt("out"),
                         analyze::renderAnalyzeJson(ran, diags));
    if (jsonFormat(args)) {
        std::fputs(analyze::renderAnalyzeJson(ran, diags).c_str(),
                   stdout);
    } else {
        std::fputs(lint::renderText(diags).c_str(), stdout);
        std::fprintf(stderr, "analyze: %zu diagnostic%s\n",
                     diags.size(), diags.size() == 1 ? "" : "s");
    }
    return lint::hasErrors(diags) ? 1 : 0;
}

int
cmdFsm(const Args &args)
{
    auto elaborated = load(args);
    auto fsms = analysis::detectFsms(*elaborated.base);
    if (fsms.empty()) {
        std::printf("no state machines detected\n");
        return 0;
    }
    for (const auto &fsm : fsms) {
        std::printf("FSM %s (clock %s, %zu states)\n",
                    fsm.stateVar.c_str(), fsm.clock.c_str(),
                    fsm.states.size());
        for (const auto &trans : fsm.transitions) {
            std::string from =
                trans.fromState
                    ? core::stateName(fsm.stateVar,
                                      trans.fromState->toU64(),
                                      elaborated.constants)
                    : std::string("*");
            std::printf("  %s -> %s when %s\n", from.c_str(),
                        core::stateName(fsm.stateVar,
                                        trans.toState.toU64(),
                                        elaborated.constants).c_str(),
                        hdl::printExpr(trans.cond).c_str());
        }
    }
    return 0;
}

int
cmdDeps(const Args &args)
{
    auto elaborated = load(args);
    core::DepMonitorOptions opts;
    opts.variable = args.opt("var");
    if (opts.variable.empty())
        fatal("deps requires --var");
    opts.cycles = std::atoi(args.opt("cycles", "4").c_str());
    auto result = core::applyDepMonitor(*elaborated.base, opts);
    std::printf("dependency chain of %s (within %d cycles):\n",
                opts.variable.c_str(), opts.cycles);
    for (const auto &[reg, dist] : result.chain)
        std::printf("  %-24s %d cycle%s away\n", reg.c_str(), dist,
                    dist == 1 ? "" : "s");
    std::printf("\n// instrumented design (%d generated lines):\n",
                result.generatedLines);
    std::fputs(hdl::printModule(*result.module).c_str(), stdout);
    return 0;
}

int
cmdSignalcat(const Args &args)
{
    auto elaborated = load(args);
    core::SignalCatOptions opts;
    opts.bufferDepth = static_cast<uint32_t>(
        std::atoi(args.opt("depth", "8192").c_str()));
    opts.armSignal = args.opt("arm");
    opts.stopSignal = args.opt("stop");
    opts.preTrigger = args.flag("pre-trigger");
    auto result = core::applySignalCat(*elaborated.base, opts);
    std::fprintf(stderr,
                 "signalcat: %zu statements, %u-bit entries, %d "
                 "generated lines\n",
                 result.plan.statements.size(), result.plan.entryWidth,
                 result.generatedLines);
    std::fputs(hdl::printModule(*result.module).c_str(), stdout);
    return 0;
}

int
cmdLosscheck(const Args &args)
{
    auto elaborated = load(args);
    core::LossCheckOptions opts;
    opts.source = args.opt("source");
    opts.sourceValid = args.opt("valid");
    opts.sink = args.opt("sink");
    if (opts.source.empty() || opts.sourceValid.empty() ||
        opts.sink.empty())
        fatal("losscheck requires --source, --valid, and --sink");
    auto result = core::applyLossCheck(*elaborated.base, opts);
    std::fprintf(stderr, "losscheck: path {");
    for (const auto &name : result.onPath)
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, " }, %zu instrumented registers, %d "
                 "generated lines\n",
                 result.instrumented.size(), result.generatedLines);
    std::fputs(hdl::printModule(*result.module).c_str(), stdout);
    return 0;
}

int
cmdResources(const Args &args)
{
    auto elaborated = load(args);
    synth::ResourceUsage usage =
        synth::estimateResources(*elaborated.base);
    const synth::Platform &platform =
        synth::platformByName(args.opt("platform", "KC705"));
    synth::NormalizedUsage pct = synth::normalize(usage, platform);
    std::printf("block RAM : %.0f bits (%.4f%% of %s)\n",
                usage.bramBits, pct.bramPct, platform.name.c_str());
    std::printf("registers : %llu (%.4f%%)\n",
                (unsigned long long)usage.registers, pct.registersPct);
    std::printf("logic     : %llu (%.4f%%)\n",
                (unsigned long long)usage.logic, pct.logicPct);
    return 0;
}

int
cmdTiming(const Args &args)
{
    auto elaborated = load(args);
    synth::TimingReport report =
        synth::estimateTiming(*elaborated.base);
    std::printf("critical path : %.3f ns (through %s)\n",
                report.criticalPathNs, report.criticalSignal.c_str());
    std::printf("Fmax          : %.1f MHz\n", report.fmaxMhz);
    std::string target = args.opt("target");
    if (!target.empty()) {
        double mhz = std::atof(target.c_str());
        std::printf("target %.0f MHz : %s\n", mhz,
                    synth::meetsTarget(report, mhz) ? "met" : "MISSED");
        return synth::meetsTarget(report, mhz) ? 0 : 1;
    }
    return 0;
}

int
cmdTestbed(const Args &args)
{
    if (args.positional.empty())
        fatal("testbed requires 'list' or 'emit <id>'");
    if (args.positional[0] == "list") {
        for (const auto &bug : bugs::testbedBugs())
            std::printf("%-4s %-27s %-22s %-8s %s\n", bug.id.c_str(),
                        bug.subclass.c_str(), bug.application.c_str(),
                        bug.platform.c_str(),
                        bug.rootCauseNote.c_str());
        return 0;
    }
    if (args.positional[0] == "emit") {
        if (args.positional.size() < 2)
            fatal("testbed emit requires a bug id");
        const auto &bug = bugs::bugById(args.positional[1]);
        std::map<std::string, std::string> defines;
        if (!args.flag("fixed"))
            defines[bug.bugDefine] = "";
        std::fputs(hdl::preprocess(bugs::designSource(bug.designName),
                                   defines, bug.designName + ".v")
                       .c_str(),
                   stdout);
        return 0;
    }
    fatal("unknown testbed subcommand '%s'",
          args.positional[0].c_str());
}

int
cmdFuzz(const Args &args)
{
    fuzz::FuzzConfig config;
    config.seeds = parseU64(args.opt("seeds", "100"), "--seeds");
    config.start = parseU64(args.opt("start", "0"), "--start");
    config.jobs = static_cast<uint32_t>(
        parseU64(args.opt("jobs", "1"), "--jobs"));
    config.cycles = static_cast<uint32_t>(
        parseU64(args.opt("cycles", "24"), "--cycles"));
    config.raceChance = static_cast<uint32_t>(
        parseU64(args.opt("race-chance", "0"), "--race-chance"));
    if (config.raceChance > 100)
        fatal("--race-chance is a percentage (0-100)");
    if (!args.oracles.empty()) {
        config.mask = 0;
        for (const auto &name : args.oracles) {
            if (name == "all") {
                config.mask |= (1u << fuzz::kOracleCount) - 1;
                continue;
            }
            fuzz::Oracle oracle;
            if (!fuzz::oracleFromName(name, &oracle))
                fatal("unknown oracle '%s' (roundtrip, differential, "
                      "lint, instrument, order, xbackend, xtrace, or "
                      "all)",
                      name.c_str());
            config.mask |= fuzz::oracleBit(oracle);
        }
    }
    config.backend = backendOf(args);
    config.json = jsonFormat(args);
    config.selfCheck = args.flag("self-check");
    config.cover = args.flag("cover");
    config.coverPlateau = static_cast<uint32_t>(parseU64(
        args.opt("cover-plateau", "32"), "--cover-plateau"));
    if (config.cover && config.selfCheck)
        fatal("--cover applies to campaigns, not --self-check");
    if (args.options.count("replay")) {
        config.replay = true;
        config.replaySeed = parseU64(args.opt("replay"), "--replay");
    }
    return fuzz::fuzzMain(config);
}

int
cmdProfile(const Args &args)
{
    sim::ProfileOptions opts;
    opts.cycles = static_cast<uint32_t>(
        parseU64(args.opt("cycles", "2000"), "--cycles"));
    opts.seed = parseU64(args.opt("seed", "1"), "--seed");
    std::string rank = args.opt("rank", "time");
    if (rank == "time")
        opts.rank = sim::ProfileOptions::Rank::Time;
    else if (rank == "evals")
        opts.rank = sim::ProfileOptions::Rank::Evals;
    else
        fatal("unknown rank '%s' (expected time or evals)",
              rank.c_str());
    opts.limit = static_cast<uint32_t>(
        parseU64(args.opt("limit", "20"), "--limit"));
    opts.signalLimit = static_cast<uint32_t>(
        parseU64(args.opt("signals", "10"), "--signals"));
    opts.backend = backendOf(args);
    sim::ProfileReport report =
        sim::profileDesign(load(args).base, opts);
    std::fputs((jsonFormat(args) ? sim::renderProfileJson(report, opts)
                                 : sim::renderProfileText(report, opts))
                   .c_str(),
               stdout);
    return 0;
}

int
cmdDebug(const Args &args)
{
    debug::WorkloadSpec spec = workloadSpec(args);
    if (spec.bug.empty() && spec.stimulus.empty())
        fatal("debug requires --bug ID or --stimulus FILE "
              "(the replayable input source)");
    spec.instrument = true;
    spec.fsm = args.flag("fsm");
    if (args.options.count("dep")) {
        std::string dep = args.opt("dep");
        auto colon = dep.rfind(':');
        if (colon != std::string::npos) {
            spec.depCycles = static_cast<int>(
                parseU64(dep.substr(colon + 1), "--dep cycle count"));
            dep = dep.substr(0, colon);
        }
        spec.depVariable = dep;
    }
    if (args.options.count("loss")) {
        std::string loss = args.opt("loss");
        auto c1 = loss.find(':');
        auto c2 = c1 == std::string::npos ? c1 : loss.find(':', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos)
            fatal("--loss expects SOURCE:VALID:SINK");
        core::LossCheckOptions lc;
        lc.source = loss.substr(0, c1);
        lc.sourceValid = loss.substr(c1 + 1, c2 - c1 - 1);
        lc.sink = loss.substr(c2 + 1);
        spec.lossCheck = lc;
    }
    debug::Workload w = debug::buildWorkload(spec);

    debug::EngineOptions eopts;
    eopts.checkpointInterval =
        parseU64(args.opt("checkpoint-interval", "128"),
                 "--checkpoint-interval");
    eopts.checkpointCapacity = static_cast<size_t>(
        parseU64(args.opt("checkpoint-capacity", "64"),
                 "--checkpoint-capacity"));
    eopts.constants = w.constants;
    eopts.backend = backendOf(args);
    debug::Engine engine(w.instrumented, w.tape, eopts);

    debug::SessionOptions sopts;
    sopts.machine = args.flag("machine");
    std::string script = args.opt("script");
    if (!script.empty()) {
        std::istringstream in(readFileOrFatal(script));
        sopts.echo = !sopts.machine;
        return debug::runSession(engine, in, std::cout, sopts) ? 1 : 0;
    }
    debug::runSession(engine, std::cin, std::cout, sopts);
    return 0;
}

int
cmdServe(const Args &args)
{
    std::string script = args.opt("script");

    if (args.options.count("connect")) {
        uint16_t port = static_cast<uint16_t>(
            parseU64(args.opt("connect"), "--connect"));
        if (args.flag("monitor")) {
            serve::TopOptions topts;
            topts.intervalMs =
                parseU64(args.opt("interval", "1000"), "--interval");
            topts.iterations =
                parseU64(args.opt("iterations", "0"), "--iterations");
            topts.clear = !args.flag("no-clear");
            return serve::runTop(port, topts, std::cout);
        }
        if (script.empty())
            return serve::runClient(port, std::cin, std::cout) ? 1 : 0;
        std::istringstream in(readFileOrFatal(script));
        return serve::runClient(port, in, std::cout) ? 1 : 0;
    }

    serve::ServerOptions sopts;
    sopts.checkpointInterval =
        parseU64(args.opt("checkpoint-interval", "128"),
                 "--checkpoint-interval");
    sopts.checkpointCapacity = static_cast<size_t>(
        parseU64(args.opt("checkpoint-capacity", "64"),
                 "--checkpoint-capacity"));
    sopts.telemetry = !args.flag("no-telemetry");
    sopts.slowThresholdUs =
        parseU64(args.opt("slow-us", "100000"), "--slow-us");
    sopts.reqlogPath = args.opt("reqlog");
    serve::Server server(sopts);

    if (args.options.count("port")) {
        uint16_t port = static_cast<uint16_t>(
            parseU64(args.opt("port"), "--port"));
        uint16_t bound = server.listenTcp(port);
        // Announce on stderr so per-channel stdout stays clean.
        std::fprintf(stderr, "hwdbg serve: listening on 127.0.0.1:%u\n",
                     unsigned(bound));
        return server.acceptLoop() ? 1 : 0;
    }
    if (!script.empty()) {
        std::istringstream in(readFileOrFatal(script));
        return server.runChannel(in, std::cout) ? 1 : 0;
    }
    return server.runChannel(std::cin, std::cout) ? 1 : 0;
}

/** The workload's own stimulus (--bug or --stimulus), else seeded random
 *  input from --seed S --cycles N. */
sim::Stimulus
oneShotStimulus(const Args &args, const debug::Workload &w)
{
    if (w.stimulus)
        return *w.stimulus;
    return sim::Stimulus::random(
        parseU64(args.opt("seed", "1"), "--seed"),
        static_cast<uint32_t>(
            parseU64(args.opt("cycles", "2000"), "--cycles")));
}

cover::Snapshot
parseCoverageFile(const std::string &path)
{
    cover::Snapshot snap;
    std::string error;
    if (!cover::parseSnapshot(readFileOrFatal(path), &snap, &error))
        fatal("%s: not a coverage file: %s", path.c_str(),
              error.c_str());
    return snap;
}

int
cmdCoverMerge(const Args &args)
{
    if (args.positional.empty())
        fatal("cover merge requires at least one coverage file");
    cover::Snapshot merged = parseCoverageFile(args.positional[0]);
    for (size_t i = 1; i < args.positional.size(); ++i) {
        cover::Snapshot next = parseCoverageFile(args.positional[i]);
        std::string error = cover::mergeInto(merged, next);
        if (!error.empty())
            fatal("cannot merge '%s': %s",
                  args.positional[i].c_str(), error.c_str());
    }
    std::string json = cover::toJson(merged);
    std::string out = args.opt("out");
    if (out.empty()) {
        std::fputs(json.c_str(), stdout);
        return 0;
    }
    writeFileOrFatal(out, json);
    std::fprintf(stderr, "cover: merged %zu file%s into %s\n",
                 args.positional.size(),
                 args.positional.size() == 1 ? "" : "s", out.c_str());
    return 0;
}

int
cmdCover(const Args &args)
{
    if (args.file == "merge")
        return cmdCoverMerge(args);
    debug::Workload w = debug::buildWorkload(workloadSpec(args));

    cover::Snapshot snap = cover::coverDesign(
        w.base, oneShotStimulus(args, w), backendOf(args));
    if (!args.opt("out").empty())
        writeFileOrFatal(args.opt("out"), cover::toJson(snap));
    std::fputs((jsonFormat(args) ? cover::toJson(snap)
                                 : cover::renderCoverText(snap))
                   .c_str(),
               stdout);
    return 0;
}

std::string
renderTraceText(const trace::TraceDump &dump)
{
    std::ostringstream out;
    out << "trace of " << dump.top << " (" << dump.workload << ", "
        << dump.backend << ")\n";
    out << "  signals:  " << dump.signals.size() << " traced, "
        << dump.rowBytes << " bytes/row\n";
    out << "  window:   " << dump.rows.size() << "/" << dump.depth
        << " rows";
    if (dump.armed)
        out << " (" << dump.preDepth << " pre + " << dump.postDepth
            << " post)";
    out << "\n";
    if (dump.armed) {
        if (dump.fired)
            out << "  trigger:  fired at cycle " << dump.triggerCycle
                << " (eval " << dump.triggerSeq << ", "
                << dump.triggerFires << " fire"
                << (dump.triggerFires == 1 ? "" : "s") << " total)\n";
        else
            out << "  trigger:  armed, never fired\n";
    }
    out << "  capture:  " << dump.samples << " change rows, "
        << dump.drops << " dropped\n";
    if (!dump.rows.empty())
        out << "  span:     cycle " << dump.rows.front().cycle << " .. "
            << dump.rows.back().cycle << "\n";
    return out.str();
}

int
cmdTrace(const Args &args)
{
    trace::TraceConfig cfg;
    cfg.signals = splitCsv(args.opt("signals"));
    cfg.trigger = args.opt("trigger");
    cfg.budgetBytes = parseU64(args.opt("budget", "4096"), "--budget");
    cfg.prePct = static_cast<uint32_t>(
        parseU64(args.opt("pre", "50"), "--pre"));
    if (cfg.prePct > 100)
        fatal("--pre is a percentage (0-100)");

    debug::Workload w = debug::buildWorkload(workloadSpec(args));
    trace::TraceDump dump = trace::traceDesign(
        w.base, oneShotStimulus(args, w), cfg, backendOf(args));
    if (!args.opt("out").empty())
        writeFileOrFatal(args.opt("out"), trace::toJson(dump));
    if (!args.opt("vcd").empty())
        writeFileOrFatal(args.opt("vcd"), trace::renderVcd(dump));
    std::fputs((jsonFormat(args) ? trace::toJson(dump)
                                 : renderTraceText(dump))
                   .c_str(),
               stdout);
    return 0;
}

int
cmdVersion(const Args &)
{
    const obs::BuildInfo &build = obs::buildInfo();
    std::printf("hwdbg %s (%s, %s)\n", build.version.c_str(),
                build.git.c_str(), build.buildType.c_str());
    return 0;
}

int
cmdHelp(const Args &args)
{
    const std::vector<std::string> &names = args.positional;
    if (names.empty())
        usage();
    const Command *cmd = findCommand(names[0]);
    if (!cmd)
        fatal("unknown command '%s' (run 'hwdbg' for the list)",
              names[0].c_str());
    std::printf("usage: hwdbg %s\n\n%s\n\n%s", cmd->synopsis,
                cmd->summary, cmd->detail);
    return 0;
}

int
cmdObscheck(const Args &args)
{
    std::vector<std::string> files = args.positional;
    if (!args.file.empty())
        files.insert(files.begin(), args.file);
    if (files.empty())
        fatal("obscheck requires at least one file");
    int rc = 0;
    for (const auto &path : files) {
        std::string text = readFileOrFatal(path);
        // Sniff the snapshot kind from the content so one command
        // covers --trace, --metrics, and debug --machine output.
        // Debug transcripts are JSON-lines: detect them by the hello
        // object on the first line before whole-file parsing.
        std::string firstLine = text.substr(0, text.find('\n'));
        std::string error;
        std::string verdict;
        const char *kind = "metrics";
        obs::JsonPtr hello = obs::parseJson(firstLine, &error);
        std::string proto;
        if (hello && hello->isObject() && hello->get("proto") &&
            hello->get("proto")->isString())
            proto = hello->get("proto")->text;
        if (proto == "hwdbg-debug" || proto == "hwdbg-serve") {
            if (proto == "hwdbg-debug") {
                kind = "debug transcript";
                verdict = debug::checkDebugTranscript(text);
            } else {
                kind = "serve transcript";
                verdict = serve::checkServeTranscript(text);
            }
            if (verdict.empty()) {
                std::printf("%s: ok (%s)\n", path.c_str(), kind);
            } else {
                std::printf("%s: INVALID: %s\n", path.c_str(),
                            verdict.c_str());
                rc = 1;
            }
            continue;
        }
        obs::JsonPtr root = obs::parseJson(text, &error);
        if (!root) {
            verdict = error;
        } else if (root->isObject() && root->get("traceEvents")) {
            kind = "trace";
            verdict = obs::checkTraceJson(text);
        } else if (root->isObject() && root->get("format") &&
                   root->get("format")->isString() &&
                   root->get("format")->text == "hwdbg-cover") {
            kind = "coverage";
            verdict = cover::checkCoverageJson(text);
        } else if (root->isObject() && root->get("format") &&
                   root->get("format")->isString() &&
                   root->get("format")->text == "hwdbg-analyze") {
            kind = "analyze report";
            verdict = analyze::checkAnalyzeJson(text);
        } else if (root->isObject() && root->get("format") &&
                   root->get("format")->isString() &&
                   root->get("format")->text == "hwdbg-trace") {
            kind = "signal trace";
            verdict = trace::checkTraceDumpJson(text);
        } else if (root->isObject() && root->get("format") &&
                   root->get("format")->isString() &&
                   root->get("format")->text == "hwdbg-serve-stats") {
            kind = "serve stats";
            verdict = serve::checkServeStatsJson(text);
        } else {
            verdict = obs::checkMetricsJson(text);
        }
        if (verdict.empty()) {
            std::printf("%s: ok (%s)\n", path.c_str(), kind);
        } else {
            std::printf("%s: INVALID: %s\n", path.c_str(),
                        verdict.c_str());
            rc = 1;
        }
    }
    return rc;
}

const std::vector<Command> &
commands()
{
    static const std::vector<Command> table = {
        {"parse", "parse <file>", "check and pretty-print a design",
         "options:\n"
         "  --top M          top module (default: the only/first one)\n"
         "  --define NAME    preprocessor define (repeatable)\n",
         cmdParse},
        {"lint", "lint <file> [--format F] [--rule ID]...",
         "static bug-pattern check (exit 1 when errors)",
         "options:\n"
         "  --format text|json   diagnostic output format\n"
         "  --rule ID            only run the named rule (repeatable)\n",
         cmdLint},
        {"analyze",
         "analyze <file|--bug ID> [--pass LIST] [--format F]",
         "dataflow static analysis (exit 1 when errors)",
         "Computes whole-design dataflow facts (known-bits constant\n"
         "fixpoint, per-process must-assign CFG solutions, the signal\n"
         "dependency graph) and reports what they prove:\n"
         "  const   dead/constant guards, stuck outputs and bits,\n"
         "          dead signals\n"
         "  xinit   reads before any reachable assignment\n"
         "  race    scheduler-order-dependent blocking writes,\n"
         "          mixed and multi-process drivers\n"
         "  cdc     unsynchronized clock-domain crossings\n"
         "  loop    combinational loops (shared with lint)\n"
         "options:\n"
         "  --bug ID             analyze a testbed bug's design\n"
         "                       (--fixed for the fixed variant)\n"
         "  --pass LIST          comma-separated pass ids (default:\n"
         "                       all of const,xinit,race,cdc,loop)\n"
         "  --format text|json   output format (json is the versioned\n"
         "                       hwdbg-analyze report obscheck accepts)\n"
         "  --out FILE           also write the JSON report to FILE\n",
         cmdAnalyze},
        {"fsm", "fsm <file>", "detect state machines",
         "Prints each detected FSM with its clock, states, and guarded\n"
         "transitions (symbolic state names where parameters allow).\n",
         cmdFsm},
        {"deps", "deps <file> --var V [--cycles K]",
         "dependency chain of a variable",
         "options:\n"
         "  --var V       variable whose provenance is wanted\n"
         "  --cycles K    cycle horizon (default 4)\n"
         "Prints the chain, then the instrumented design on stdout.\n",
         cmdDeps},
        {"signalcat",
         "signalcat <file> [--depth N] [--arm S] [--stop S]",
         "convert $display to a recording IP",
         "options:\n"
         "  --depth N        recorder buffer depth (default 8192)\n"
         "  --arm SIG        start-event signal\n"
         "  --stop SIG       stop-event signal\n"
         "  --pre-trigger    ring buffer holding the last N entries\n",
         cmdSignalcat},
        {"losscheck", "losscheck <file> --source S --valid V --sink K",
         "instrument for data-loss localization",
         "options:\n"
         "  --source S    register/input carrying the tracked data\n"
         "  --valid V     valid signal qualifying the source\n"
         "  --sink K      register the data should reach\n",
         cmdLosscheck},
        {"resources", "resources <file> [--platform P]",
         "estimate FPGA resources",
         "options:\n"
         "  --platform HARP|KC705    normalization target (KC705)\n",
         cmdResources},
        {"timing", "timing <file> [--target MHZ]", "estimate Fmax",
         "options:\n"
         "  --target MHZ    exit 1 when the estimate misses it\n",
         cmdTiming},
        {"testbed", "testbed list | emit <id> [--fixed]",
         "the 20-bug reproduction testbed",
         "subcommands:\n"
         "  list         one line per bug with subclass and root cause\n"
         "  emit <id>    print the bug's design (--fixed for the fix)\n",
         cmdTestbed},
        {"fuzz", "fuzz [--seeds N] [--oracle NAME]...",
         "randomized differential testing (exit 1 on failure)",
         "options:\n"
         "  --seeds N / --start S    seed count and first seed\n"
         "  --jobs J                 worker threads\n"
         "  --cycles C               simulated cycles per seed\n"
         "  --oracle NAME            roundtrip, differential, lint,\n"
         "                           instrument, order, xbackend,\n"
         "                           xtrace, or all (repeatable; order,\n"
         "                           xbackend, and xtrace are opt-in:\n"
         "                           order re-runs each seed with\n"
         "                           reversed clocked-process order and\n"
         "                           cross-checks the analyze race\n"
         "                           pass, xbackend runs each seed on\n"
         "                           the interpreter and the compiled\n"
         "                           bytecode backend and diffs\n"
         "                           outputs, logs, and final state,\n"
         "                           xtrace attaches a trace recorder\n"
         "                           to both backends and diffs the\n"
         "                           rendered JSON and VCD dumps)\n"
         "  --backend B              interp or bytecode: execution\n"
         "                           backend for the campaign's own\n"
         "                           simulators (default interp)\n"
         "  --race-chance P          percent chance of the generator's\n"
         "                           scheduler-race template (default 0)\n"
         "  --replay SEED            re-run one seed verbosely\n"
         "  --self-check             corrupt a known design first\n"
         "  --cover                  track structural coverage keys\n"
         "                           per seed and report novelty\n"
         "  --cover-plateau K        declare a plateau after K seeds\n"
         "                           without new coverage (default 32)\n"
         "  --format text|json       report format\n",
         cmdFuzz},
        {"profile", "profile <file> [--cycles N] [--rank R]",
         "rank hot processes and signals under random stimulus",
         "options:\n"
         "  --cycles N           simulated cycles (default 2000)\n"
         "  --seed S             stimulus seed\n"
         "  --rank time|evals    ordering for the process table\n"
         "  --limit N            processes shown (default 20)\n"
         "  --signals N          signals shown (default 10)\n"
         "  --backend B          interp or bytecode (default interp);\n"
         "                       eval/toggle ranks are backend-\n"
         "                       independent, times are not\n"
         "  --format text|json   report format\n",
         cmdProfile},
        {"cover", "cover <file|--bug ID> | cover merge <f>...",
         "statement/branch/toggle/FSM coverage",
         "stimulus source (exactly one):\n"
         "  --bug ID             run the testbed bug's trigger workload\n"
         "                       (--fixed for the fixed design)\n"
         "  --stimulus FILE      replay a stimulus vector file\n"
         "  <file> alone         seeded random inputs (--cycles N,\n"
         "                       --seed S; defaults 2000 / 1)\n"
         "output:\n"
         "  --format text|json   report format (default text)\n"
         "  --out FILE           also write the coverage JSON to FILE\n"
         "  --backend B          interp or bytecode (default interp);\n"
         "                       coverage snapshots are identical\n"
         "merging:\n"
         "  cover merge <a.json> <b.json>... [--out FILE]\n"
         "                       union runs of the same design; the\n"
         "                       merge is associative and idempotent\n"
         "FSM state/arc coverage uses the detected state machines.\n",
         cmdCover},
        {"trace",
         "trace <file|--bug ID> [--signals G] [--trigger E] ...",
         "trigger-armed budgeted signal recording (ILA-style)",
         "stimulus source (exactly one):\n"
         "  --bug ID             run the testbed bug's trigger workload\n"
         "                       (--fixed for the fixed design)\n"
         "  --stimulus FILE      replay a stimulus vector file\n"
         "  <file> alone         seeded random inputs (--cycles N,\n"
         "                       --seed S; defaults 2000 / 1)\n"
         "recording:\n"
         "  --signals G1,G2      signal globs over the elaborated\n"
         "                       design ('*'/'?'; memories expand to\n"
         "                       name[i] words; default: everything)\n"
         "  --trigger EXPR       arm on a Verilog condition; fires on\n"
         "                       its rising edge, or on any change\n"
         "                       with a 'change:' prefix. Without a\n"
         "                       trigger the ring free-runs and keeps\n"
         "                       the last rows\n"
         "  --budget N           capture budget in bytes (default\n"
         "                       4096); ring depth = budget / row size\n"
         "  --pre P              percent of the ring kept as\n"
         "                       pre-trigger history (default 50)\n"
         "output:\n"
         "  --format text|json   report format (default text; json is\n"
         "                       the versioned hwdbg-trace dump\n"
         "                       obscheck accepts)\n"
         "  --out FILE           write the hwdbg-trace JSON to FILE\n"
         "  --vcd FILE           write the captured window as VCD\n"
         "  --backend B          interp or bytecode (default interp);\n"
         "                       dumps are byte-identical\n",
         cmdTrace},
        {"obscheck", "obscheck <file>...",
         "validate trace/metrics/coverage/analyze/debug files",
         "Sniffs each file's kind (Chrome trace, metrics snapshot,\n"
         "hwdbg-cover coverage file, hwdbg-analyze report, hwdbg-trace\n"
         "signal trace, hwdbg-serve-stats document, hwdbg-debug\n"
         "machine transcript, or hwdbg-serve server transcript) and\n"
         "checks it against the schema; exit 1 on the first violation\n"
         "per file.\n",
         cmdObscheck},
        {"debug", "debug <file|--bug ID> [--machine] [--script F]",
         "interactive time-travel debugger",
         "stimulus source (exactly one):\n"
         "  --bug ID             record the testbed bug's trigger\n"
         "                       workload (--fixed for the fixed design)\n"
         "  --stimulus FILE      replay a stimulus vector file: one\n"
         "                       line per eval step of signal=value\n"
         "                       tokens ('-' = empty step, '#' comment)\n"
         "monitors (default: the bug's own configuration):\n"
         "  --fsm                FSM Monitor events (fsm:<var>)\n"
         "  --dep VAR[:K]        Dependency Monitor events (dep:<var>)\n"
         "  --loss SRC:VALID:SINK   LossCheck events (loss:<reg>)\n"
         "session:\n"
         "  --machine            JSON-lines protocol on stdout\n"
         "  --script FILE        run commands from FILE, then exit\n"
         "                       (exit 1 when any command failed)\n"
         "  --backend B          interp or bytecode (default interp);\n"
         "                       sessions are transcript-identical\n"
         "  --checkpoint-interval N   steps between snapshots (128)\n"
         "  --checkpoint-capacity N   ring size (64)\n"
         "Inside the session, 'help' lists the debugger commands.\n",
         cmdDebug},
        {"serve", "serve [--port N | --connect N] [--script F]",
         "multi-session debug/analysis server (JSON-lines)",
         "Hosts many simultaneous sessions (debug, cover, trace,\n"
         "analyze) over the JSON-lines protocol, multiplexed by\n"
         "session id. Sessions attach through a shared design cache\n"
         "(parse + elaborate + instrument + record once per\n"
         "design and variant) and dedupe checkpoint snapshots\n"
         "content-addressed across sessions.\n"
         "transports:\n"
         "  (default)            one channel on stdin/stdout\n"
         "  --script FILE        drive the stdio channel from FILE\n"
         "                       (exit 1 when any command failed)\n"
         "  --port N             TCP listener on 127.0.0.1:N (0 picks\n"
         "                       a free port, printed on stderr); one\n"
         "                       concurrent channel per connection\n"
         "  --connect N          client mode: drive a running server\n"
         "                       at 127.0.0.1:N from --script/stdin\n"
         "server commands (one per line; 'help' lists them):\n"
         "  open <kind> bug=ID|file=PATH [fixed] [backend=B]\n"
         "       [stimulus=FILE] [out=FILE] [vcd=FILE] [signals=G]\n"
         "       [trigger=E] [budget=N] [passes=A,B] [top=M]\n"
         "  close <sid> | sessions | help | quit | shutdown\n"
         "  stats [out=FILE]     hwdbg-serve-stats v1 document: global\n"
         "                       request/error/slow counters, cache\n"
         "                       hit/miss/build-time, snapshot dedup,\n"
         "                       per-command latency p50/p95/p99, one\n"
         "                       row per session (obscheck validates)\n"
         "  health               liveness probe (status, sessions,\n"
         "                       requests, errors, uptime)\n"
         "  slow                 ring of requests at/over --slow-us\n"
         "session routing: JSON {\"session\":N,...} or a '@N' prefix\n"
         "sends a debugger command to session N (e.g. '@2 step 5');\n"
         "in client mode '@_' routes to the session this client most\n"
         "recently opened, so one script fits concurrent clients.\n"
         "telemetry: every request is logged (id, session, command,\n"
         "outcome, latency); with --trace each session gets a named\n"
         "Perfetto track with attach/build/command/snapshot spans.\n"
         "options:\n"
         "  --checkpoint-interval N   per-session snapshot cadence (128)\n"
         "  --checkpoint-capacity N   per-session ring size (64)\n"
         "  --slow-us N          slow-request threshold in µs (100000)\n"
         "  --reqlog FILE        spill every request event as one JSON\n"
         "                       line to FILE\n"
         "  --no-telemetry       disable the per-request log entirely\n"
         "client monitor (with --connect):\n"
         "  --monitor            poll `stats` and render a refreshing\n"
         "                       top-style table\n"
         "  --interval MS        poll period (default 1000)\n"
         "  --iterations N       frames to render (default 0 = run\n"
         "                       until the server exits)\n"
         "  --no-clear           do not clear the screen per frame\n",
         cmdServe},
        {"version", "version", "print build provenance",
         "Prints the hwdbg version, git hash, and build type — the\n"
         "same provenance stamped into every trace/metrics/coverage\n"
         "file. '--version' is an alias.\n",
         cmdVersion},
        {"help", "help [command]", "show command documentation",
         "Without arguments, prints the top-level usage; with a\n"
         "command name, prints that command's full option list.\n",
         cmdHelp},
    };
    return table;
}

int
dispatch(const Args &args)
{
    const Command *cmd = findCommand(args.command);
    if (!cmd)
        usage();
    return cmd->fn(args);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_path;
    std::string metrics_path;
    int rc;
    try {
        Args args = parseArgs(argc, argv);
        if (args.flag("quiet"))
            setQuiet(true);
        trace_path = args.opt("trace");
        metrics_path = args.opt("metrics");
        if (!trace_path.empty())
            obs::startTrace();
        if (!metrics_path.empty())
            obs::enableMetrics(true);
        rc = dispatch(args);
    } catch (const HdlError &err) {
        std::fprintf(stderr, "hwdbg: %s\n", err.what());
        rc = 1;
    }
    // Snapshots are written even when the command failed: the trace of
    // a failing run is exactly the one worth looking at.
    if (!trace_path.empty() && !obs::writeTrace(trace_path))
        rc = rc ? rc : 1;
    if (!metrics_path.empty() && !obs::writeMetrics(metrics_path))
        rc = rc ? rc : 1;
    return rc;
}
