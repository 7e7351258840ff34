#include "debug/engine.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "analysis/depgraph.hh"
#include "common/logging.hh"
#include "core/dep_monitor.hh"
#include "core/fsm_monitor.hh"
#include "cover/snapshot.hh"
#include "hdl/parser.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hwdbg::debug
{

InstrumentResult
instrumentForDebug(const hdl::Module &mod, const InstrumentConfig &cfg)
{
    obs::ObsSpan span("debug.instrument");
    InstrumentResult result;
    const hdl::Module *cur = &mod;
    hdl::ModulePtr owned;

    if (cfg.fsm) {
        core::FsmMonitorOptions opts;
        opts.constants = cfg.constants;
        auto fsm = core::applyFsmMonitor(*cur, opts);
        result.generatedLines += fsm.generatedLines;
        owned = fsm.module;
        cur = owned.get();
    }
    if (!cfg.depVariable.empty()) {
        core::DepMonitorOptions opts;
        opts.variable = cfg.depVariable;
        opts.cycles = cfg.depCycles;
        auto dep = core::applyDepMonitor(*cur, opts);
        result.generatedLines += dep.generatedLines;
        owned = dep.module;
        cur = owned.get();
    }
    if (cfg.lossCheck) {
        auto lc = core::applyLossCheck(*cur, *cfg.lossCheck);
        result.generatedLines += lc.generatedLines;
        owned = lc.module;
        cur = owned.get();
    }
    if (!owned)
        owned = hdl::cloneModule(mod);
    result.module = owned;
    return result;
}

sim::StimulusTape
loadStimulusFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open stimulus file '%s'", path.c_str());

    sim::StimulusTape tape;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream toks(line);
        std::string tok;
        sim::StimulusStep step;
        bool any = false;
        while (toks >> tok) {
            any = true;
            if (tok == "-")
                continue;
            auto eq = tok.find('=');
            if (eq == std::string::npos || eq == 0)
                fatal("%s:%d: expected signal=value, got '%s'",
                      path.c_str(), lineno, tok.c_str());
            Bits value;
            try {
                value = Bits::parseVerilog(tok.substr(eq + 1));
            } catch (const HdlError &err) {
                fatal("%s:%d: bad value in '%s': %s", path.c_str(), lineno,
                      tok.c_str(), err.what());
            }
            step.pokes.emplace_back(tok.substr(0, eq), value);
        }
        if (any)
            tape.steps.push_back(std::move(step));
    }
    return tape;
}

Engine::Engine(hdl::ModulePtr module,
               std::shared_ptr<const sim::StimulusTape> tape,
               EngineOptions opts)
    : sim_(std::move(module)), tape_(std::move(tape)),
      opts_(std::move(opts)),
      ring_(opts_.checkpointInterval, opts_.checkpointCapacity,
            opts_.snapshots)
{
    if (!tape_)
        tape_ = std::make_shared<const sim::StimulusTape>();
    if (opts_.backend)
        sim_.setBackend(opts_.backend);
    ring_.saveInitial(sim_);
    coverItems_ = sim::buildCoverageItems(
        sim_.design(), cover::fsmSpecsFor(sim_.design().module()));
    cover_ = std::make_unique<sim::CoverageCollector>(coverItems_);
    sim_.enableCoverage(cover_.get());
}

Engine::Engine(hdl::ModulePtr module, sim::StimulusTape tape,
               EngineOptions opts)
    : Engine(std::move(module),
             std::make_shared<const sim::StimulusTape>(std::move(tape)),
             std::move(opts))
{
}

Engine::~Engine() = default;

void
Engine::recordStart(const trace::TraceConfig &cfg)
{
    if (recording())
        fatal("record: already recording (record stop first)");
    recorder_ = std::make_unique<trace::TraceRecorder>(sim_, cfg);
    recorder_->attach();
    HWDBG_STAT_INC("debug.record.starts", 1);
}

void
Engine::recordStop()
{
    if (!recording())
        fatal("record: not recording");
    recorder_->detach();
}

trace::TraceDump
Engine::recordDump() const
{
    if (!recorder_)
        fatal("record: nothing recorded (record start first)");
    return recorder_->dump("debug:" + sim_.design().module().name);
}

Engine::CoverageSummary
Engine::coverageSummary()
{
    CoverageSummary summary;
    summary.totals = cover_->totals();
    uint64_t covered = summary.totals.covered();
    summary.newlyCovered = covered - lastCovered_;
    lastCovered_ = covered;
    return summary;
}

uint64_t
Engine::cycle() const
{
    return sim_.cycle();
}

bool
Engine::finished() const
{
    return sim_.finished();
}

uint64_t
Engine::cycleAtPos(uint64_t position) const
{
    return position == 0 ? 0 : cycleAt_[position - 1];
}

std::vector<DebugEvent>
Engine::eventsFromLog(size_t log_from) const
{
    const auto &log = sim_.log();
    std::vector<sim::EvalContext::LogLine> delta(log.begin() + log_from,
                                                 log.end());
    std::vector<DebugEvent> events;

    for (const auto &tr : core::fsmTrace(delta)) {
        DebugEvent ev;
        ev.key = "fsm:" + tr.stateVar;
        ev.cycle = tr.cycle;
        ev.detail =
            core::stateName(tr.stateVar, tr.fromState, opts_.constants) +
            " -> " +
            core::stateName(tr.stateVar, tr.toState, opts_.constants);
        events.push_back(std::move(ev));
    }
    for (const auto &up : core::depUpdates(delta)) {
        DebugEvent ev;
        ev.key = "dep:" + up.variable;
        ev.cycle = up.cycle;
        ev.detail = "= " + up.value;
        events.push_back(std::move(ev));
    }
    for (const auto &line : delta) {
        for (const auto &reg : core::lossRegisters({line})) {
            DebugEvent ev;
            ev.key = "loss:" + reg;
            ev.cycle = line.cycle;
            ev.detail = "potential data loss";
            events.push_back(std::move(ev));
        }
    }
    return events;
}

std::vector<DebugEvent>
Engine::stepOnce(bool quiet)
{
    size_t logBefore = sim_.log().size();
    sim_.applyStep(tape_->steps[pos_]);
    ++pos_;
    if (cycleAt_.size() < pos_)
        cycleAt_.push_back(sim_.cycle());
    ring_.maybeSave(pos_, sim_);
    HWDBG_STAT_INC("debug.steps", 1);
    if (quiet)
        return {};
    return eventsFromLog(logBefore);
}

void
Engine::restoreTo(uint64_t target)
{
    const Checkpoint *cp = ring_.nearestAtOrBefore(target);
    sim_.restoreState(*cp->snap);
    pos_ = cp->position;
    while (pos_ < target)
        stepOnce(true);
    replayedSteps_ += target - cp->position;
    HWDBG_STAT_INC("debug.restores", 1);
    HWDBG_STAT_INC("debug.replay_steps", target - cp->position);
}

Engine::StopInfo
Engine::run()
{
    obs::ObsSpan span("debug.run");
    while (!atEnd() && !finished()) {
        auto events = stepOnce(false);
        auto hits = bps_.check(sim_.context(), events, cover_.get());
        if (!hits.empty())
            return {StopReason::Breakpoint, std::move(hits),
                    std::move(events)};
        if (finished())
            return {StopReason::Finished, {}, std::move(events)};
    }
    return {finished() ? StopReason::Finished : StopReason::EndOfTape,
            {},
            {}};
}

Engine::StopInfo
Engine::stepCycles(uint64_t n)
{
    uint64_t target = cycle() + n;
    while (cycle() < target && !atEnd() && !finished()) {
        auto events = stepOnce(false);
        auto hits = bps_.check(sim_.context(), events, cover_.get());
        if (!hits.empty())
            return {StopReason::Breakpoint, std::move(hits),
                    std::move(events)};
        if (finished())
            return {StopReason::Finished, {}, std::move(events)};
    }
    if (cycle() >= target)
        return {StopReason::None, {}, {}};
    return {finished() ? StopReason::Finished : StopReason::EndOfTape,
            {},
            {}};
}

Engine::StopInfo
Engine::runUntil(const std::string &expr_text)
{
    hdl::ExprPtr expr = parseExpr(expr_text);
    while (!atEnd() && !finished()) {
        auto events = stepOnce(false);
        auto hits = bps_.check(sim_.context(), events, cover_.get());
        if (!hits.empty())
            return {StopReason::Breakpoint, std::move(hits),
                    std::move(events)};
        if (sim::evalBool(expr, sim_.context()))
            return {StopReason::UntilTrue, {}, std::move(events)};
        if (finished())
            return {StopReason::Finished, {}, std::move(events)};
    }
    return {finished() ? StopReason::Finished : StopReason::EndOfTape,
            {},
            {}};
}

Engine::StopInfo
Engine::gotoCycle(uint64_t target)
{
    obs::ObsSpan span("debug.goto");
    // Earliest explored position whose cycle counter reads target:
    // cycleAt_ is non-decreasing (one posedge at most per eval).
    uint64_t landing = UINT64_MAX;
    if (target == 0) {
        landing = 0;
    } else {
        auto it = std::lower_bound(cycleAt_.begin(), cycleAt_.end(), target);
        if (it != cycleAt_.end() && *it == target)
            landing = uint64_t(it - cycleAt_.begin()) + 1;
    }

    if (landing != UINT64_MAX) {
        if (landing < pos_)
            restoreTo(landing);
        else
            while (pos_ < landing)
                stepOnce(true);
    } else {
        // Beyond the explored frontier: advance quietly until the
        // counter reaches the target (or the tape/design gives out).
        while (!atEnd() && !finished() && cycle() < target)
            stepOnce(true);
    }
    bps_.rebase(sim_.context(), cover_.get());
    if (cycle() == target)
        return {StopReason::None, {}, {}};
    return {finished() ? StopReason::Finished : StopReason::EndOfTape,
            {},
            {}};
}

Engine::StopInfo
Engine::reverseStep(uint64_t n)
{
    uint64_t target = cycle() > n ? cycle() - n : 0;
    return gotoCycle(target);
}

hdl::ExprPtr
Engine::parseExpr(const std::string &expr_text) const
{
    hdl::ExprPtr expr = hdl::parseExprText(expr_text);
    sim_.design().annotateExpr(expr);
    return expr;
}

Bits
Engine::evalNow(const std::string &expr_text)
{
    hdl::ExprPtr expr = parseExpr(expr_text);
    return sim::evalExpr(expr, sim_.context());
}

int
Engine::addLineBreakpoint(const std::string &file, uint32_t line,
                          const std::string &cond_text)
{
    auto ids = resolveLineStmts(coverItems_, file, line);
    if (ids.empty())
        fatal("no executable statement at %s:%u", file.c_str(),
              unsigned(line));
    hdl::ExprPtr cond;
    if (!cond_text.empty())
        cond = parseExpr(cond_text);
    cover_->enableStmtCounts();
    std::string spec = file + ":" + std::to_string(line);
    if (!cond_text.empty())
        spec += " if " + cond_text;
    int id = bps_.addLine(spec, std::move(ids), std::move(cond), *cover_);
    HWDBG_STAT_INC("debug.breakpoints.line", 1);
    return id;
}

std::vector<Engine::BacktraceEntry>
Engine::backtrace(const std::string &reg, int k)
{
    sim_.design().requireSignal(reg);
    if (!depGraph_)
        depGraph_ =
            std::make_unique<analysis::DepGraph>(sim_.design().module());
    auto slice = depGraph_->backwardSlice(reg, k, true, true);
    std::vector<BacktraceEntry> entries;
    for (const auto &[name, dist] : slice) {
        BacktraceEntry e;
        e.reg = name;
        e.distance = dist;
        e.value = sim_.peek(name);
        entries.push_back(std::move(e));
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const BacktraceEntry &a, const BacktraceEntry &b) {
                         return a.distance < b.distance;
                     });
    return entries;
}

std::vector<DebugEvent>
Engine::allEvents() const
{
    return eventsFromLog(0);
}

std::vector<sim::EvalContext::LogLine>
Engine::recentLog(size_t n) const
{
    const auto &log = sim_.log();
    size_t from = log.size() > n ? log.size() - n : 0;
    return {log.begin() + from, log.end()};
}

const char *
stopReasonName(Engine::StopReason reason)
{
    switch (reason) {
      case Engine::StopReason::None:
        return "ok";
      case Engine::StopReason::Breakpoint:
        return "breakpoint";
      case Engine::StopReason::UntilTrue:
        return "until";
      case Engine::StopReason::EndOfTape:
        return "end-of-tape";
      case Engine::StopReason::Finished:
        return "finished";
    }
    return "?";
}

} // namespace hwdbg::debug
