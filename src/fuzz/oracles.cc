#include "fuzz/oracles.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "analyze/analyze.hh"
#include "common/logging.hh"
#include "compile/backend.hh"
#include "core/dep_monitor.hh"
#include "core/fsm_monitor.hh"
#include "core/losscheck.hh"
#include "core/signalcat.hh"
#include "core/stats_monitor.hh"
#include "core/validcheck.hh"
#include "elab/elaborate.hh"
#include "fuzz/refeval.hh"
#include "fuzz/rng.hh"
#include "hdl/parser.hh"
#include "hdl/printer.hh"
#include "lint/lint.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"
#include "trace/json.hh"
#include "trace/run.hh"
#include "trace/vcd.hh"

namespace hwdbg::fuzz
{

using namespace hdl;

const char *
oracleName(Oracle oracle)
{
    switch (oracle) {
      case Oracle::Roundtrip:
        return "roundtrip";
      case Oracle::Differential:
        return "differential";
      case Oracle::Lint:
        return "lint";
      case Oracle::Instrument:
        return "instrument";
      case Oracle::Order:
        return "order";
      case Oracle::Xbackend:
        return "xbackend";
      case Oracle::Xtrace:
        return "xtrace";
    }
    return "?";
}

bool
oracleFromName(const std::string &name, Oracle *out)
{
    for (uint32_t i = 0; i < kOracleCount; ++i) {
        Oracle oracle = static_cast<Oracle>(i);
        if (name == oracleName(oracle)) {
            *out = oracle;
            return true;
        }
    }
    return false;
}

namespace
{

bool
bitsEq(const Bits &a, const Bits &b)
{
    return a.width() == b.width() && a.compare(b) == 0;
}

std::string
hex(const Bits &value)
{
    return "0x" + value.toHexString();
}

// ---------------------------------------------------------------- stimulus

/** Pre-drawn input values: identical across every run of one seed. */
struct Stimulus
{
    struct CycleIn
    {
        bool rst;
        std::vector<Bits> inputs;
    };
    std::vector<CycleIn> cycles;
};

Stimulus
makeStimulus(const GeneratedDesign &gd, uint64_t seed, uint32_t cycles)
{
    // Distinct stream from the design's: xor with an arbitrary tag so
    // design shape and stimulus are independent draws of the same seed.
    Rng rng(seed ^ 0x5354494d554c5553ULL);
    Stimulus stim;
    stim.cycles.resize(cycles);
    for (uint32_t t = 0; t < cycles; ++t) {
        auto &in = stim.cycles[t];
        in.rst = t < 2 || rng.chance(3);
        for (const auto &port : gd.inputs)
            in.inputs.push_back(rng.bits(port.width));
    }
    return stim;
}

// ------------------------------------------------------------- run traces

using NormLog = std::vector<std::pair<uint64_t, std::string>>;

NormLog
normLog(const std::vector<sim::EvalContext::LogLine> &log)
{
    NormLog out;
    for (const auto &line : log)
        out.emplace_back(line.cycle, line.text);
    return out;
}

NormLog
normLog(const std::vector<RefEval::LogLine> &log)
{
    NormLog out;
    for (const auto &line : log)
        out.emplace_back(line.cycle, line.text);
    return out;
}

/** Everything user-visible one run produced, in comparison-ready form. */
struct RunTrace
{
    /** outputs[2 * t + phase][i]: output i after eval at clk=phase. */
    std::vector<std::vector<Bits>> outputs;
    /** Pre-edge value of the FSM state var, per clock cycle. */
    std::vector<Bits> preEdgeFsm;
    /** Pre-edge levels of the stat event signals, per clock cycle. */
    std::vector<std::vector<bool>> preEdgeEvents;
    NormLog log;
    uint64_t cycles = 0;
    bool finished = false;
};

/**
 * Drive @p sim with @p stim. Works on both Simulator and RefEval (they
 * expose the same poke/peek/eval surface). "Pre-edge" samples are taken
 * after the clk=0 eval: clk and rst never feed generated expressions,
 * so these equal the values the clocked processes will read at the
 * following posedge.
 */
template <typename SimT>
RunTrace
runTrace(SimT &sim, const GeneratedDesign &gd, const Stimulus &stim)
{
    RunTrace tr;
    tr.preEdgeEvents.resize(gd.eventSignals.size());
    for (const auto &in : stim.cycles) {
        if (gd.hasRst)
            sim.poke("rst", Bits(1, in.rst ? 1 : 0));
        for (size_t i = 0; i < gd.inputs.size(); ++i)
            sim.poke(gd.inputs[i].name, in.inputs[i]);

        sim.poke("clk", Bits(1, 0));
        sim.eval();
        tr.outputs.emplace_back();
        for (const auto &out : gd.outputs)
            tr.outputs.back().push_back(sim.peek(out));
        if (!gd.fsmStateVar.empty())
            tr.preEdgeFsm.push_back(sim.peek(gd.fsmStateVar));
        for (size_t i = 0; i < gd.eventSignals.size(); ++i)
            tr.preEdgeEvents[i].push_back(
                sim.peek(gd.eventSignals[i]).toU64() != 0);

        sim.poke("clk", Bits(1, 1));
        sim.eval();
        tr.outputs.emplace_back();
        for (const auto &out : gd.outputs)
            tr.outputs.back().push_back(sim.peek(out));

        if (sim.finished())
            break;
    }
    tr.cycles = sim.cycle();
    tr.finished = sim.finished();
    tr.log = normLog(sim.log());
    return tr;
}

std::optional<std::string>
diffOutputs(const RunTrace &a, const RunTrace &b,
            const GeneratedDesign &gd, const std::string &aName,
            const std::string &bName)
{
    size_t steps = std::min(a.outputs.size(), b.outputs.size());
    for (size_t s = 0; s < steps; ++s) {
        for (size_t i = 0; i < gd.outputs.size(); ++i) {
            if (!bitsEq(a.outputs[s][i], b.outputs[s][i]))
                return "output " + gd.outputs[i] + " differs at cycle " +
                       std::to_string(s / 2) +
                       (s % 2 ? " (after posedge): " : " (pre-edge): ") +
                       aName + "=" + hex(a.outputs[s][i]) + " " + bName +
                       "=" + hex(b.outputs[s][i]);
        }
    }
    if (a.outputs.size() != b.outputs.size())
        return "run length differs: " + aName + " stopped after " +
               std::to_string(a.outputs.size()) + " half-cycles, " +
               bName + " after " + std::to_string(b.outputs.size());
    if (a.cycles != b.cycles)
        return "cycle count differs: " + aName + "=" +
               std::to_string(a.cycles) + " " + bName + "=" +
               std::to_string(b.cycles);
    if (a.finished != b.finished)
        return "$finish state differs: " + aName + "=" +
               std::to_string(a.finished) + " " + bName + "=" +
               std::to_string(b.finished);
    return std::nullopt;
}

std::optional<std::string>
diffLogs(const NormLog &a, const NormLog &b, const std::string &aName,
         const std::string &bName)
{
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
        if (a[i] != b[i])
            return "log line " + std::to_string(i) + " differs: " +
                   aName + "=[" + std::to_string(a[i].first) + "] \"" +
                   a[i].second + "\" " + bName + "=[" +
                   std::to_string(b[i].first) + "] \"" + b[i].second +
                   "\"";
    }
    if (a.size() != b.size())
        return "log length differs: " + aName + "=" +
               std::to_string(a.size()) + " lines, " + bName + "=" +
               std::to_string(b.size());
    return std::nullopt;
}

} // namespace

// ---------------------------------------------------------------- roundtrip

std::optional<Failure>
runRoundtrip(const GeneratedDesign &gd)
{
    std::string text1 = printDesign(gd.design);
    Design reparsed;
    try {
        reparsed = parse(text1, "<fuzz-roundtrip>");
    } catch (const HdlError &err) {
        return Failure{Oracle::Roundtrip,
                       std::string("printed design fails to reparse: ") +
                           err.what()};
    }
    if (!designEquals(gd.design, reparsed))
        return Failure{Oracle::Roundtrip,
                       "parse(print(ast)) is not structurally identical "
                       "to ast"};
    std::string text2 = printDesign(reparsed);
    if (text2 != text1)
        return Failure{Oracle::Roundtrip,
                       "printing is not a fixpoint: print(parse(print)) "
                       "differs from print"};
    return std::nullopt;
}

// -------------------------------------------------------------- differential

std::optional<Failure>
runDifferential(const GeneratedDesign &gd, uint64_t seed,
                uint32_t cycles, const sim::BackendFactory &backend)
{
    // The simulator consumes the design through the full front end
    // (print -> parse -> elaborate) while the reference evaluator works
    // on the original AST, so printer and parser bugs that change
    // semantics surface here even when the roundtrip stays structural.
    std::string text = printDesign(gd.design);
    Design reparsed = parse(text, "<fuzz-differential>");
    auto simFlat = elab::elaborate(reparsed, gd.top).mod;
    auto refFlat = elab::elaborate(gd.design, gd.top).mod;

    sim::Simulator sim(simFlat);
    if (backend)
        sim.setBackend(backend);
    RefEval ref(refFlat);

    Stimulus stim = makeStimulus(gd, seed, cycles);
    RunTrace simTr = runTrace(sim, gd, stim);
    RunTrace refTr = runTrace(ref, gd, stim);

    if (auto diff = diffOutputs(simTr, refTr, gd, "sim", "ref"))
        return Failure{Oracle::Differential, *diff};
    if (auto diff = diffLogs(simTr.log, refTr.log, "sim", "ref"))
        return Failure{Oracle::Differential, *diff};
    return std::nullopt;
}

// ---------------------------------------------------------------- lint meta

namespace
{

/** "mf_" flips name-length parity and contains no lint keyword; clk and
 *  rst keep their names so the clock/reset heuristics see the same
 *  design. */
std::string
renamed(const std::string &name)
{
    if (name == "clk" || name == "rst")
        return name;
    return "mf_" + name;
}

std::string
unrenamed(const std::string &name)
{
    if (name.rfind("mf_", 0) == 0)
        return name.substr(3);
    return name;
}

void
renameInExpr(const ExprPtr &expr)
{
    renameIdents(expr,
                 [](const std::string &name) { return renamed(name); });
}

ModulePtr
renameModule(const Module &mod)
{
    auto out = cloneModule(mod);
    for (auto &port : out->ports)
        port = renamed(port);
    for (auto &item : out->items) {
        switch (item->kind) {
          case ItemKind::Param: {
            auto *param = item->as<ParamItem>();
            param->name = renamed(param->name);
            renameInExpr(param->value);
            break;
          }
          case ItemKind::Net: {
            auto *net = item->as<NetItem>();
            net->name = renamed(net->name);
            if (net->range) {
                renameInExpr(net->range->msb);
                renameInExpr(net->range->lsb);
            }
            if (net->array) {
                renameInExpr(net->array->msb);
                renameInExpr(net->array->lsb);
            }
            break;
          }
          case ItemKind::ContAssign: {
            auto *assign = item->as<ContAssignItem>();
            renameInExpr(assign->lhs);
            renameInExpr(assign->rhs);
            break;
          }
          case ItemKind::Always: {
            auto *proc = item->as<AlwaysItem>();
            for (auto &sens : proc->sens)
                sens.signal = renamed(sens.signal);
            renameIdents(proc->body, [](const std::string &name) {
                return renamed(name);
            });
            break;
          }
          case ItemKind::Instance: {
            auto *inst = item->as<InstanceItem>();
            for (auto &conn : inst->conns)
                if (conn.actual)
                    renameInExpr(conn.actual);
            break;
          }
        }
    }
    return out;
}

/** Permute internal declarations among themselves and continuous
 *  assigns among themselves; everything else stays put. */
ModulePtr
reorderModule(const Module &mod, Rng &rng)
{
    auto out = cloneModule(mod);
    std::vector<size_t> declSlots;
    std::vector<size_t> assignSlots;
    for (size_t i = 0; i < out->items.size(); ++i) {
        const auto &item = out->items[i];
        if (item->kind == ItemKind::Net &&
            item->as<NetItem>()->dir == PortDir::None)
            declSlots.push_back(i);
        else if (item->kind == ItemKind::ContAssign)
            assignSlots.push_back(i);
    }
    auto shuffleSlots = [&](const std::vector<size_t> &slots) {
        for (size_t i = slots.size(); i > 1; --i) {
            size_t j = rng.below(i);
            std::swap(out->items[slots[i - 1]], out->items[slots[j]]);
        }
    };
    shuffleSlots(declSlots);
    shuffleSlots(assignSlots);
    return out;
}

/**
 * Canonical diagnostic key: everything a transform must preserve (rule,
 * severity, subclass, involved signals mapped back to their original
 * names, sorted) and nothing it may change (location, message text).
 */
std::multiset<std::string>
diagKeys(const std::vector<lint::Diagnostic> &diags, bool undoRename)
{
    std::multiset<std::string> keys;
    for (const auto &diag : diags) {
        std::vector<std::string> signals;
        for (const auto &sig : diag.signals)
            signals.push_back(undoRename ? unrenamed(sig) : sig);
        std::sort(signals.begin(), signals.end());
        std::string key = diag.rule;
        key += '|';
        key += lint::severityName(diag.severity);
        key += '|';
        key += diag.subclass;
        key += '|';
        for (const auto &sig : signals) {
            key += sig;
            key += ',';
        }
        keys.insert(key);
    }
    return keys;
}

std::optional<std::string>
diffKeys(const std::multiset<std::string> &base,
         const std::multiset<std::string> &variant,
         const std::string &transform)
{
    if (base == variant)
        return std::nullopt;
    for (const auto &key : base)
        if (variant.count(key) < base.count(key))
            return "lint diagnostics not invariant under " + transform +
                   ": lost \"" + key + "\"";
    for (const auto &key : variant)
        if (base.count(key) < variant.count(key))
            return "lint diagnostics not invariant under " + transform +
                   ": gained \"" + key + "\"";
    return "lint diagnostics not invariant under " + transform;
}

std::vector<lint::Diagnostic>
lintOf(const Module &mod)
{
    // Through print -> parse -> elaborate so the variant module gets
    // annotations by the same pipeline the CLI uses.
    Design design;
    design.modules.push_back(cloneModule(mod));
    Design reparsed = parse(printDesign(design), "<fuzz-lint>");
    auto flat = elab::elaborate(reparsed, mod.name).mod;
    return lint::runLint(*flat);
}

} // namespace

std::optional<Failure>
runLintMeta(const GeneratedDesign &gd, uint64_t seed)
{
    auto flat = elab::elaborate(gd.design, gd.top).mod;

    auto baseKeys = diagKeys(lintOf(*flat), false);

    auto renamedMod = renameModule(*flat);
    auto renKeys = diagKeys(lintOf(*renamedMod), true);
    if (auto diff = diffKeys(baseKeys, renKeys, "alpha-renaming"))
        return Failure{Oracle::Lint, *diff};

    Rng rng(seed ^ 0x5245524f52444552ULL);
    auto reordered = reorderModule(*flat, rng);
    auto reoKeys = diagKeys(lintOf(*reordered), false);
    if (auto diff =
            diffKeys(baseKeys, reoKeys, "declaration reordering"))
        return Failure{Oracle::Lint, *diff};
    return std::nullopt;
}

// --------------------------------------------------------------- instrument

namespace
{

const char *const kMonitorPrefixes[] = {
    "[FSMMonitor] ", "[Stat] ",      "[DepMonitor] ",
    "[LossCheck] ",  "[ValidCheck] ",
};

NormLog
withoutMonitorLines(const NormLog &log)
{
    NormLog out;
    for (const auto &line : log) {
        bool monitor = false;
        for (const char *prefix : kMonitorPrefixes)
            if (line.second.rfind(prefix, 0) == 0) {
                monitor = true;
                break;
            }
        if (!monitor)
            out.push_back(line);
    }
    return out;
}

bool
hasClockedDisplay(const Module &mod)
{
    bool found = false;
    std::function<void(const StmtPtr &)> scan =
        [&](const StmtPtr &stmt) {
            if (!stmt || found)
                return;
            switch (stmt->kind) {
              case StmtKind::Display:
                found = true;
                break;
              case StmtKind::Block:
                for (const auto &sub : stmt->as<BlockStmt>()->stmts)
                    scan(sub);
                break;
              case StmtKind::If: {
                const auto *branch = stmt->as<IfStmt>();
                scan(branch->thenStmt);
                scan(branch->elseStmt);
                break;
              }
              case StmtKind::Case:
                for (const auto &item : stmt->as<CaseStmt>()->items)
                    scan(item.body);
                break;
              default:
                break;
            }
        };
    for (const auto &item : mod.items) {
        if (item->kind != ItemKind::Always)
            continue;
        const auto *proc = item->as<AlwaysItem>();
        if (!proc->isComb)
            scan(proc->body);
    }
    return found;
}

} // namespace

std::optional<Failure>
runInstrument(const GeneratedDesign &gd, uint64_t seed, uint32_t cycles,
              const sim::BackendFactory &backend)
{
    auto flat = elab::elaborate(gd.design, gd.top).mod;
    Stimulus stim = makeStimulus(gd, seed, cycles);

    sim::Simulator base(flat);
    if (backend)
        base.setBackend(backend);
    RunTrace baseTr = runTrace(base, gd, stim);

    auto fail = [](std::string detail) {
        return Failure{Oracle::Instrument, std::move(detail)};
    };

    // Common check: an instrumented module must keep every user-visible
    // behaviour — outputs per half-cycle and the user's own $display
    // lines (the monitors' added lines are filtered out).
    auto checkPreserved =
        [&](ModulePtr instrumented, const std::string &pass,
            RunTrace *out_tr, sim::Simulator **out_sim,
            bool check_log = true) -> std::optional<std::string> {
        static thread_local std::unique_ptr<sim::Simulator> holder;
        holder = std::make_unique<sim::Simulator>(std::move(instrumented));
        if (backend)
            holder->setBackend(backend);
        RunTrace tr = runTrace(*holder, gd, stim);
        if (auto diff = diffOutputs(baseTr, tr, gd, "base", pass))
            return pass + ": " + *diff;
        // SignalCat legitimately empties the $display log (that is its
        // job); its log check is the reconstruction comparison instead.
        if (check_log) {
            if (auto diff = diffLogs(withoutMonitorLines(baseTr.log),
                                     withoutMonitorLines(tr.log),
                                     "base", pass))
                return pass + ": user log not preserved: " + *diff;
        }
        if (out_tr)
            *out_tr = std::move(tr);
        if (out_sim)
            *out_sim = holder.get();
        return std::nullopt;
    };

    // --- SignalCat: displays move into the recorder, log reconstructs.
    // Skipped when displays span multiple clock domains or edges: the
    // pass has a single recording clock by design and rejects such
    // modules up front.
    if (hasClockedDisplay(*flat) && core::signalCatSupported(*flat)) {
        core::SignalCatOptions opts;
        opts.bufferDepth = 8192;
        auto result = core::applySignalCat(*flat, opts);
        sim::Simulator *catSim = nullptr;
        RunTrace tr;
        if (auto diff = checkPreserved(result.module, "signalcat", &tr,
                                       &catSim, false))
            return fail(*diff);
        if (!tr.log.empty())
            return fail("signalcat: instrumented run still prints " +
                        std::to_string(tr.log.size()) +
                        " $display lines");
        auto *recorder = dynamic_cast<sim::SignalRecorder *>(
            catSim->primitive(result.plan.recorderInstance));
        if (!recorder)
            return fail("signalcat: recorder instance '" +
                        result.plan.recorderInstance + "' not found");
        NormLog rebuilt =
            normLog(core::reconstructLog(*recorder, result.plan));
        if (auto diff =
                diffLogs(baseTr.log, rebuilt, "base", "reconstructed"))
            return fail("signalcat: " + *diff);
    }

    // The passes below each instrument the flat design, reading its
    // facts from one Context.
    analyze::Context facts(*flat);

    // --- FSM monitor: reported transitions must match the state series
    // recorded from the uninstrumented run.
    if (!gd.fsmStateVar.empty()) {
        core::FsmMonitorOptions opts;
        opts.forceInclude.insert(gd.fsmStateVar);
        auto result = core::applyFsmMonitor(*flat, facts, opts);
        sim::Simulator *fsmSim = nullptr;
        RunTrace tr;
        if (auto diff =
                checkPreserved(result.module, "fsm-monitor", &tr, &fsmSim))
            return fail(*diff);

        std::vector<core::FsmTraceEntry> got;
        for (const auto &entry : core::fsmTrace(fsmSim->log()))
            if (entry.stateVar == gd.fsmStateVar)
                got.push_back(entry);

        std::vector<core::FsmTraceEntry> want;
        uint64_t prev = 0;
        for (size_t t = 0; t < baseTr.preEdgeFsm.size(); ++t) {
            uint64_t cur = baseTr.preEdgeFsm[t].toU64();
            if (cur != prev) {
                want.push_back(core::FsmTraceEntry{t + 1, gd.fsmStateVar,
                                                   prev, cur});
                prev = cur;
            }
        }
        if (got.size() != want.size())
            return fail("fsm-monitor: trace has " +
                        std::to_string(got.size()) + " transitions of " +
                        gd.fsmStateVar + ", ground truth has " +
                        std::to_string(want.size()));
        for (size_t i = 0; i < got.size(); ++i) {
            if (got[i].cycle != want[i].cycle ||
                got[i].fromState != want[i].fromState ||
                got[i].toState != want[i].toState)
                return fail(
                    "fsm-monitor: transition " + std::to_string(i) +
                    " is cycle " + std::to_string(got[i].cycle) + ": " +
                    std::to_string(got[i].fromState) + " -> " +
                    std::to_string(got[i].toState) + ", expected cycle " +
                    std::to_string(want[i].cycle) + ": " +
                    std::to_string(want[i].fromState) + " -> " +
                    std::to_string(want[i].toState));
        }
    }

    // --- Stats monitor: final counters must equal the number of
    // posedges where the event was high, counted from the base run.
    if (!gd.eventSignals.empty()) {
        core::StatsMonitorOptions opts;
        for (size_t i = 0; i < gd.eventSignals.size() && i < 2; ++i)
            opts.events.push_back(core::statsEvent(
                "ev" + std::to_string(i), gd.eventSignals[i]));
        auto result = core::applyStatsMonitor(*flat, opts);
        sim::Simulator *statSim = nullptr;
        RunTrace tr;
        if (auto diff = checkPreserved(result.module, "stats-monitor",
                                       &tr, &statSim))
            return fail(*diff);
        auto counts = core::statCounts(statSim->log());
        for (size_t i = 0; i < opts.events.size(); ++i) {
            uint64_t want = 0;
            for (size_t t = 0; t < baseTr.outputs.size() / 2; ++t)
                if (t < baseTr.preEdgeEvents[i].size() &&
                    baseTr.preEdgeEvents[i][t])
                    ++want;
            auto it = counts.find(opts.events[i].name);
            uint64_t got = it == counts.end() ? 0 : it->second;
            if (got != want)
                return fail("stats-monitor: " + opts.events[i].name +
                            " (" + gd.eventSignals[i] + ") counted " +
                            std::to_string(got) + ", ground truth is " +
                            std::to_string(want));
        }
    }

    // --- DepMonitor / LossCheck / ValidCheck: configuration-dependent
    // passes; an HdlError means "inapplicable to this design", but when
    // they do apply the design's behaviour must be untouched.
    try {
        core::DepMonitorOptions opts;
        opts.variable = "q0";
        opts.cycles = 3;
        auto result = core::applyDepMonitor(*flat, facts, opts);
        if (auto diff =
                checkPreserved(result.module, "dep-monitor", nullptr,
                               nullptr))
            return fail(*diff);
    } catch (const HdlError &) {
    }

    if (gd.eventSignals.size() >= 1) {
        try {
            core::LossCheckOptions opts;
            opts.source = "q0";
            opts.sourceValid = gd.eventSignals[0];
            opts.sink = "q1";
            auto result = core::applyLossCheck(*flat, facts, opts);
            if (auto diff = checkPreserved(result.module, "losscheck",
                                           nullptr, nullptr))
                return fail(*diff);
        } catch (const HdlError &) {
        }
        try {
            core::ValidCheckOptions opts;
            opts.pairs.push_back(core::ValidPair{gd.inputs[0].name,
                                                 gd.eventSignals[0]});
            auto result = core::applyValidCheck(facts, opts);
            if (auto diff = checkPreserved(result.module, "validcheck",
                                           nullptr, nullptr))
                return fail(*diff);
        } catch (const HdlError &) {
        }
    }

    return std::nullopt;
}

// -------------------------------------------------------------------- order

namespace
{

/** Lines sorted within each cycle: $display interleaving from sibling
 *  processes in one eval step is benign and must not count as
 *  divergence; everything else (content, cycle stamps, counts) must
 *  match. */
NormLog
sortedWithinCycle(NormLog log)
{
    std::sort(log.begin(), log.end());
    return log;
}

} // namespace

std::optional<Failure>
runOrder(const GeneratedDesign &gd, uint64_t seed, uint32_t cycles,
         OrderStats *stats, const sim::BackendFactory &backend)
{
    // Static verdict first: which signals does the analyze race pass
    // consider order-sensitive?
    auto flatA = elab::elaborate(gd.design, gd.top).mod;
    analyze::AnalyzeOptions aopts;
    aopts.passes = {"race"};
    std::vector<std::string> flaggedSignals;
    for (const auto &diag : analyze::runAnalyze(*flatA, aopts))
        if (diag.rule == "blocking-race" ||
            diag.rule == "multi-driver-nba")
            for (const auto &sig : diag.signals)
                flaggedSignals.push_back(sig);
    bool flagged = !flaggedSignals.empty();

    // Dynamic probe: identical stimulus, reversed clocked-process
    // execution order.
    auto flatB = elab::elaborate(gd.design, gd.top).mod;
    sim::Simulator simA(flatA);
    sim::Simulator simB(flatB);
    if (backend) {
        simA.setBackend(backend);
        simB.setBackend(backend);
    }
    size_t nprocs = simB.design().clockedProcs().size();
    if (nprocs >= 2) {
        std::vector<size_t> reversed(nprocs);
        for (size_t i = 0; i < nprocs; ++i)
            reversed[i] = nprocs - 1 - i;
        simB.setProcessOrder(std::move(reversed));
    }

    Stimulus stim = makeStimulus(gd, seed, cycles);
    RunTrace trA = runTrace(simA, gd, stim);
    RunTrace trB = runTrace(simB, gd, stim);

    std::optional<std::string> diff =
        diffOutputs(trA, trB, gd, "decl-order", "reversed");
    if (!diff)
        diff = diffLogs(sortedWithinCycle(trA.log),
                        sortedWithinCycle(trB.log), "decl-order",
                        "reversed");

    if (stats && flagged) {
        ++stats->flagged;
        ++(diff ? stats->confirmed : stats->unrefuted);
    }
    if (diff && !flagged)
        return Failure{
            Oracle::Order,
            "process-order divergence not flagged by the analyze race "
            "pass: " +
                *diff};
    return std::nullopt;
}

// ----------------------------------------------------------------- xbackend

std::optional<Failure>
runXbackend(const GeneratedDesign &gd, uint64_t seed, uint32_t cycles)
{
    // The interpreter is the semantics reference; the compiled bytecode
    // backend must be observationally indistinguishable from it on the
    // same elaborated design and stimulus. Beyond the per-half-cycle
    // output/log/finish comparison the dynamic oracles share, this one
    // also sweeps the complete final state — every signal and every
    // memory element — through the Simulator facade, which forces the
    // bytecode slab to flush into canonical Bits.
    auto flatA = elab::elaborate(gd.design, gd.top).mod;
    auto flatB = elab::elaborate(gd.design, gd.top).mod;
    sim::Simulator interp(flatA);
    sim::Simulator bytecode(flatB);
    bytecode.setBackend(compile::makeBytecodeBackend());

    Stimulus stim = makeStimulus(gd, seed, cycles);
    RunTrace trA = runTrace(interp, gd, stim);
    RunTrace trB = runTrace(bytecode, gd, stim);

    if (auto diff = diffOutputs(trA, trB, gd, "interp", "bytecode"))
        return Failure{Oracle::Xbackend, *diff};
    if (auto diff = diffLogs(trA.log, trB.log, "interp", "bytecode"))
        return Failure{Oracle::Xbackend, *diff};

    const sim::EvalContext &ca = interp.context();
    const sim::EvalContext &cb = bytecode.context();
    const sim::LoweredDesign &design = interp.design();
    for (size_t i = 0; i < design.numSignals(); ++i) {
        const sim::SignalInfo &info = design.info(static_cast<int>(i));
        if (!bitsEq(ca.values[i], cb.values[i]))
            return Failure{Oracle::Xbackend,
                           "final value of " + info.name +
                               " differs: interp=" + hex(ca.values[i]) +
                               " bytecode=" + hex(cb.values[i])};
        for (uint32_t e = 0; e < info.arraySize; ++e)
            if (!bitsEq(ca.arrays[i][e], cb.arrays[i][e]))
                return Failure{
                    Oracle::Xbackend,
                    "final value of " + info.name + "[" +
                        std::to_string(e) +
                        "] differs: interp=" + hex(ca.arrays[i][e]) +
                        " bytecode=" + hex(cb.arrays[i][e])};
    }
    return std::nullopt;
}

// ------------------------------------------------------------------- xtrace

std::optional<Failure>
runXtrace(const GeneratedDesign &gd, uint64_t seed, uint32_t cycles)
{
    // The trace recorder observes flushed simulator state through the
    // per-eval hook; both backends must present identical values to it
    // at every eval, so the rendered dumps must be byte-identical.
    // Tracing every signal makes the comparison maximally sensitive,
    // and arming a change trigger on rst (when present) walks the
    // Armed -> Triggered -> Done state machine under fuzz too.
    trace::TraceConfig cfg;
    cfg.budgetBytes = 1 << 16;
    if (gd.hasRst)
        cfg.trigger = "change:rst";

    Stimulus stim = makeStimulus(gd, seed, cycles);
    sim::Stimulus drive;
    drive.label = "fuzz:" + std::to_string(seed);
    drive.live = [&](sim::Simulator &sim) { runTrace(sim, gd, stim); };
    trace::TraceDump da = trace::traceDesign(
        elab::elaborate(gd.design, gd.top).mod, drive, cfg);
    trace::TraceDump db = trace::traceDesign(
        elab::elaborate(gd.design, gd.top).mod, drive, cfg,
        compile::makeBytecodeBackend());
    // The backend provenance label is the one intentional difference;
    // neutralize it so the byte comparison covers everything else.
    da.backend = "x";
    db.backend = "x";

    std::string ja = trace::toJson(da);
    std::string jb = trace::toJson(db);
    if (ja != jb)
        return Failure{Oracle::Xtrace,
                       "hwdbg-trace JSON dumps differ between interp "
                       "and bytecode (" +
                           std::to_string(da.rows.size()) + " vs " +
                           std::to_string(db.rows.size()) + " rows, " +
                           std::to_string(da.samples) + " vs " +
                           std::to_string(db.samples) + " samples)"};
    if (trace::renderVcd(da) != trace::renderVcd(db))
        return Failure{Oracle::Xtrace,
                       "VCD dumps differ between interp and bytecode "
                       "despite identical JSON dumps"};
    return std::nullopt;
}

// ----------------------------------------------------------------- dispatch

std::vector<Failure>
runOracles(const GeneratedDesign &gd, uint64_t seed,
           const OracleOptions &opts, OrderStats *stats)
{
    std::vector<Failure> failures;
    auto enabled = [&](Oracle oracle) {
        return (opts.mask & oracleBit(oracle)) != 0;
    };
    auto guard = [&](Oracle oracle, auto &&fn) {
        if (!enabled(oracle))
            return;
        obs::ObsSpan span(std::string("oracle.") + oracleName(oracle));
        size_t before = failures.size();
        try {
            if (auto failure = fn())
                failures.push_back(*failure);
        } catch (const HdlError &err) {
            failures.push_back(Failure{
                oracle, std::string("internal error: ") + err.what()});
        }
        if (obs::metricsEnabled()) {
            // Verdict counters have per-oracle names, so they skip the
            // cached-site macro and pay the registry lookup.
            bool failed = failures.size() != before;
            obs::counter(std::string("fuzz.oracle.") +
                         oracleName(oracle) +
                         (failed ? ".fail" : ".pass")).inc();
        }
    };
    guard(Oracle::Roundtrip, [&] { return runRoundtrip(gd); });
    guard(Oracle::Differential, [&] {
        return runDifferential(gd, seed, opts.cycles, opts.backend);
    });
    guard(Oracle::Lint, [&] { return runLintMeta(gd, seed); });
    guard(Oracle::Instrument, [&] {
        return runInstrument(gd, seed, opts.cycles, opts.backend);
    });
    guard(Oracle::Order, [&] {
        return runOrder(gd, seed, opts.cycles, stats, opts.backend);
    });
    guard(Oracle::Xbackend,
          [&] { return runXbackend(gd, seed, opts.cycles); });
    guard(Oracle::Xtrace,
          [&] { return runXtrace(gd, seed, opts.cycles); });
    return failures;
}

} // namespace hwdbg::fuzz
