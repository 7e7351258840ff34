#include "core/signalcat.hh"

#include <set>

#include "analyze/context.hh"
#include "common/logging.hh"
#include "common/testhooks.hh"
#include "core/instrument.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/design.hh"
#include "sim/eval.hh"

namespace hwdbg::core
{

using namespace hdl;

namespace
{

/** Replace every $display in the tree with a null statement. */
void
stripDisplays(const StmtPtr &stmt)
{
    if (!stmt)
        return;
    switch (stmt->kind) {
      case StmtKind::Block: {
        auto *block = stmt->as<BlockStmt>();
        for (auto &sub : block->stmts) {
            if (sub->kind == StmtKind::Display)
                sub = std::make_shared<NullStmt>();
            else
                stripDisplays(sub);
        }
        break;
      }
      case StmtKind::If: {
        auto *branch = stmt->as<IfStmt>();
        if (branch->thenStmt &&
            branch->thenStmt->kind == StmtKind::Display)
            branch->thenStmt = std::make_shared<NullStmt>();
        else
            stripDisplays(branch->thenStmt);
        if (branch->elseStmt &&
            branch->elseStmt->kind == StmtKind::Display)
            branch->elseStmt = std::make_shared<NullStmt>();
        else
            stripDisplays(branch->elseStmt);
        break;
      }
      case StmtKind::Case: {
        auto *sel = stmt->as<CaseStmt>();
        for (auto &item : sel->items) {
            if (item.body && item.body->kind == StmtKind::Display)
                item.body = std::make_shared<NullStmt>();
            else
                stripDisplays(item.body);
        }
        break;
      }
      default:
        break;
    }
}

/** Edge on which a display's process samples its clock. */
EdgeKind
displayEdge(const analyze::GuardedDisplay &gd)
{
    for (const auto &sens : gd.proc->sens)
        if (sens.signal == gd.clock)
            return sens.edge;
    return EdgeKind::Posedge;
}

bool
refsAny(const ExprPtr &expr, const std::set<std::string> &dirty)
{
    if (!expr)
        return false;
    bool hit = false;
    renameIdents(expr, [&](const std::string &name) {
        if (dirty.count(name))
            hit = true;
        return name;
    });
    return hit;
}

/**
 * Walk @p stmt in execution order tracking which variables blocking
 * assignments have written so far (@p dirty). The recorder taps nets,
 * so it always sees pre-edge register values; a $display whose
 * arguments or path condition read a variable a blocking assignment
 * already updated this edge would print the post-write value instead,
 * and no net tap can reproduce that. Returns false on such a display.
 * Branch-insensitive on purpose: both arms of an If feed one dirty
 * set, over-approximating the race.
 */
bool
scanRaces(const StmtPtr &stmt, std::set<std::string> &dirty,
          bool cond_dirty)
{
    if (!stmt)
        return true;
    switch (stmt->kind) {
      case StmtKind::Block:
        for (const auto &sub : stmt->as<BlockStmt>()->stmts)
            if (!scanRaces(sub, dirty, cond_dirty))
                return false;
        return true;
      case StmtKind::If: {
        const auto *branch = stmt->as<IfStmt>();
        bool cd = cond_dirty || refsAny(branch->cond, dirty);
        return scanRaces(branch->thenStmt, dirty, cd) &&
               scanRaces(branch->elseStmt, dirty, cd);
      }
      case StmtKind::Case: {
        const auto *sel = stmt->as<CaseStmt>();
        bool cd = cond_dirty || refsAny(sel->selector, dirty);
        for (const auto &item : sel->items)
            if (!scanRaces(item.body, dirty, cd))
                return false;
        return true;
      }
      case StmtKind::Assign: {
        const auto *assign = stmt->as<AssignStmt>();
        if (!assign->nonblocking)
            renameIdents(assign->lhs, [&](const std::string &name) {
                dirty.insert(name);
                return name;
            });
        return true;
      }
      case StmtKind::Display: {
        if (cond_dirty)
            return false;
        for (const auto &arg : stmt->as<DisplayStmt>()->args)
            if (refsAny(arg, dirty))
                return false;
        return true;
      }
      default:
        return true;
    }
}

/** True when some $display races an earlier blocking assignment.
 *  Clocked processes execute in item order, so the dirty set carries
 *  across processes on the same sweep. */
bool
displaysRaceBlocking(const Module &mod)
{
    std::set<std::string> dirty;
    for (const auto &item : mod.items) {
        if (item->kind != ItemKind::Always)
            continue;
        const auto *proc = item->as<AlwaysItem>();
        if (proc->isComb)
            continue;
        if (!scanRaces(proc->body, dirty, false))
            return true;
    }
    return false;
}

} // namespace

bool
signalCatSupported(const Module &mod)
{
    analyze::Context facts(mod);
    const auto &displays = facts.displays();
    if (displays.empty())
        return true;
    if (displays[0].clock.empty())
        return false;
    for (const auto &gd : displays)
        if (gd.clock != displays[0].clock ||
            displayEdge(gd) != displayEdge(displays[0]))
            return false;
    return !displaysRaceBlocking(mod);
}

SignalCatResult
applySignalCat(const Module &mod, const SignalCatOptions &opts)
{
    obs::ObsSpan span("instrument.signalcat");
    HWDBG_STAT_INC("instrument.signalcat.runs", 1);
    InstrumentBuilder builder(mod);
    ModulePtr work = builder.module();

    // Annotate expression widths so the statement arguments have known
    // sizes (lowering mutates only annotations, not structure).
    sim::LoweredDesign annotate(work);

    analyze::Context facts(*work);
    const auto &displays = facts.displays();

    SignalCatResult result;
    result.plan.recorderInstance = opts.recorderInstance;
    result.plan.bufferDepth = opts.bufferDepth;

    if (displays.empty()) {
        builder.finish();
        result.module = work;
        result.generatedLines = builder.generatedLines();
        return result;
    }

    uint32_t num_stmts = static_cast<uint32_t>(displays.size());
    std::string clock = displays[0].clock;
    EdgeKind edge = displayEdge(displays[0]);
    for (const auto &gd : displays)
        if (gd.clock != clock || displayEdge(gd) != edge)
            fatal("SignalCat: $display statements mix clocks or edges "
                  "('%s' vs '%s'); one recording clock domain is "
                  "supported",
                  clock.c_str(), gd.clock.c_str());
    if (displaysRaceBlocking(*work))
        fatal("SignalCat: a $display reads a variable a blocking "
              "assignment updates earlier in the same edge; the "
              "recorder taps nets pre-edge and cannot reproduce that "
              "value - use nonblocking assignments");

    // Per-statement enable wires carrying the path constraints.
    std::vector<std::string> enable_wires;
    for (uint32_t i = 0; i < num_stmts; ++i) {
        std::string wire =
            opts.recorderInstance + "_en" + std::to_string(i);
        builder.addWire(wire, 1);
        builder.addAssign(mkId(wire), cloneExpr(displays[i].guard));
        enable_wires.push_back(wire);
    }

    // Entry layout: enable bits in [num_stmts-1:0], then each
    // statement's arguments in order above them.
    uint32_t offset = num_stmts;
    std::vector<ExprPtr> parts_lsb_first;
    {
        auto en_cat = std::make_shared<ConcatExpr>();
        for (uint32_t i = num_stmts; i-- > 0;)
            en_cat->parts.push_back(mkId(enable_wires[i]));
        parts_lsb_first.push_back(en_cat);
    }

    for (uint32_t i = 0; i < num_stmts; ++i) {
        SignalCatStatement stmt;
        stmt.format = displays[i].stmt->format;
        stmt.enableBit = i;
        for (const auto &arg : displays[i].stmt->args) {
            uint32_t width = arg->width;
            if (width == 0)
                panic("SignalCat: display argument missing width");
            uint32_t skew =
                mutationOn(MUT_INSTR_SIGNALCAT_SLICE) ? 1 : 0;
            stmt.argSlices.emplace_back(offset + width - 1 + skew,
                                        offset + skew);
            parts_lsb_first.push_back(cloneExpr(arg));
            offset += width;
        }
        result.plan.statements.push_back(std::move(stmt));
    }
    result.plan.entryWidth = offset;

    // Recorder data bus and valid strobe.
    std::string data_wire = opts.recorderInstance + "_data";
    std::string valid_wire = opts.recorderInstance + "_valid";
    builder.addWire(data_wire, result.plan.entryWidth);
    auto data_cat = std::make_shared<ConcatExpr>();
    for (size_t i = parts_lsb_first.size(); i-- > 0;)
        data_cat->parts.push_back(parts_lsb_first[i]);
    builder.addAssign(mkId(data_wire), data_cat);

    builder.addWire(valid_wire, 1);
    ExprPtr any_enable = mkFalse();
    for (const auto &wire : enable_wires)
        any_enable = mkOr(any_enable, mkId(wire));
    builder.addAssign(mkId(valid_wire), any_enable);

    // The recording IP instance (SignalTap/ILA stand-in).
    auto rec = std::make_shared<InstanceItem>();
    rec->moduleName = "signal_recorder";
    rec->instName = opts.recorderInstance;
    rec->paramOverrides.emplace_back(
        "WIDTH", mkNum(Bits(32, result.plan.entryWidth), false));
    rec->paramOverrides.emplace_back(
        "DEPTH", mkNum(Bits(32, opts.bufferDepth), false));
    rec->paramOverrides.emplace_back(
        "MODE", mkNum(Bits(32, opts.preTrigger ? 1 : 0), false));
    // The recorder IP samples on rising edges of its clk port. For
    // displays living in @(negedge ...) processes, feed it the
    // inverted clock so captures line up with when the statements
    // actually execute (their arguments change half a cycle later).
    ExprPtr rec_clk = mkId(clock);
    if (edge == EdgeKind::Negedge)
        rec_clk = mkNot(rec_clk);
    rec->conns.push_back(PortConn{"clk", std::move(rec_clk)});
    rec->conns.push_back(PortConn{
        "arm",
        opts.armSignal.empty() ? mkTrue() : mkId(opts.armSignal)});
    if (!opts.stopSignal.empty())
        rec->conns.push_back(
            PortConn{"stop", mkId(opts.stopSignal)});
    rec->conns.push_back(PortConn{"valid", mkId(valid_wire)});
    rec->conns.push_back(PortConn{"data", mkId(data_wire)});
    work->items.push_back(rec);

    // Remove the unsynthesizable $display statements.
    for (const auto &item : work->items) {
        if (item->kind != ItemKind::Always)
            continue;
        auto *proc = item->as<AlwaysItem>();
        if (proc->body && proc->body->kind == StmtKind::Display)
            proc->body = std::make_shared<NullStmt>();
        else
            stripDisplays(proc->body);
    }

    builder.finish();
    result.module = work;
    result.generatedLines = builder.generatedLines();
    return result;
}

std::vector<sim::EvalContext::LogLine>
reconstructLog(const sim::SignalRecorder &recorder,
               const SignalCatPlan &plan)
{
    std::vector<sim::EvalContext::LogLine> log;
    for (const auto &entry : recorder.entries()) {
        for (const auto &stmt : plan.statements) {
            if (!entry.data.bit(stmt.enableBit))
                continue;
            std::vector<Bits> args;
            args.reserve(stmt.argSlices.size());
            for (const auto &[msb, lsb] : stmt.argSlices)
                args.push_back(entry.data.slice(msb, lsb));
            log.push_back(sim::EvalContext::LogLine{
                entry.cycle, sim::formatDisplay(stmt.format, args)});
        }
    }
    return log;
}

} // namespace hwdbg::core
