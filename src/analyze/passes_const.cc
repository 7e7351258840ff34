/**
 * @file
 * Constant-propagation pass: dead and always-true guards, outputs (or
 * output bits) stuck at constants, and logic that never reaches an
 * observable sink. All facts come from the whole-design known-bits
 * fixpoint plus a backward liveness sweep over the dependency graph.
 */

#include <deque>
#include <functional>
#include <sstream>

#include "analyze/context.hh"
#include "analyze/passes.hh"
#include "common/logging.hh"

namespace hwdbg::analyze
{

using namespace hdl;

namespace
{

SourceLoc
assignLoc(const GuardedAssign &ga, const Module &mod)
{
    if (ga.stmt)
        return ga.stmt->loc;
    if (ga.cont)
        return ga.cont->loc;
    return mod.loc;
}

std::string
fmtConst(const KnownBits &kb)
{
    std::ostringstream out;
    out << kb.width << "'h" << std::hex << kb.value;
    return out.str();
}

/**
 * Signals whose value is externally observable: output ports, operands
 * and path conditions of $display/$finish, and anything wired to a
 * primitive instance.
 */
std::set<std::string>
observableSinks(const Module &mod)
{
    std::set<std::string> sinks;
    for (const auto &item : mod.items) {
        switch (item->kind) {
          case ItemKind::Net: {
            const auto *net = item->as<NetItem>();
            if (net->dir == PortDir::Output)
                sinks.insert(net->name);
            break;
          }
          case ItemKind::Instance:
            for (const auto &conn : item->as<InstanceItem>()->conns)
                if (conn.actual)
                    for (const auto &sig :
                         collectSignals(conn.actual))
                        sinks.insert(sig);
            break;
          case ItemKind::Always: {
            const auto *proc = item->as<AlwaysItem>();
            // Collect $display/$finish reads together with every
            // enclosing condition: the guard decides whether the
            // side effect happens, so it is observable too.
            std::vector<ExprPtr> conds;
            std::function<void(const StmtPtr &)> walk =
                [&](const StmtPtr &stmt) {
                    if (!stmt)
                        return;
                    switch (stmt->kind) {
                      case StmtKind::Block:
                        for (const auto &sub :
                             stmt->as<BlockStmt>()->stmts)
                            walk(sub);
                        break;
                      case StmtKind::If: {
                        const auto *branch = stmt->as<IfStmt>();
                        conds.push_back(branch->cond);
                        walk(branch->thenStmt);
                        walk(branch->elseStmt);
                        conds.pop_back();
                        break;
                      }
                      case StmtKind::Case: {
                        const auto *sel = stmt->as<CaseStmt>();
                        conds.push_back(sel->selector);
                        for (const auto &ci : sel->items)
                            walk(ci.body);
                        conds.pop_back();
                        break;
                      }
                      case StmtKind::Display: {
                        for (const auto &arg :
                             stmt->as<DisplayStmt>()->args)
                            for (const auto &sig :
                                 collectSignals(arg))
                                sinks.insert(sig);
                        for (const auto &cond : conds)
                            for (const auto &sig :
                                 collectSignals(cond))
                                sinks.insert(sig);
                        break;
                      }
                      case StmtKind::Finish:
                        for (const auto &cond : conds)
                            for (const auto &sig :
                                 collectSignals(cond))
                                sinks.insert(sig);
                        break;
                      default:
                        break;
                    }
                };
            walk(proc->body);
            break;
          }
          default:
            break;
        }
    }
    return sinks;
}

} // namespace

void
passConst(Context &ctx)
{
    const Module &mod = ctx.module();
    const SignalTable &sigs = ctx.signals();
    const auto &assigns = ctx.assigns();
    const ConstFixpoint &fix = ctx.fixpoint();

    // --- dead and always-true guards.
    for (size_t i = 0; i < assigns.size(); ++i) {
        const auto &ga = assigns[i];
        if (!fix.deadGuard[i] && !fix.trueGuard[i])
            continue;
        auto targets = lvalueTargets(ga.lhs);
        std::vector<std::string> signals(targets.begin(),
                                         targets.end());
        for (const auto &sig : collectSignals(ga.guard))
            if (!targets.count(sig))
                signals.push_back(sig);
        std::string target_list;
        for (const auto &target : targets)
            target_list += (target_list.empty() ? "" : ", ") + target;
        if (fix.deadGuard[i]) {
            ctx.report(
                "dead-guard", Severity::Warning,
                "Failure-to-Update", assignLoc(ga, mod),
                csprintf("branch guard is never true: assignment to "
                         "'%s' is unreachable",
                         target_list.c_str()),
                std::move(signals));
        } else {
            ctx.report(
                "const-guard", Severity::Info,
                "Incomplete Implementation", assignLoc(ga, mod),
                csprintf("branch guard is always true for assignment "
                         "to '%s'",
                         target_list.c_str()),
                std::move(signals));
        }
    }

    // --- outputs stuck at a constant (fully or per bit).
    for (const auto &[name, info] : sigs.all()) {
        if (info.dir != PortDir::Output || info.isArray ||
            info.width == 0 || info.width > 64)
            continue;
        KnownBits kb = fix.factOf(name, sigs);
        if (kb.fullyKnown()) {
            ctx.report(
                "stuck-output", Severity::Warning,
                "Failure-to-Update", info.loc,
                csprintf("output '%s' is stuck at %s", name.c_str(),
                         fmtConst(kb).c_str()),
                {name});
        } else if (kb.anyKnown() && info.width > 1) {
            std::ostringstream bitlist;
            bool first = true;
            for (uint32_t bit = 0; bit < kb.width; ++bit) {
                if (!(kb.known >> bit & 1))
                    continue;
                bitlist << (first ? "" : ", ") << "[" << bit
                        << "]=" << (kb.value >> bit & 1);
                first = false;
            }
            ctx.report(
                "stuck-bit", Severity::Warning,
                "Failure-to-Update", info.loc,
                csprintf("output '%s' has stuck bits: %s",
                         name.c_str(), bitlist.str().c_str()),
                {name});
        }
    }

    // --- backward liveness: logic that never reaches a sink.
    const auto &graph = ctx.graph();
    std::set<std::string> live = observableSinks(mod);
    std::deque<std::string> work(live.begin(), live.end());
    while (!work.empty()) {
        std::string name = work.front();
        work.pop_front();
        for (const auto *edge : graph.edgesInto(name))
            if (live.insert(edge->src).second)
                work.push_back(edge->src);
    }
    for (const auto &[name, info] : sigs.all()) {
        if (info.dir != PortDir::None || live.count(name))
            continue;
        // Only signals that are read somewhere: completely unread
        // signals are lint's unused-signal finding, not ours.
        if (graph.edgesOutOf(name).empty())
            continue;
        ctx.report(
            "dead-signal", Severity::Warning,
            "Incomplete Implementation", info.loc,
            csprintf("'%s' is read but never reaches an output, "
                     "$display, $finish, or primitive",
                     name.c_str()),
            {name});
    }
}

} // namespace hwdbg::analyze
