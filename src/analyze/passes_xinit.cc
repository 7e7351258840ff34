/**
 * @file
 * Definite-assignment pass.
 *
 * Two findings, both "reads that can observe a value no assignment
 * produced" (an X in four-state simulation; a stale or zero value in
 * our two-state simulator):
 *
 *   comb-read-before-write  inside a combinational process, a signal
 *       the process itself drives is read on a path where no assignment
 *       has executed yet — the read sees the previous settling value
 *       (latch-like behavior). Detected with the must-assign walk
 *       (context.hh), which hands each statement the signals assigned
 *       before it.
 *
 *   read-uninitialized  a register has assignments, but the constant
 *       fixpoint proves every one of them dead (guard never true), and
 *       the register is still read or exported — every read observes
 *       the initial value only.
 */

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/context.hh"
#include "analyze/passes.hh"
#include "common/logging.hh"

namespace hwdbg::analyze
{

using namespace hdl;

void
passXinit(Context &ctx)
{
    const Module &mod = ctx.module();
    const SignalTable &sigs = ctx.signals();
    const auto &assigns = ctx.assigns();
    const ConstFixpoint &fix = ctx.fixpoint();

    // --- comb-read-before-write: must-assign walk per comb proc.
    for (const auto &item : mod.items) {
        if (item->kind != ItemKind::Always)
            continue;
        const auto *proc = item->as<AlwaysItem>();
        if (!proc->isComb)
            continue;

        // Signals this process drives anywhere.
        std::set<std::string> written;
        for (const auto &ga : assigns)
            if (ga.proc == proc)
                for (const auto &target :
                     lvalueTargets(ga.lhs))
                    written.insert(target);
        if (written.empty())
            continue;

        std::set<std::string> reported;
        mustAssign(proc->body, {},
                   [&](const Stmt &stmt,
                       const std::set<std::string> &assigned) {
            std::set<std::string> reads;
            stmtReads(stmt, reads);
            for (const auto &sig : reads) {
                if (!written.count(sig) || assigned.count(sig))
                    continue;
                if (!reported.insert(sig).second)
                    continue;
                ctx.report(
                    "comb-read-before-write", Severity::Warning,
                    "Signal Asynchrony", stmt.loc,
                    csprintf("'%s' is read before this combinational "
                             "process assigns it; the read observes "
                             "the previous settling value",
                             sig.c_str()),
                    {sig});
            }
        });
    }

    // --- read-uninitialized: every assignment to a register is dead.
    const auto &assignsOf = ctx.assignsOf();
    const auto &graph = ctx.graph();
    for (const auto &[name, info] : sigs.all()) {
        if (!info.isReg || info.isArray)
            continue;
        if (fix.primConnected.count(name))
            continue;
        auto it = assignsOf.find(name);
        if (it == assignsOf.end() || it->second.empty())
            continue; // never driven at all: lint's undriven finding
        bool all_dead = true;
        for (size_t i : it->second)
            if (!fix.deadGuard[i])
                all_dead = false;
        if (!all_dead)
            continue;
        bool read = !graph.edgesOutOf(name).empty() ||
                    info.dir == PortDir::Output;
        if (!read)
            continue;
        ctx.report(
            "read-uninitialized", Severity::Warning,
            "Failure-to-Update", info.loc,
            csprintf("no assignment to '%s' is ever reachable; reads "
                     "observe only the initial value (X in four-state "
                     "simulation)",
                     name.c_str()),
            {name});
    }
}

} // namespace hwdbg::analyze
