/**
 * @file
 * Clock-domain-crossing pass.
 *
 * Clock inference is structural: every clocked process's domain is its
 * first posedge sensitivity signal, and a register's domain is the set
 * of clocks of the processes that write it. Two findings:
 *
 *   multi-clock-reg  a register written from processes on different
 *       clocks — both domains race on the flop itself
 *   cdc-unsync       a clocked process on clock A consumes (directly or
 *       through combinational logic) a register written on clock B
 *       without a synchronizer. The first stage of a synchronizer — a
 *       nonblocking assignment whose right-hand side is exactly the
 *       crossing register — is exempt; everything it feeds is in the
 *       destination domain.
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

namespace
{

/** True when @p expr is exactly one identifier read of @p name. */
bool
isPlainRead(const ExprPtr &expr, const std::string &name)
{
    return expr && expr->kind == ExprKind::Id &&
           expr->as<IdExpr>()->name == name;
}

} // namespace

void
passCdc(Context &ctx)
{
    const Module &mod = ctx.module();
    const auto &assigns = ctx.assigns();
    const auto &graph = ctx.graph();

    // Write domain(s) per register.
    std::map<std::string, std::set<std::string>> domainsOf;
    for (const auto &ga : assigns) {
        if (!ga.proc || ga.proc->isComb || ga.clock.empty())
            continue;
        for (const auto &target : lvalueTargets(ga.lhs))
            domainsOf[target].insert(ga.clock);
    }

    for (const auto &[name, domains] : domainsOf) {
        if (domains.size() < 2)
            continue;
        std::string clock_list;
        for (const auto &clock : domains)
            clock_list += (clock_list.empty() ? "" : ", ") + clock;
        ctx.report(
            "multi-clock-reg", Severity::Error,
            "Signal Asynchrony", ctx.declLoc(name),
            csprintf("'%s' is written from processes on different "
                     "clocks (%s)",
                     name.c_str(), clock_list.c_str()),
            {name});
    }

    // Unsynchronized consumption across domains.
    std::set<std::pair<std::string, std::string>> reported;
    for (const auto &ga : assigns) {
        if (!ga.proc || ga.proc->isComb || ga.clock.empty())
            continue;
        std::set<std::string> reads =
            collectSignals(ga.rhs);
        for (const auto &sig : collectSignals(ga.guard))
            reads.insert(sig);
        for (const auto &sig : reads) {
            for (const auto &src : graph.statefulSources(sig)) {
                auto it = domainsOf.find(src);
                if (it == domainsOf.end() || it->second.size() != 1)
                    continue; // input / IP output / multi-clock reg
                const std::string &src_clock = *it->second.begin();
                if (src_clock == ga.clock)
                    continue;
                // Synchronizer first stage: `dst <= src` latches the
                // raw crossing value; its consumers are safe.
                if (ga.sequential && isPlainRead(ga.rhs, src) &&
                    sig == src)
                    continue;
                if (!reported.emplace(src, ga.clock).second)
                    continue;
                ctx.report(
                    "cdc-unsync", Severity::Warning,
                    "Signal Asynchrony",
                    ga.stmt ? ga.stmt->loc : mod.loc,
                    csprintf("'%s' (clock '%s') is consumed in clock "
                             "domain '%s' without a synchronizer",
                             src.c_str(), src_clock.c_str(),
                             ga.clock.c_str()),
                    {src});
            }
        }
    }
}

} // namespace hwdbg::analyze
