/**
 * @file
 * valid/ready handshake rules. Pairs and triples are matched by the
 * conventional naming scheme: a driven `<p>valid` register pairs with
 * a declared `<p>ready`, and `<p>data` completes the triple.
 */

#include <optional>
#include <string>
#include <vector>

#include "analyze/facts.hh"
#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "lint/rules.hh"

namespace hwdbg::lint
{

using namespace hdl;

namespace
{

/** Prefix of @p name when it ends in @p suffix, else nullopt. */
std::optional<std::string>
prefixOf(const std::string &name, const std::string &suffix)
{
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        return std::nullopt;
    return name.substr(0, name.size() - suffix.size());
}

/** True when @p expr has @p name as a bare positive conjunct. */
bool
hasPositiveConjunct(const ExprPtr &guard, const std::string &name)
{
    for (const auto &conj : conjuncts(guard))
        if (conj->kind == ExprKind::Id &&
            conj->as<IdExpr>()->name == name)
            return true;
    return false;
}

} // namespace

void
checkHandshakeDrop(Context &ctx)
{
    const auto &sigs = ctx.signals();
    for (const auto &valid : sigs.order()) {
        auto prefix = prefixOf(valid, "valid");
        if (!prefix)
            continue;
        std::string ready = *prefix + "ready";
        const auto *info = sigs.find(valid);
        if (!sigs.find(ready) || !info->isReg ||
            info->dir == PortDir::Input || ctx.driversOf(valid).empty())
            continue;

        // Pulse-style producers that only assert valid when ready is
        // already high may deassert freely.
        bool sets_gated_on_ready = true;
        bool any_set = false;
        for (const auto &ga : ctx.assigns()) {
            if (!ga.lhs || ga.lhs->kind != ExprKind::Id ||
                ga.lhs->as<IdExpr>()->name != valid)
                continue;
            auto value = elab::tryEvalConst(ga.rhs);
            bool is_clear = value && value->toU64() == 0;
            if (is_clear || ctx.isResetBranchGuard(ga.guard))
                continue;
            any_set = true;
            if (!mentions(ga.guard, ready))
                sets_gated_on_ready = false;
        }
        if (any_set && sets_gated_on_ready)
            continue;

        for (const auto &ga : ctx.assigns()) {
            if (!ga.lhs || ga.lhs->kind != ExprKind::Id ||
                ga.lhs->as<IdExpr>()->name != valid)
                continue;
            if (!ga.proc || ga.proc->isComb || !ga.stmt)
                continue;
            auto value = elab::tryEvalConst(ga.rhs);
            if (!value || value->toU64() != 0)
                continue;
            if (ctx.isResetBranchGuard(ga.guard))
                continue;
            if (mentions(ga.guard, ready))
                continue;
            ctx.report(ga.stmt->loc,
                       csprintf("'%s' is deasserted without checking "
                                "'%s'; an accepted-but-unseen beat "
                                "is dropped",
                                valid.c_str(), ready.c_str()),
                       {valid, ready});
        }
    }
}

void
checkHandshakeUnstable(Context &ctx)
{
    const auto &sigs = ctx.signals();
    for (const auto &data : sigs.order()) {
        auto prefix = prefixOf(data, "data");
        if (!prefix)
            continue;
        std::string valid = *prefix + "valid";
        std::string ready = *prefix + "ready";
        if (!sigs.find(valid) || !sigs.find(ready))
            continue;
        if (!sigs.find(data)->isReg || ctx.driversOf(data).empty())
            continue;

        for (const auto &ga : ctx.assigns()) {
            if (!ga.lhs || ga.lhs->kind != ExprKind::Id ||
                ga.lhs->as<IdExpr>()->name != data)
                continue;
            if (!ga.proc || ga.proc->isComb || !ga.stmt)
                continue;
            if (ctx.isResetBranchGuard(ga.guard))
                continue;
            if (!hasPositiveConjunct(ga.guard, valid))
                continue;
            if (mentions(ga.guard, ready))
                continue;
            ctx.report(ga.stmt->loc,
                       csprintf("'%s' changes while '%s' is high "
                                "without waiting for '%s'; the "
                                "consumer sees torn data",
                                data.c_str(), valid.c_str(),
                                ready.c_str()),
                       {data, valid, ready});
        }
    }
}

} // namespace hwdbg::lint
