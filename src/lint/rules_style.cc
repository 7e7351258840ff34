/**
 * @file
 * Coding-style rules over process bodies: incomplete case statements,
 * latch inference in combinational processes, assignment-operator
 * misuse, and width truncation.
 */

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

#include "analyze/facts.hh"
#include "common/logging.hh"
#include "common/testhooks.hh"
#include "lint/rules.hh"
#include "elab/elaborate.hh"

namespace hwdbg::lint
{

using namespace hdl;

namespace
{

/**
 * Self-determined width of an explicit-width expression: sized
 * literals, identifiers, part/bit selects, and concats/repeats of
 * those. 0 when the width is context-determined or unknown
 * (arithmetic, comparisons, unsized literals, unsizable declarations).
 */
uint32_t
explicitWidth(const ExprPtr &expr, const analyze::SignalTable &sigs)
{
    if (!expr)
        return 0;
    switch (expr->kind) {
      case ExprKind::Number: {
        const auto *num = expr->as<NumberExpr>();
        return num->sized ? num->value.width() : 0;
      }
      case ExprKind::Id: {
        const auto *info = sigs.find(expr->as<IdExpr>()->name);
        return info && !info->isArray ? info->width : 0;
      }
      case ExprKind::Index: {
        const auto *info = sigs.find(expr->as<IndexExpr>()->base);
        return info && info->isArray ? info->width : 1;
      }
      case ExprKind::Range: {
        const auto *range = expr->as<RangeExpr>();
        auto msb = elab::tryEvalConst(range->msb);
        auto lsb = elab::tryEvalConst(range->lsb);
        if (msb && lsb && msb->toU64() >= lsb->toU64())
            return static_cast<uint32_t>(msb->toU64() - lsb->toU64() + 1);
        return 0;
      }
      case ExprKind::Concat: {
        uint32_t total = 0;
        for (const auto &part : expr->as<ConcatExpr>()->parts) {
            uint32_t w = explicitWidth(part, sigs);
            if (w == 0)
                return 0;
            total += w;
        }
        return total;
      }
      case ExprKind::Repeat: {
        const auto *rep = expr->as<RepeatExpr>();
        auto count = elab::tryEvalConst(rep->count);
        uint32_t inner = explicitWidth(rep->inner, sigs);
        if (!count || inner == 0)
            return 0;
        return static_cast<uint32_t>(count->toU64()) * inner;
      }
      default:
        return 0;
    }
}

/** Width of an assignment target; 0 when unknown. */
uint32_t
lvalueWidth(const ExprPtr &lhs, const analyze::SignalTable &sigs)
{
    if (!lhs)
        return 0;
    switch (lhs->kind) {
      case ExprKind::Id:
      case ExprKind::Index:
      case ExprKind::Range:
      case ExprKind::Concat:
        return explicitWidth(lhs, sigs);
      default:
        return 0;
    }
}

} // namespace

void
checkIncompleteCase(Context &ctx)
{
    for (const auto &item : ctx.module().items) {
        if (item->kind != ItemKind::Always ||
            !item->as<AlwaysItem>()->isComb)
            continue;
        forEachStmt(item->as<AlwaysItem>()->body, [&](const Stmt &stmt) {
            if (stmt.kind != StmtKind::Case)
                return;
            const auto *sel = stmt.as<CaseStmt>();
            uint64_t labels = 0;
            for (const auto &ci : sel->items) {
                if (ci.labels.empty())
                    return; // default item: complete
                labels += ci.labels.size();
            }
            uint32_t width = explicitWidth(sel->selector, ctx.signals());
            // Coverage is decidable only for narrow selectors; wider
            // ones can't enumerate 2^w labels anyway.
            if (width > 0 && width < 16 &&
                labels >= (uint64_t{1} << width))
                return;
            std::string msg;
            if (width > 0 && width < 16)
                msg = csprintf("case statement in combinational "
                               "process covers %llu of %llu selector "
                               "values and has no default",
                               (unsigned long long)labels,
                               (unsigned long long)(uint64_t{1}
                                                    << width));
            else
                msg = "case statement in combinational process has "
                      "no default";
            ctx.report(stmt.loc, std::move(msg));
        });
    }
}

void
checkInferredLatch(Context &ctx)
{
    for (const auto &item : ctx.module().items) {
        if (item->kind != ItemKind::Always ||
            !item->as<AlwaysItem>()->isComb)
            continue;
        const auto *proc = item->as<AlwaysItem>();
        std::set<std::string> targets;
        forEachStmt(proc->body, [&](const Stmt &stmt) {
            if (stmt.kind != StmtKind::Assign)
                return;
            for (const auto &t :
                 analyze::lvalueTargets(stmt.as<AssignStmt>()->lhs))
                targets.insert(t);
        });
        std::set<std::string> assigned = analyze::mustAssign(proc->body, {});
        for (const auto &target : targets) {
            if (assigned.count(target))
                continue;
            ctx.report(proc->loc,
                       csprintf("'%s' is not assigned on every path "
                                "of this combinational process; a "
                                "latch is inferred",
                                target.c_str()),
                       {target});
        }
    }
}

void
checkBlockingInSeq(Context &ctx)
{
    for (const auto &ga : ctx.assigns()) {
        if (!ga.proc || ga.proc->isComb || !ga.stmt)
            continue;
        if (ga.stmt->nonblocking)
            continue;
        const auto targets = analyze::lvalueTargets(ga.stmt->lhs);
        ctx.report(ga.stmt->loc,
                   "blocking assignment in clocked process "
                   "(use '<=')",
                   {targets.begin(), targets.end()});
    }
}

void
checkNonblockingInComb(Context &ctx)
{
    for (const auto &ga : ctx.assigns()) {
        if (!ga.proc || !ga.proc->isComb || !ga.stmt)
            continue;
        if (!ga.stmt->nonblocking)
            continue;
        const auto targets = analyze::lvalueTargets(ga.stmt->lhs);
        ctx.report(ga.stmt->loc,
                   "nonblocking assignment in combinational process "
                   "(use '=')",
                   {targets.begin(), targets.end()});
    }
}

void
checkWidthTruncation(Context &ctx)
{
    size_t assign_idx = 0;
    for (const auto &ga : ctx.assigns()) {
        size_t idx = assign_idx++;
        if (mutationOn(MUT_LINT_TRUNC_INDEX) && idx % 2 == 0)
            continue;
        uint32_t lhs_w = lvalueWidth(ga.lhs, ctx.signals());
        uint32_t rhs_w = explicitWidth(ga.rhs, ctx.signals());
        if (lhs_w == 0 || rhs_w == 0 || rhs_w <= lhs_w)
            continue;
        SourceLoc loc = ga.stmt ? ga.stmt->loc
                                : (ga.cont ? ga.cont->loc : SourceLoc{});
        const auto targets = analyze::lvalueTargets(ga.lhs);
        ctx.report(loc,
                   csprintf("assignment truncates a %u-bit value to "
                            "%u bits",
                            rhs_w, lhs_w),
                   {targets.begin(), targets.end()});
    }
}

} // namespace hwdbg::lint
