#include "analyze/facts.hh"

#include "common/logging.hh"

namespace hwdbg::analyze
{

using namespace hdl;

std::string
processClock(const AlwaysItem &proc)
{
    for (const auto &sens : proc.sens)
        if (sens.edge == EdgeKind::Posedge)
            return sens.signal;
    return proc.sens.empty() ? std::string() : proc.sens[0].signal;
}

namespace
{

/** Equality of the case selector with one label. */
ExprPtr
labelMatch(const ExprPtr &selector, const ExprPtr &label)
{
    return mkEq(cloneExpr(selector), cloneExpr(label));
}

/** Disjunction of matches over all labels of a case item. */
ExprPtr
itemMatch(const ExprPtr &selector, const CaseItem &item)
{
    ExprPtr any = mkFalse();
    for (const auto &label : item.labels)
        any = mkOr(any, labelMatch(selector, label));
    return any;
}

template <typename OnAssign, typename OnDisplay>
void
walk(const StmtPtr &stmt, const ExprPtr &guard, const OnAssign &on_assign,
     const OnDisplay &on_display)
{
    if (!stmt)
        return;
    switch (stmt->kind) {
      case StmtKind::Block:
        for (const auto &sub : stmt->as<BlockStmt>()->stmts)
            walk(sub, guard, on_assign, on_display);
        break;
      case StmtKind::If: {
        const auto *branch = stmt->as<IfStmt>();
        walk(branch->thenStmt,
             mkAnd(cloneExpr(guard), cloneExpr(branch->cond)), on_assign,
             on_display);
        if (branch->elseStmt)
            walk(branch->elseStmt,
                 mkAnd(cloneExpr(guard), mkNot(cloneExpr(branch->cond))),
                 on_assign, on_display);
        break;
      }
      case StmtKind::Case: {
        const auto *sel = stmt->as<CaseStmt>();
        // Guard for item i: this item matches and no earlier item does.
        ExprPtr no_earlier = mkTrue();
        const CaseItem *dflt = nullptr;
        for (const auto &item : sel->items) {
            if (item.labels.empty()) {
                dflt = &item;
                continue;
            }
            ExprPtr match = itemMatch(sel->selector, item);
            walk(item.body,
                 mkAnd(mkAnd(cloneExpr(guard), cloneExpr(no_earlier)),
                       match),
                 on_assign, on_display);
            no_earlier = mkAnd(no_earlier,
                               mkNot(itemMatch(sel->selector, item)));
        }
        if (dflt)
            walk(dflt->body, mkAnd(cloneExpr(guard), no_earlier),
                 on_assign, on_display);
        break;
      }
      case StmtKind::Assign:
        on_assign(stmt->as<AssignStmt>(), guard);
        break;
      case StmtKind::Display:
        on_display(stmt->as<DisplayStmt>(), guard);
        break;
      case StmtKind::Finish:
      case StmtKind::Null:
        break;
    }
}

} // namespace

std::vector<GuardedAssign>
collectAssigns(const Module &mod)
{
    std::vector<GuardedAssign> out;
    for (const auto &item : mod.items) {
        if (item->kind == ItemKind::ContAssign) {
            const auto *cont = item->as<ContAssignItem>();
            GuardedAssign ga;
            ga.lhs = cont->lhs;
            ga.rhs = cont->rhs;
            ga.guard = mkTrue();
            ga.sequential = false;
            ga.cont = cont;
            out.push_back(std::move(ga));
            continue;
        }
        if (item->kind != ItemKind::Always)
            continue;
        const auto *proc = item->as<AlwaysItem>();
        bool clocked = !proc->isComb;
        std::string clock = clocked ? processClock(*proc) : std::string();
        walk(proc->body, mkTrue(),
             [&](const AssignStmt *stmt, const ExprPtr &guard) {
                 GuardedAssign ga;
                 ga.lhs = stmt->lhs;
                 ga.rhs = stmt->rhs;
                 ga.guard = guard;
                 ga.sequential = clocked && stmt->nonblocking;
                 ga.clock = clock;
                 ga.proc = proc;
                 ga.stmt = stmt;
                 out.push_back(std::move(ga));
             },
             [](const DisplayStmt *, const ExprPtr &) {});
    }
    return out;
}

AssignIndex
indexAssigns(const std::vector<GuardedAssign> &assigns)
{
    AssignIndex index;
    for (size_t i = 0; i < assigns.size(); ++i)
        for (const auto &target : lvalueTargets(assigns[i].lhs))
            index[target].push_back(i);
    return index;
}

std::vector<GuardedDisplay>
collectDisplays(const Module &mod)
{
    std::vector<GuardedDisplay> out;
    for (const auto &item : mod.items) {
        if (item->kind != ItemKind::Always)
            continue;
        const auto *proc = item->as<AlwaysItem>();
        if (proc->isComb)
            continue;
        walk(proc->body, mkTrue(),
             [](const AssignStmt *, const ExprPtr &) {},
             [&](const DisplayStmt *stmt, const ExprPtr &guard) {
                 GuardedDisplay gd;
                 gd.stmt = stmt;
                 gd.guard = guard;
                 gd.clock = processClock(*proc);
                 gd.proc = proc;
                 out.push_back(std::move(gd));
             });
    }
    return out;
}

} // namespace hwdbg::analyze
