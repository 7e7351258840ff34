#include "analyze/facts.hh"

#include "common/logging.hh"

namespace hwdbg::analyze
{

using namespace hdl;

std::set<std::string>
collectSignals(const ExprPtr &expr)
{
    std::set<std::string> out;
    forEachIdent(expr, [&](const std::string &name) { out.insert(name); });
    return out;
}

std::set<std::string>
lvalueTargets(const ExprPtr &lhs)
{
    std::set<std::string> out;
    switch (lhs->kind) {
      case ExprKind::Id:
        out.insert(lhs->as<IdExpr>()->name);
        break;
      case ExprKind::Index:
        out.insert(lhs->as<IndexExpr>()->base);
        break;
      case ExprKind::Range:
        out.insert(lhs->as<RangeExpr>()->base);
        break;
      case ExprKind::Concat:
        for (const auto &part : lhs->as<ConcatExpr>()->parts) {
            auto sub = lvalueTargets(part);
            out.insert(sub.begin(), sub.end());
        }
        break;
      default:
        break;
    }
    return out;
}

std::map<std::string, ExprPtr>
wireDefinitions(const Module &mod)
{
    std::map<std::string, ExprPtr> defs;
    std::set<std::string> multi;
    for (const auto &item : mod.items) {
        if (item->kind != ItemKind::ContAssign)
            continue;
        const auto *assign = item->as<ContAssignItem>();
        if (assign->lhs->kind != ExprKind::Id)
            continue; // partial drivers stay opaque
        const std::string &name = assign->lhs->as<IdExpr>()->name;
        if (defs.count(name) || multi.count(name)) {
            defs.erase(name);
            multi.insert(name);
            continue;
        }
        defs[name] = assign->rhs;
    }
    return defs;
}

} // namespace hwdbg::analyze
