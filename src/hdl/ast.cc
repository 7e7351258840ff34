#include "hdl/ast.hh"

#include <mutex>
#include <ostream>
#include <unordered_set>

#include "common/logging.hh"

namespace hwdbg::hdl
{

namespace
{

const std::string *
noFile()
{
    static const std::string empty;
    return &empty;
}

} // namespace

FileName::FileName() : name_(noFile()) {}

FileName::FileName(const std::string &name) : name_(noFile())
{
    if (name.empty())
        return;
    static std::mutex mutex;
    static std::unordered_set<std::string> names;
    std::lock_guard<std::mutex> lock(mutex);
    name_ = &*names.insert(name).first;
}

std::ostream &
operator<<(std::ostream &os, const FileName &name)
{
    return os << name.str();
}

std::string
SourceLoc::str() const
{
    return file.str() + ":" + std::to_string(line) + ":" +
           std::to_string(col);
}

NetItem *
Module::findNet(const std::string &net_name) const
{
    for (const auto &item : items) {
        if (item->kind != ItemKind::Net)
            continue;
        auto *net = item->as<NetItem>();
        if (net->name == net_name)
            return const_cast<NetItem *>(net);
    }
    return nullptr;
}

ModulePtr
Design::findModule(const std::string &name) const
{
    for (const auto &mod : modules)
        if (mod->name == name)
            return mod;
    return nullptr;
}

ExprPtr
mkNum(const Bits &value, bool sized)
{
    auto num = std::make_shared<NumberExpr>();
    num->value = value;
    num->sized = sized;
    return num;
}

ExprPtr
mkNum(uint32_t width, uint64_t value)
{
    return mkNum(Bits(width, value));
}

ExprPtr
mkId(const std::string &name)
{
    auto id = std::make_shared<IdExpr>();
    id->name = name;
    return id;
}

ExprPtr
mkUnary(UnaryOp op, ExprPtr arg)
{
    auto expr = std::make_shared<UnaryExpr>();
    expr->op = op;
    expr->arg = std::move(arg);
    return expr;
}

ExprPtr
mkBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
{
    auto expr = std::make_shared<BinaryExpr>();
    expr->op = op;
    expr->lhs = std::move(lhs);
    expr->rhs = std::move(rhs);
    return expr;
}

ExprPtr
mkTernary(ExprPtr cond, ExprPtr then_e, ExprPtr else_e)
{
    auto expr = std::make_shared<TernaryExpr>();
    expr->cond = std::move(cond);
    expr->thenExpr = std::move(then_e);
    expr->elseExpr = std::move(else_e);
    return expr;
}

ExprPtr
mkTrue()
{
    return mkNum(1, 1);
}

ExprPtr
mkFalse()
{
    return mkNum(1, 0);
}

namespace
{

/** Constant truth value of a 1-bit literal, if any. */
std::optional<bool>
constBool(const ExprPtr &expr)
{
    if (expr && expr->kind == ExprKind::Number) {
        const auto *num = expr->as<NumberExpr>();
        return !num->value.isZero();
    }
    return std::nullopt;
}

} // namespace

ExprPtr
mkNot(ExprPtr arg)
{
    if (auto truth = constBool(arg))
        return *truth ? mkFalse() : mkTrue();
    if (arg->kind == ExprKind::Unary) {
        auto *un = arg->as<UnaryExpr>();
        if (un->op == UnaryOp::LogNot)
            return un->arg;
    }
    return mkUnary(UnaryOp::LogNot, std::move(arg));
}

ExprPtr
mkAnd(ExprPtr lhs, ExprPtr rhs)
{
    if (auto truth = constBool(lhs))
        return *truth ? rhs : mkFalse();
    if (auto truth = constBool(rhs))
        return *truth ? lhs : mkFalse();
    return mkBinary(BinaryOp::LogAnd, std::move(lhs), std::move(rhs));
}

ExprPtr
mkOr(ExprPtr lhs, ExprPtr rhs)
{
    if (auto truth = constBool(lhs))
        return *truth ? mkTrue() : rhs;
    if (auto truth = constBool(rhs))
        return *truth ? mkTrue() : lhs;
    return mkBinary(BinaryOp::LogOr, std::move(lhs), std::move(rhs));
}

ExprPtr
mkEq(ExprPtr lhs, ExprPtr rhs)
{
    return mkBinary(BinaryOp::Eq, std::move(lhs), std::move(rhs));
}

ExprPtr
cloneExpr(const ExprPtr &expr)
{
    if (!expr)
        return nullptr;
    ExprPtr out;
    switch (expr->kind) {
      case ExprKind::Number: {
        auto src = expr->as<NumberExpr>();
        auto num = std::make_shared<NumberExpr>();
        num->value = src->value;
        num->sized = src->sized;
        out = num;
        break;
      }
      case ExprKind::Id: {
        out = mkId(expr->as<IdExpr>()->name);
        break;
      }
      case ExprKind::Unary: {
        auto src = expr->as<UnaryExpr>();
        out = mkUnary(src->op, cloneExpr(src->arg));
        break;
      }
      case ExprKind::Binary: {
        auto src = expr->as<BinaryExpr>();
        out = mkBinary(src->op, cloneExpr(src->lhs), cloneExpr(src->rhs));
        break;
      }
      case ExprKind::Ternary: {
        auto src = expr->as<TernaryExpr>();
        out = mkTernary(cloneExpr(src->cond), cloneExpr(src->thenExpr),
                        cloneExpr(src->elseExpr));
        break;
      }
      case ExprKind::Concat: {
        auto src = expr->as<ConcatExpr>();
        auto cat = std::make_shared<ConcatExpr>();
        for (const auto &part : src->parts)
            cat->parts.push_back(cloneExpr(part));
        out = cat;
        break;
      }
      case ExprKind::Repeat: {
        auto src = expr->as<RepeatExpr>();
        auto rep = std::make_shared<RepeatExpr>();
        rep->count = cloneExpr(src->count);
        rep->inner = cloneExpr(src->inner);
        out = rep;
        break;
      }
      case ExprKind::Index: {
        auto src = expr->as<IndexExpr>();
        auto idx = std::make_shared<IndexExpr>();
        idx->base = src->base;
        idx->index = cloneExpr(src->index);
        out = idx;
        break;
      }
      case ExprKind::Range: {
        auto src = expr->as<RangeExpr>();
        auto range = std::make_shared<RangeExpr>();
        range->base = src->base;
        range->msb = cloneExpr(src->msb);
        range->lsb = cloneExpr(src->lsb);
        out = range;
        break;
      }
    }
    out->loc = expr->loc;
    out->width = expr->width;
    return out;
}

StmtPtr
cloneStmt(const StmtPtr &stmt)
{
    if (!stmt)
        return nullptr;
    StmtPtr out;
    switch (stmt->kind) {
      case StmtKind::Block: {
        auto src = stmt->as<BlockStmt>();
        auto block = std::make_shared<BlockStmt>();
        for (const auto &sub : src->stmts)
            block->stmts.push_back(cloneStmt(sub));
        out = block;
        break;
      }
      case StmtKind::If: {
        auto src = stmt->as<IfStmt>();
        auto branch = std::make_shared<IfStmt>();
        branch->cond = cloneExpr(src->cond);
        branch->thenStmt = cloneStmt(src->thenStmt);
        branch->elseStmt = cloneStmt(src->elseStmt);
        out = branch;
        break;
      }
      case StmtKind::Case: {
        auto src = stmt->as<CaseStmt>();
        auto sel = std::make_shared<CaseStmt>();
        sel->selector = cloneExpr(src->selector);
        sel->isCasez = src->isCasez;
        for (const auto &item : src->items) {
            CaseItem copy;
            for (const auto &label : item.labels)
                copy.labels.push_back(cloneExpr(label));
            copy.body = cloneStmt(item.body);
            sel->items.push_back(std::move(copy));
        }
        out = sel;
        break;
      }
      case StmtKind::Assign: {
        auto src = stmt->as<AssignStmt>();
        auto assign = std::make_shared<AssignStmt>();
        assign->lhs = cloneExpr(src->lhs);
        assign->rhs = cloneExpr(src->rhs);
        assign->nonblocking = src->nonblocking;
        out = assign;
        break;
      }
      case StmtKind::Display: {
        auto src = stmt->as<DisplayStmt>();
        auto disp = std::make_shared<DisplayStmt>();
        disp->format = src->format;
        for (const auto &arg : src->args)
            disp->args.push_back(cloneExpr(arg));
        out = disp;
        break;
      }
      case StmtKind::Finish:
        out = std::make_shared<FinishStmt>();
        break;
      case StmtKind::Null:
        out = std::make_shared<NullStmt>();
        break;
    }
    out->loc = stmt->loc;
    return out;
}

ItemPtr
cloneItem(const ItemPtr &item)
{
    if (!item)
        return nullptr;
    ItemPtr out;
    switch (item->kind) {
      case ItemKind::Param: {
        auto src = item->as<ParamItem>();
        auto param = std::make_shared<ParamItem>();
        param->name = src->name;
        param->value = cloneExpr(src->value);
        param->isLocal = src->isLocal;
        param->inHeader = src->inHeader;
        out = param;
        break;
      }
      case ItemKind::Net: {
        auto src = item->as<NetItem>();
        auto net = std::make_shared<NetItem>();
        net->net = src->net;
        net->dir = src->dir;
        net->name = src->name;
        if (src->range)
            net->range = AstRange{cloneExpr(src->range->msb),
                                  cloneExpr(src->range->lsb)};
        if (src->array)
            net->array = AstRange{cloneExpr(src->array->msb),
                                  cloneExpr(src->array->lsb)};
        out = net;
        break;
      }
      case ItemKind::ContAssign: {
        auto src = item->as<ContAssignItem>();
        auto assign = std::make_shared<ContAssignItem>();
        assign->lhs = cloneExpr(src->lhs);
        assign->rhs = cloneExpr(src->rhs);
        out = assign;
        break;
      }
      case ItemKind::Always: {
        auto src = item->as<AlwaysItem>();
        auto always = std::make_shared<AlwaysItem>();
        always->sens = src->sens;
        always->isComb = src->isComb;
        always->body = cloneStmt(src->body);
        out = always;
        break;
      }
      case ItemKind::Instance: {
        auto src = item->as<InstanceItem>();
        auto inst = std::make_shared<InstanceItem>();
        inst->moduleName = src->moduleName;
        inst->instName = src->instName;
        for (const auto &[name, value] : src->paramOverrides)
            inst->paramOverrides.emplace_back(name, cloneExpr(value));
        for (const auto &conn : src->conns)
            inst->conns.push_back(
                PortConn{conn.formal, cloneExpr(conn.actual)});
        out = inst;
        break;
      }
    }
    out->loc = item->loc;
    return out;
}

ModulePtr
cloneModule(const Module &mod)
{
    auto out = std::make_shared<Module>();
    out->name = mod.name;
    out->loc = mod.loc;
    out->ports = mod.ports;
    for (const auto &item : mod.items)
        out->items.push_back(cloneItem(item));
    return out;
}

void
forEachExpr(ExprPtr &expr, const std::function<void(ExprPtr &)> &fn)
{
    if (!expr)
        return;
    fn(expr);
    switch (expr->kind) {
      case ExprKind::Number:
      case ExprKind::Id:
        break;
      case ExprKind::Unary:
        forEachExpr(expr->as<UnaryExpr>()->arg, fn);
        break;
      case ExprKind::Binary:
        forEachExpr(expr->as<BinaryExpr>()->lhs, fn);
        forEachExpr(expr->as<BinaryExpr>()->rhs, fn);
        break;
      case ExprKind::Ternary:
        forEachExpr(expr->as<TernaryExpr>()->cond, fn);
        forEachExpr(expr->as<TernaryExpr>()->thenExpr, fn);
        forEachExpr(expr->as<TernaryExpr>()->elseExpr, fn);
        break;
      case ExprKind::Concat:
        for (auto &part : expr->as<ConcatExpr>()->parts)
            forEachExpr(part, fn);
        break;
      case ExprKind::Repeat:
        forEachExpr(expr->as<RepeatExpr>()->count, fn);
        forEachExpr(expr->as<RepeatExpr>()->inner, fn);
        break;
      case ExprKind::Index:
        forEachExpr(expr->as<IndexExpr>()->index, fn);
        break;
      case ExprKind::Range:
        forEachExpr(expr->as<RangeExpr>()->msb, fn);
        forEachExpr(expr->as<RangeExpr>()->lsb, fn);
        break;
    }
}

void
forEachExpr(const StmtPtr &stmt, const std::function<void(ExprPtr &)> &fn)
{
    if (!stmt)
        return;
    switch (stmt->kind) {
      case StmtKind::Block:
        for (const auto &sub : stmt->as<BlockStmt>()->stmts)
            forEachExpr(sub, fn);
        break;
      case StmtKind::If: {
        auto *branch = stmt->as<IfStmt>();
        forEachExpr(branch->cond, fn);
        forEachExpr(branch->thenStmt, fn);
        forEachExpr(branch->elseStmt, fn);
        break;
      }
      case StmtKind::Case: {
        auto *sel = stmt->as<CaseStmt>();
        forEachExpr(sel->selector, fn);
        for (auto &item : sel->items) {
            for (auto &label : item.labels)
                forEachExpr(label, fn);
            forEachExpr(item.body, fn);
        }
        break;
      }
      case StmtKind::Assign:
        forEachExpr(stmt->as<AssignStmt>()->lhs, fn);
        forEachExpr(stmt->as<AssignStmt>()->rhs, fn);
        break;
      case StmtKind::Display:
        for (auto &arg : stmt->as<DisplayStmt>()->args)
            forEachExpr(arg, fn);
        break;
      case StmtKind::Finish:
      case StmtKind::Null:
        break;
    }
}

void
forEachExpr(const Module &mod, const std::function<void(ExprPtr &)> &fn)
{
    for (const auto &item : mod.items) {
        switch (item->kind) {
          case ItemKind::ContAssign:
            forEachExpr(item->as<ContAssignItem>()->lhs, fn);
            forEachExpr(item->as<ContAssignItem>()->rhs, fn);
            break;
          case ItemKind::Always:
            forEachExpr(item->as<AlwaysItem>()->body, fn);
            break;
          case ItemKind::Instance:
            for (auto &conn : item->as<InstanceItem>()->conns)
                forEachExpr(conn.actual, fn);
            break;
          default:
            break;
        }
    }
}

namespace
{

/** The identifier @p node names (a select names its base), or null. */
std::string *
identOf(Expr &node)
{
    switch (node.kind) {
      case ExprKind::Id: return &node.as<IdExpr>()->name;
      case ExprKind::Index: return &node.as<IndexExpr>()->base;
      case ExprKind::Range: return &node.as<RangeExpr>()->base;
      default: return nullptr;
    }
}

} // namespace

void
forEachIdent(const ExprPtr &expr,
             const std::function<void(const std::string &)> &fn)
{
    ExprPtr root = expr;
    forEachExpr(root, [&fn](ExprPtr &node) {
        if (const std::string *name = identOf(*node))
            fn(*name);
    });
}

void
renameIdents(const ExprPtr &expr,
             const std::function<std::string(const std::string &)> &map)
{
    ExprPtr root = expr;
    forEachExpr(root, [&map](ExprPtr &node) {
        if (std::string *name = identOf(*node))
            *name = map(*name);
    });
}

void
renameIdents(const StmtPtr &stmt,
             const std::function<std::string(const std::string &)> &map)
{
    forEachExpr(stmt, [&map](ExprPtr &node) {
        if (std::string *name = identOf(*node))
            *name = map(*name);
    });
}

bool
exprEquals(const ExprPtr &a, const ExprPtr &b)
{
    if (!a || !b)
        return a == b;
    if (a->kind != b->kind)
        return false;
    switch (a->kind) {
      case ExprKind::Number:
        return a->as<NumberExpr>()->value == b->as<NumberExpr>()->value &&
               a->as<NumberExpr>()->value.width() ==
                   b->as<NumberExpr>()->value.width();
      case ExprKind::Id:
        return a->as<IdExpr>()->name == b->as<IdExpr>()->name;
      case ExprKind::Unary:
        return a->as<UnaryExpr>()->op == b->as<UnaryExpr>()->op &&
               exprEquals(a->as<UnaryExpr>()->arg, b->as<UnaryExpr>()->arg);
      case ExprKind::Binary:
        return a->as<BinaryExpr>()->op == b->as<BinaryExpr>()->op &&
               exprEquals(a->as<BinaryExpr>()->lhs,
                          b->as<BinaryExpr>()->lhs) &&
               exprEquals(a->as<BinaryExpr>()->rhs,
                          b->as<BinaryExpr>()->rhs);
      case ExprKind::Ternary:
        return exprEquals(a->as<TernaryExpr>()->cond,
                          b->as<TernaryExpr>()->cond) &&
               exprEquals(a->as<TernaryExpr>()->thenExpr,
                          b->as<TernaryExpr>()->thenExpr) &&
               exprEquals(a->as<TernaryExpr>()->elseExpr,
                          b->as<TernaryExpr>()->elseExpr);
      case ExprKind::Concat: {
        const auto &pa = a->as<ConcatExpr>()->parts;
        const auto &pb = b->as<ConcatExpr>()->parts;
        if (pa.size() != pb.size())
            return false;
        for (size_t i = 0; i < pa.size(); ++i)
            if (!exprEquals(pa[i], pb[i]))
                return false;
        return true;
      }
      case ExprKind::Repeat:
        return exprEquals(a->as<RepeatExpr>()->count,
                          b->as<RepeatExpr>()->count) &&
               exprEquals(a->as<RepeatExpr>()->inner,
                          b->as<RepeatExpr>()->inner);
      case ExprKind::Index:
        return a->as<IndexExpr>()->base == b->as<IndexExpr>()->base &&
               exprEquals(a->as<IndexExpr>()->index,
                          b->as<IndexExpr>()->index);
      case ExprKind::Range:
        return a->as<RangeExpr>()->base == b->as<RangeExpr>()->base &&
               exprEquals(a->as<RangeExpr>()->msb, b->as<RangeExpr>()->msb) &&
               exprEquals(a->as<RangeExpr>()->lsb, b->as<RangeExpr>()->lsb);
    }
    return false;
}

bool
stmtEquals(const StmtPtr &a, const StmtPtr &b)
{
    if (!a || !b)
        return a == b;
    if (a->kind != b->kind)
        return false;
    switch (a->kind) {
      case StmtKind::Block: {
        const auto &sa = a->as<BlockStmt>()->stmts;
        const auto &sb = b->as<BlockStmt>()->stmts;
        if (sa.size() != sb.size())
            return false;
        for (size_t i = 0; i < sa.size(); ++i)
            if (!stmtEquals(sa[i], sb[i]))
                return false;
        return true;
      }
      case StmtKind::If:
        return exprEquals(a->as<IfStmt>()->cond, b->as<IfStmt>()->cond) &&
               stmtEquals(a->as<IfStmt>()->thenStmt,
                          b->as<IfStmt>()->thenStmt) &&
               stmtEquals(a->as<IfStmt>()->elseStmt,
                          b->as<IfStmt>()->elseStmt);
      case StmtKind::Case: {
        const auto *ca = a->as<CaseStmt>();
        const auto *cb = b->as<CaseStmt>();
        if (ca->isCasez != cb->isCasez ||
            !exprEquals(ca->selector, cb->selector) ||
            ca->items.size() != cb->items.size())
            return false;
        for (size_t i = 0; i < ca->items.size(); ++i) {
            const auto &ia = ca->items[i];
            const auto &ib = cb->items[i];
            if (ia.labels.size() != ib.labels.size())
                return false;
            for (size_t j = 0; j < ia.labels.size(); ++j)
                if (!exprEquals(ia.labels[j], ib.labels[j]))
                    return false;
            if (!stmtEquals(ia.body, ib.body))
                return false;
        }
        return true;
      }
      case StmtKind::Assign:
        return a->as<AssignStmt>()->nonblocking ==
                   b->as<AssignStmt>()->nonblocking &&
               exprEquals(a->as<AssignStmt>()->lhs,
                          b->as<AssignStmt>()->lhs) &&
               exprEquals(a->as<AssignStmt>()->rhs,
                          b->as<AssignStmt>()->rhs);
      case StmtKind::Display: {
        const auto *da = a->as<DisplayStmt>();
        const auto *db = b->as<DisplayStmt>();
        if (da->format != db->format || da->args.size() != db->args.size())
            return false;
        for (size_t i = 0; i < da->args.size(); ++i)
            if (!exprEquals(da->args[i], db->args[i]))
                return false;
        return true;
      }
      case StmtKind::Finish:
      case StmtKind::Null:
        return true;
    }
    return false;
}

namespace
{

bool
rangeEquals(const std::optional<AstRange> &a,
            const std::optional<AstRange> &b)
{
    if (a.has_value() != b.has_value())
        return false;
    if (!a)
        return true;
    return exprEquals(a->msb, b->msb) && exprEquals(a->lsb, b->lsb);
}

} // namespace

bool
itemEquals(const ItemPtr &a, const ItemPtr &b)
{
    if (!a || !b)
        return a == b;
    if (a->kind != b->kind)
        return false;
    switch (a->kind) {
      case ItemKind::Param: {
        const auto *pa = a->as<ParamItem>();
        const auto *pb = b->as<ParamItem>();
        return pa->name == pb->name && pa->isLocal == pb->isLocal &&
               pa->inHeader == pb->inHeader &&
               exprEquals(pa->value, pb->value);
      }
      case ItemKind::Net: {
        const auto *na = a->as<NetItem>();
        const auto *nb = b->as<NetItem>();
        return na->net == nb->net && na->dir == nb->dir &&
               na->name == nb->name && rangeEquals(na->range, nb->range) &&
               rangeEquals(na->array, nb->array);
      }
      case ItemKind::ContAssign:
        return exprEquals(a->as<ContAssignItem>()->lhs,
                          b->as<ContAssignItem>()->lhs) &&
               exprEquals(a->as<ContAssignItem>()->rhs,
                          b->as<ContAssignItem>()->rhs);
      case ItemKind::Always: {
        const auto *aa = a->as<AlwaysItem>();
        const auto *ab = b->as<AlwaysItem>();
        if (aa->isComb != ab->isComb || aa->sens.size() != ab->sens.size())
            return false;
        for (size_t i = 0; i < aa->sens.size(); ++i)
            if (aa->sens[i].edge != ab->sens[i].edge ||
                aa->sens[i].signal != ab->sens[i].signal)
                return false;
        return stmtEquals(aa->body, ab->body);
      }
      case ItemKind::Instance: {
        const auto *ia = a->as<InstanceItem>();
        const auto *ib = b->as<InstanceItem>();
        if (ia->moduleName != ib->moduleName ||
            ia->instName != ib->instName ||
            ia->paramOverrides.size() != ib->paramOverrides.size() ||
            ia->conns.size() != ib->conns.size())
            return false;
        for (size_t i = 0; i < ia->paramOverrides.size(); ++i)
            if (ia->paramOverrides[i].first !=
                    ib->paramOverrides[i].first ||
                !exprEquals(ia->paramOverrides[i].second,
                            ib->paramOverrides[i].second))
                return false;
        for (size_t i = 0; i < ia->conns.size(); ++i)
            if (ia->conns[i].formal != ib->conns[i].formal ||
                !exprEquals(ia->conns[i].actual, ib->conns[i].actual))
                return false;
        return true;
      }
    }
    return false;
}

bool
moduleEquals(const Module &a, const Module &b)
{
    if (a.name != b.name || a.ports != b.ports ||
        a.items.size() != b.items.size())
        return false;
    for (size_t i = 0; i < a.items.size(); ++i)
        if (!itemEquals(a.items[i], b.items[i]))
            return false;
    return true;
}

bool
designEquals(const Design &a, const Design &b)
{
    if (a.modules.size() != b.modules.size())
        return false;
    for (size_t i = 0; i < a.modules.size(); ++i)
        if (!moduleEquals(*a.modules[i], *b.modules[i]))
            return false;
    return true;
}

} // namespace hwdbg::hdl
