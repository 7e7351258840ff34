#include "sim/design.hh"

#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hwdbg::sim
{

using namespace hdl;

uint64_t
constU64(const ExprPtr &expr)
{
    return elab::evalConst(expr, {}).toU64();
}

LoweredDesign::LoweredDesign(ModulePtr mod) : mod_(std::move(mod))
{
    obs::ObsSpan span("lower");
    collectSignals();
    HWDBG_STAT_INC("sim.lowered_designs", 1);
    HWDBG_STAT_INC("sim.lowered_signals", signals_.size());

    for (const auto &item : mod_->items) {
        switch (item->kind) {
          case ItemKind::Param:
            break; // resolved during elaboration; nothing to lower
          case ItemKind::Net:
            break;
          case ItemKind::ContAssign: {
            auto *assign = item->as<ContAssignItem>();
            annotateExpr(assign->rhs);
            annotateExpr(assign->lhs);
            checkLValue(assign->lhs, false);
            assigns_.push_back(assign);
            break;
          }
          case ItemKind::Always: {
            auto *always = item->as<AlwaysItem>();
            annotateStmt(always->body);
            if (always->isComb) {
                comb_.push_back(always);
            } else {
                if (always->sens.empty())
                    fatal("%s: always block has no sensitivity list",
                          item->loc.str().c_str());
                for (const auto &sens : always->sens) {
                    int id = requireSignal(sens.signal);
                    if (info(id).width != 1 || info(id).arraySize != 0)
                        fatal("%s: clock '%s' must be a 1-bit scalar",
                              item->loc.str().c_str(),
                              sens.signal.c_str());
                }
                clocked_.push_back(always);
            }
            break;
          }
          case ItemKind::Instance: {
            auto *inst = item->as<InstanceItem>();
            if (!elab::isPrimitive(inst->moduleName))
                fatal("%s: instance '%s' of '%s' survived elaboration",
                      inst->loc.str().c_str(), inst->instName.c_str(),
                      inst->moduleName.c_str());
            for (const auto &conn : inst->conns)
                if (conn.actual)
                    annotateExpr(conn.actual);
            prims_.push_back(inst);
            break;
          }
        }
    }
}

void
LoweredDesign::collectSignals()
{
    for (const auto &item : mod_->items) {
        if (item->kind != ItemKind::Net)
            continue;
        const auto *net = item->as<NetItem>();
        SignalInfo sig;
        sig.name = net->name;
        sig.isReg = net->net == NetKind::Reg;
        sig.dir = net->dir;
        // Elaboration has checked the declaration: vectors are [N:0],
        // memories are regs based at 0, names are unique.
        if (net->range)
            sig.width = static_cast<uint32_t>(constU64(net->range->msb)) + 1;
        if (net->array)
            sig.arraySize =
                static_cast<uint32_t>(constU64(net->array->msb)) + 1;
        byName_[sig.name] = static_cast<int>(signals_.size());
        signals_.push_back(std::move(sig));
    }
}

int
LoweredDesign::signalId(const std::string &name) const
{
    auto it = byName_.find(name);
    return it == byName_.end() ? -1 : it->second;
}

int
LoweredDesign::requireSignal(const std::string &name) const
{
    int id = signalId(name);
    if (id < 0)
        fatal("unknown signal '%s'", name.c_str());
    return id;
}

uint32_t
LoweredDesign::annotateExpr(const ExprPtr &expr) const
{
    if (!expr)
        panic("annotateExpr: null expression");
    switch (expr->kind) {
      case ExprKind::Number: {
        const auto *num = expr->as<NumberExpr>();
        expr->width =
            num->sized ? num->value.width()
                       : std::max<uint32_t>(32, num->value.width());
        break;
      }
      case ExprKind::Id: {
        auto *id = expr->as<IdExpr>();
        int sig = signalId(id->name);
        if (sig < 0)
            fatal("%s: unknown signal '%s'", expr->loc.str().c_str(),
                  id->name.c_str());
        if (info(sig).arraySize != 0)
            fatal("%s: memory '%s' referenced without an index",
                  expr->loc.str().c_str(), id->name.c_str());
        id->resolved = sig;
        expr->width = info(sig).width;
        break;
      }
      case ExprKind::Unary: {
        auto *un = expr->as<UnaryExpr>();
        uint32_t arg_width = annotateExpr(un->arg);
        switch (un->op) {
          case UnaryOp::Neg:
          case UnaryOp::BitNot:
            expr->width = arg_width;
            break;
          default:
            expr->width = 1;
            break;
        }
        break;
      }
      case ExprKind::Binary: {
        auto *bin = expr->as<BinaryExpr>();
        uint32_t lhs_width = annotateExpr(bin->lhs);
        uint32_t rhs_width = annotateExpr(bin->rhs);
        switch (bin->op) {
          case BinaryOp::Add:
          case BinaryOp::Sub:
          case BinaryOp::Mul:
          case BinaryOp::Div:
          case BinaryOp::Mod:
          case BinaryOp::BitAnd:
          case BinaryOp::BitOr:
          case BinaryOp::BitXor:
            expr->width = std::max(lhs_width, rhs_width);
            break;
          case BinaryOp::Shl:
          case BinaryOp::Shr:
            expr->width = lhs_width;
            break;
          default:
            expr->width = 1;
            break;
        }
        break;
      }
      case ExprKind::Ternary: {
        auto *tern = expr->as<TernaryExpr>();
        annotateExpr(tern->cond);
        uint32_t then_width = annotateExpr(tern->thenExpr);
        uint32_t else_width = annotateExpr(tern->elseExpr);
        expr->width = std::max(then_width, else_width);
        break;
      }
      case ExprKind::Concat: {
        auto *cat = expr->as<ConcatExpr>();
        uint32_t total = 0;
        for (const auto &part : cat->parts)
            total += annotateExpr(part);
        expr->width = total;
        break;
      }
      case ExprKind::Repeat: {
        auto *rep = expr->as<RepeatExpr>();
        uint64_t count = constU64(rep->count);
        if (count == 0)
            fatal("%s: replication count must be positive",
                  expr->loc.str().c_str());
        annotateExpr(rep->count);
        uint32_t inner = annotateExpr(rep->inner);
        expr->width = inner * static_cast<uint32_t>(count);
        break;
      }
      case ExprKind::Index: {
        auto *idx = expr->as<IndexExpr>();
        int sig = signalId(idx->base);
        if (sig < 0)
            fatal("%s: unknown signal '%s'", expr->loc.str().c_str(),
                  idx->base.c_str());
        idx->resolved = sig;
        annotateExpr(idx->index);
        expr->width = info(sig).arraySize != 0 ? info(sig).width : 1;
        break;
      }
      case ExprKind::Range: {
        auto *range = expr->as<RangeExpr>();
        int sig = signalId(range->base);
        if (sig < 0)
            fatal("%s: unknown signal '%s'", expr->loc.str().c_str(),
                  range->base.c_str());
        if (info(sig).arraySize != 0)
            fatal("%s: part select of memory '%s' is not supported",
                  expr->loc.str().c_str(), range->base.c_str());
        range->resolved = sig;
        uint64_t msb = constU64(range->msb);
        uint64_t lsb = constU64(range->lsb);
        if (msb < lsb)
            fatal("%s: reversed part select on '%s'",
                  expr->loc.str().c_str(), range->base.c_str());
        range->msbConst = static_cast<uint32_t>(msb);
        range->lsbConst = static_cast<uint32_t>(lsb);
        expr->width = range->msbConst - range->lsbConst + 1;
        break;
      }
    }
    return expr->width;
}

void
LoweredDesign::checkLValue(const ExprPtr &lhs, bool in_clocked)
{
    switch (lhs->kind) {
      case ExprKind::Id: {
        const auto *id = lhs->as<IdExpr>();
        const SignalInfo &sig = info(id->resolved);
        if (!in_clocked && sig.isReg)
            fatal("%s: continuous assignment to reg '%s'",
                  lhs->loc.str().c_str(), sig.name.c_str());
        if (in_clocked && !sig.isReg)
            fatal("%s: procedural assignment to wire '%s'",
                  lhs->loc.str().c_str(), sig.name.c_str());
        break;
      }
      case ExprKind::Index:
      case ExprKind::Range:
        break;
      case ExprKind::Concat:
        for (const auto &part : lhs->as<ConcatExpr>()->parts)
            checkLValue(part, in_clocked);
        break;
      default:
        fatal("%s: expression is not assignable",
              lhs->loc.str().c_str());
    }
}

void
LoweredDesign::annotateStmt(const StmtPtr &stmt)
{
    if (!stmt)
        return;
    switch (stmt->kind) {
      case StmtKind::Block:
        for (const auto &sub : stmt->as<BlockStmt>()->stmts)
            annotateStmt(sub);
        break;
      case StmtKind::If: {
        auto *branch = stmt->as<IfStmt>();
        annotateExpr(branch->cond);
        annotateStmt(branch->thenStmt);
        annotateStmt(branch->elseStmt);
        break;
      }
      case StmtKind::Case: {
        auto *sel = stmt->as<CaseStmt>();
        annotateExpr(sel->selector);
        for (const auto &item : sel->items) {
            for (const auto &label : item.labels)
                annotateExpr(label);
            annotateStmt(item.body);
        }
        break;
      }
      case StmtKind::Assign: {
        auto *assign = stmt->as<AssignStmt>();
        annotateExpr(assign->lhs);
        annotateExpr(assign->rhs);
        checkLValue(assign->lhs, true);
        break;
      }
      case StmtKind::Display:
        for (const auto &arg : stmt->as<DisplayStmt>()->args)
            annotateExpr(arg);
        break;
      case StmtKind::Finish:
      case StmtKind::Null:
        break;
    }
}

} // namespace hwdbg::sim
