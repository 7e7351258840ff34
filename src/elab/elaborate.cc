#include "elab/elaborate.hh"

#include <set>

#include "common/logging.hh"
#include "elab/ip_models.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hwdbg::elab
{

using namespace hdl;

bool
isPrimitive(const std::string &module_name)
{
    return lookupIpModel(module_name) != nullptr;
}

Bits
evalConst(const ExprPtr &expr, const std::map<std::string, Bits> &env)
{
    if (!expr)
        fatal("missing constant expression");
    switch (expr->kind) {
      case ExprKind::Number:
        return expr->as<NumberExpr>()->value;
      case ExprKind::Id: {
        const auto &name = expr->as<IdExpr>()->name;
        auto it = env.find(name);
        if (it == env.end())
            fatal("%s: '%s' is not a constant", expr->loc.str().c_str(),
                  name.c_str());
        return it->second;
      }
      case ExprKind::Unary: {
        const auto *un = expr->as<UnaryExpr>();
        Bits arg = evalConst(un->arg, env);
        switch (un->op) {
          case UnaryOp::Neg: return arg.negate();
          case UnaryOp::LogNot: return Bits(1, arg.isZero() ? 1 : 0);
          case UnaryOp::BitNot: return arg.bitNot();
          case UnaryOp::RedAnd: return Bits(1, arg.redAnd() ? 1 : 0);
          case UnaryOp::RedOr: return Bits(1, arg.redOr() ? 1 : 0);
          case UnaryOp::RedXor: return Bits(1, arg.redXor() ? 1 : 0);
        }
        break;
      }
      case ExprKind::Binary: {
        const auto *bin = expr->as<BinaryExpr>();
        Bits lhs = evalConst(bin->lhs, env);
        Bits rhs = evalConst(bin->rhs, env);
        switch (bin->op) {
          case BinaryOp::Add: return lhs.add(rhs);
          case BinaryOp::Sub: return lhs.sub(rhs);
          case BinaryOp::Mul: return lhs.mul(rhs);
          case BinaryOp::Div: return lhs.divu(rhs);
          case BinaryOp::Mod: return lhs.modu(rhs);
          case BinaryOp::BitAnd: return lhs.bitAnd(rhs);
          case BinaryOp::BitOr: return lhs.bitOr(rhs);
          case BinaryOp::BitXor: return lhs.bitXor(rhs);
          case BinaryOp::LogAnd:
            return Bits(1, (!lhs.isZero() && !rhs.isZero()) ? 1 : 0);
          case BinaryOp::LogOr:
            return Bits(1, (!lhs.isZero() || !rhs.isZero()) ? 1 : 0);
          case BinaryOp::Eq: return Bits(1, lhs.compare(rhs) == 0 ? 1 : 0);
          case BinaryOp::Ne: return Bits(1, lhs.compare(rhs) != 0 ? 1 : 0);
          case BinaryOp::Lt: return Bits(1, lhs.compare(rhs) < 0 ? 1 : 0);
          case BinaryOp::Le: return Bits(1, lhs.compare(rhs) <= 0 ? 1 : 0);
          case BinaryOp::Gt: return Bits(1, lhs.compare(rhs) > 0 ? 1 : 0);
          case BinaryOp::Ge: return Bits(1, lhs.compare(rhs) >= 0 ? 1 : 0);
          case BinaryOp::Shl: return lhs.shl(rhs.toU64());
          case BinaryOp::Shr: return lhs.shr(rhs.toU64());
        }
        break;
      }
      case ExprKind::Ternary: {
        const auto *tern = expr->as<TernaryExpr>();
        Bits cond = evalConst(tern->cond, env);
        return evalConst(cond.isZero() ? tern->elseExpr : tern->thenExpr,
                         env);
      }
      case ExprKind::Concat: {
        const auto *cat = expr->as<ConcatExpr>();
        Bits out(0);
        bool first = true;
        for (const auto &part : cat->parts) {
            Bits val = evalConst(part, env);
            out = first ? val : out.concat(val);
            first = false;
        }
        return out;
      }
      case ExprKind::Repeat: {
        const auto *rep = expr->as<RepeatExpr>();
        uint64_t count = evalConst(rep->count, env).toU64();
        return evalConst(rep->inner, env)
            .replicate(static_cast<uint32_t>(count));
      }
      case ExprKind::Index:
      case ExprKind::Range:
        fatal("%s: bit/part selects are not constant expressions",
              expr->loc.str().c_str());
    }
    panic("evalConst: unreachable");
}

namespace
{

/** Replace parameter references in @p expr with literal numbers. */
void
substConsts(ExprPtr &expr, const std::map<std::string, Bits> &env)
{
    if (!expr)
        return;
    switch (expr->kind) {
      case ExprKind::Number:
        break;
      case ExprKind::Id: {
        auto it = env.find(expr->as<IdExpr>()->name);
        if (it != env.end()) {
            SourceLoc loc = expr->loc;
            expr = mkNum(it->second);
            expr->loc = loc;
        }
        break;
      }
      case ExprKind::Unary:
        substConsts(
            std::static_pointer_cast<UnaryExpr>(expr)->arg, env);
        break;
      case ExprKind::Binary: {
        auto bin = std::static_pointer_cast<BinaryExpr>(expr);
        substConsts(bin->lhs, env);
        substConsts(bin->rhs, env);
        break;
      }
      case ExprKind::Ternary: {
        auto tern = std::static_pointer_cast<TernaryExpr>(expr);
        substConsts(tern->cond, env);
        substConsts(tern->thenExpr, env);
        substConsts(tern->elseExpr, env);
        break;
      }
      case ExprKind::Concat:
        for (auto &part : std::static_pointer_cast<ConcatExpr>(expr)->parts)
            substConsts(part, env);
        break;
      case ExprKind::Repeat: {
        auto rep = std::static_pointer_cast<RepeatExpr>(expr);
        substConsts(rep->count, env);
        substConsts(rep->inner, env);
        break;
      }
      case ExprKind::Index:
        substConsts(std::static_pointer_cast<IndexExpr>(expr)->index, env);
        break;
      case ExprKind::Range: {
        auto range = std::static_pointer_cast<RangeExpr>(expr);
        substConsts(range->msb, env);
        substConsts(range->lsb, env);
        break;
      }
    }
}

void
substConstsStmt(const StmtPtr &stmt, const std::map<std::string, Bits> &env)
{
    if (!stmt)
        return;
    switch (stmt->kind) {
      case StmtKind::Block:
        for (auto &sub : stmt->as<BlockStmt>()->stmts)
            substConstsStmt(sub, env);
        break;
      case StmtKind::If: {
        auto *branch = stmt->as<IfStmt>();
        substConsts(branch->cond, env);
        substConstsStmt(branch->thenStmt, env);
        substConstsStmt(branch->elseStmt, env);
        break;
      }
      case StmtKind::Case: {
        auto *sel = stmt->as<CaseStmt>();
        substConsts(sel->selector, env);
        for (auto &item : sel->items) {
            for (auto &label : item.labels)
                substConsts(label, env);
            substConstsStmt(item.body, env);
        }
        break;
      }
      case StmtKind::Assign: {
        auto *assign = stmt->as<AssignStmt>();
        substConsts(assign->lhs, env);
        substConsts(assign->rhs, env);
        break;
      }
      case StmtKind::Display:
        for (auto &arg : stmt->as<DisplayStmt>()->args)
            substConsts(arg, env);
        break;
      case StmtKind::Finish:
      case StmtKind::Null:
        break;
    }
}

bool
isLValueExpr(const ExprPtr &expr)
{
    switch (expr->kind) {
      case ExprKind::Id:
      case ExprKind::Index:
      case ExprKind::Range:
        return true;
      case ExprKind::Concat:
        for (const auto &part : expr->as<ConcatExpr>()->parts)
            if (!isLValueExpr(part))
                return false;
        return true;
      default:
        return false;
    }
}

class Elaborator
{
  public:
    Elaborator(const Design &design) : design_(design) {}

    ElabResult
    run(const std::string &top, const std::map<std::string, Bits> &overrides)
    {
        ModulePtr top_mod = design_.findModule(top);
        if (!top_mod)
            fatal("top module '%s' not found", top.c_str());
        result_.mod = std::make_shared<Module>();
        result_.mod->name = top_mod->name;
        result_.mod->loc = top_mod->loc;
        elabModule(*top_mod, overrides, "", true);
        return std::move(result_);
    }

  private:
    void
    elabModule(const Module &mod, const std::map<std::string, Bits> &params,
               const std::string &prefix, bool is_top)
    {
        if (!instancePath_.insert(mod.name).second)
            fatal("recursive instantiation of module '%s'",
                  mod.name.c_str());

        std::map<std::string, Bits> env;
        auto flatten = [&](const std::string &name) {
            return prefix + name;
        };

        for (const auto &item : mod.items) {
            switch (item->kind) {
              case ItemKind::Param: {
                const auto *param = item->as<ParamItem>();
                Bits value;
                auto over = params.find(param->name);
                if (over != params.end() && !param->isLocal)
                    value = over->second;
                else
                    value = evalConst(param->value, env);
                env[param->name] = value;
                result_.constants[flatten(param->name)] = value;
                break;
              }
              case ItemKind::Net: {
                auto net = std::make_shared<NetItem>();
                const auto *src = item->as<NetItem>();
                net->loc = src->loc;
                net->net = src->net;
                net->dir = is_top ? src->dir : PortDir::None;
                net->name = flatten(src->name);
                if (!declared_.insert(net->name).second)
                    fatal("%s: duplicate declaration of '%s'",
                          net->loc.str().c_str(), net->name.c_str());
                if (src->range) {
                    Bits msb = evalConst(src->range->msb, env);
                    Bits lsb = evalConst(src->range->lsb, env);
                    if (!lsb.isZero())
                        fatal("%s: only [N:0] vector ranges are supported "
                              "(signal '%s')", net->loc.str().c_str(),
                              net->name.c_str());
                    net->range = AstRange{mkNum(msb.resized(32), false),
                                          mkNum(lsb.resized(32), false)};
                }
                if (src->array) {
                    // Normalize memory bounds to [size-1:0] regardless of
                    // the declaration order ([0:N] or [N:0]).
                    uint64_t bound_a =
                        evalConst(src->array->msb, env).toU64();
                    uint64_t bound_b =
                        evalConst(src->array->lsb, env).toU64();
                    uint64_t hi = std::max(bound_a, bound_b);
                    if (std::min(bound_a, bound_b) != 0)
                        fatal("%s: memory bounds must start at 0 "
                              "(signal '%s')", net->loc.str().c_str(),
                              net->name.c_str());
                    if (net->net != NetKind::Reg)
                        fatal("%s: memories must be regs ('%s')",
                              net->loc.str().c_str(), net->name.c_str());
                    net->array = AstRange{mkNum(Bits(32, hi), false),
                                          mkNum(Bits(32, 0), false)};
                }
                result_.mod->items.push_back(net);
                if (is_top && src->dir != PortDir::None)
                    result_.mod->ports.push_back(net->name);
                break;
              }
              case ItemKind::ContAssign: {
                auto assign = std::static_pointer_cast<ContAssignItem>(
                    cloneItem(item));
                substConsts(assign->lhs, env);
                substConsts(assign->rhs, env);
                if (!prefix.empty()) {
                    renameIdents(assign->lhs, flatten);
                    renameIdents(assign->rhs, flatten);
                }
                result_.mod->items.push_back(assign);
                break;
              }
              case ItemKind::Always: {
                auto always = std::static_pointer_cast<AlwaysItem>(
                    cloneItem(item));
                substConstsStmt(always->body, env);
                if (!prefix.empty()) {
                    renameIdents(always->body, flatten);
                    for (auto &sens : always->sens)
                        sens.signal = flatten(sens.signal);
                }
                result_.mod->items.push_back(always);
                break;
              }
              case ItemKind::Instance:
                elabInstance(*item->as<InstanceItem>(), env, prefix);
                break;
            }
        }

        instancePath_.erase(mod.name);
    }

    void
    elabInstance(const InstanceItem &inst,
                 const std::map<std::string, Bits> &env,
                 const std::string &prefix)
    {
        HWDBG_STAT_INC("elab.instances", 1);
        auto flatten = [&](const std::string &name) {
            return prefix + name;
        };

        std::map<std::string, Bits> sub_params;
        for (const auto &[name, value] : inst.paramOverrides)
            sub_params[name] = evalConst(value, env);

        if (isPrimitive(inst.moduleName)) {
            auto prim = std::make_shared<InstanceItem>();
            prim->loc = inst.loc;
            prim->moduleName = inst.moduleName;
            prim->instName = flatten(inst.instName);
            for (const auto &[name, value] : sub_params)
                prim->paramOverrides.emplace_back(name, mkNum(value));
            for (const auto &conn : inst.conns) {
                if (conn.formal.empty())
                    fatal("%s: primitive '%s' requires named port "
                          "connections", inst.loc.str().c_str(),
                          inst.moduleName.c_str());
                PortConn out;
                out.formal = conn.formal;
                if (conn.actual) {
                    out.actual = cloneExpr(conn.actual);
                    substConsts(out.actual, env);
                    if (!prefix.empty())
                        renameIdents(out.actual, flatten);
                }
                prim->conns.push_back(std::move(out));
            }
            result_.mod->items.push_back(prim);
            return;
        }

        ModulePtr sub = design_.findModule(inst.moduleName);
        if (!sub)
            fatal("%s: unknown module '%s'", inst.loc.str().c_str(),
                  inst.moduleName.c_str());

        std::string sub_prefix = prefix + inst.instName + "__";

        // Bind ports with continuous assignments.
        std::vector<PortConn> conns = inst.conns;
        bool positional = !conns.empty() && conns[0].formal.empty();
        if (positional) {
            if (conns.size() > sub->ports.size())
                fatal("%s: too many connections for '%s'",
                      inst.loc.str().c_str(), inst.moduleName.c_str());
            for (size_t i = 0; i < conns.size(); ++i)
                conns[i].formal = sub->ports[i];
        }

        std::set<std::string> seen;
        for (const auto &conn : conns) {
            NetItem *port = sub->findNet(conn.formal);
            if (!port || port->dir == PortDir::None)
                fatal("%s: '%s' has no port '%s'", inst.loc.str().c_str(),
                      inst.moduleName.c_str(), conn.formal.c_str());
            if (!seen.insert(conn.formal).second)
                fatal("%s: port '%s' connected twice",
                      inst.loc.str().c_str(), conn.formal.c_str());

            ExprPtr actual;
            if (conn.actual) {
                actual = cloneExpr(conn.actual);
                substConsts(actual, env);
                if (!prefix.empty())
                    renameIdents(actual, flatten);
            }

            auto bind = std::make_shared<ContAssignItem>();
            bind->loc = inst.loc;
            if (port->dir == PortDir::Input) {
                if (!actual) {
                    warn("%s: input port '%s.%s' left unconnected; tied "
                         "to 0", inst.loc.str().c_str(),
                         inst.instName.c_str(), conn.formal.c_str());
                    actual = mkNum(1, 0);
                }
                bind->lhs = mkId(sub_prefix + conn.formal);
                bind->rhs = actual;
            } else {
                if (!actual)
                    continue; // unconnected output
                if (!isLValueExpr(actual))
                    fatal("%s: output port '%s.%s' must connect to an "
                          "assignable expression", inst.loc.str().c_str(),
                          inst.instName.c_str(), conn.formal.c_str());
                bind->lhs = actual;
                bind->rhs = mkId(sub_prefix + conn.formal);
            }
            result_.mod->items.push_back(bind);
        }

        elabModule(*sub, sub_params, sub_prefix, false);
    }

    const Design &design_;
    ElabResult result_;
    std::set<std::string> instancePath_;
    /** Flattened net names declared so far. */
    std::set<std::string> declared_;
};

} // namespace

ElabResult
elaborate(const Design &design, const std::string &top,
          const std::map<std::string, Bits> &overrides)
{
    obs::ObsSpan span("elaborate");
    ElabResult result = Elaborator(design).run(top, overrides);
    HWDBG_STAT_INC("elab.runs", 1);
    HWDBG_STAT_INC("elab.ports", result.mod->ports.size());
    HWDBG_STAT_INC("elab.items", result.mod->items.size());
    return result;
}

} // namespace hwdbg::elab
