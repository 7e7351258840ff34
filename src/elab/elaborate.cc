#include "elab/elaborate.hh"

#include <set>
#include <utility>

#include "common/logging.hh"
#include "elab/ip_models.hh"
#include "hdl/parser.hh"
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

namespace
{

/**
 * The one constant folder, behind evalConst() and tryEvalConst(). It
 * never throws: the first node it cannot fold marks the fold failed
 * (describing the node in @p why when set) and folds as a 1-bit zero.
 */
class Folder
{
  public:
    Folder(const std::map<std::string, Bits> &env, std::string *why)
        : env_(env), why_(why)
    {
    }

    /** Set once a node did not fold; the value is then meaningless. */
    bool failed = false;

    Bits
    fold(const ExprPtr &expr)
    {
        if (failed)
            return Bits();
        if (!expr)
            return fail(nullptr, "missing constant expression");
        switch (expr->kind) {
          case ExprKind::Number:
            return expr->as<NumberExpr>()->value;
          case ExprKind::Id: {
            const auto &name = expr->as<IdExpr>()->name;
            auto it = env_.find(name);
            if (it == env_.end())
                return fail(expr.get(), "'" + name + "' is not a constant");
            return it->second;
          }
          case ExprKind::Unary: {
            const auto *un = expr->as<UnaryExpr>();
            Bits arg = fold(un->arg);
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
            Bits lhs = fold(bin->lhs);
            Bits rhs = fold(bin->rhs);
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
              case BinaryOp::Eq: return Bits(1, lhs.compare(rhs) == 0);
              case BinaryOp::Ne: return Bits(1, lhs.compare(rhs) != 0);
              case BinaryOp::Lt: return Bits(1, lhs.compare(rhs) < 0);
              case BinaryOp::Le: return Bits(1, lhs.compare(rhs) <= 0);
              case BinaryOp::Gt: return Bits(1, lhs.compare(rhs) > 0);
              case BinaryOp::Ge: return Bits(1, lhs.compare(rhs) >= 0);
              case BinaryOp::Shl: return lhs.shl(rhs.toU64());
              case BinaryOp::Shr: return lhs.shr(rhs.toU64());
            }
            break;
          }
          case ExprKind::Ternary: {
            const auto *tern = expr->as<TernaryExpr>();
            Bits cond = fold(tern->cond);
            return fold(cond.isZero() ? tern->elseExpr : tern->thenExpr);
          }
          case ExprKind::Concat: {
            Bits out(0);
            bool first = true;
            for (const auto &part : expr->as<ConcatExpr>()->parts) {
                Bits low = fold(part);
                if (!first && out.width() + low.width() > kMaxVectorWidth)
                    return fail(expr.get(),
                                csprintf("concatenation is wider than %u "
                                         "bits", kMaxVectorWidth));
                out = first ? low : out.concat(low);
                first = false;
            }
            return out;
          }
          case ExprKind::Repeat: {
            const auto *rep = expr->as<RepeatExpr>();
            uint32_t n = count(*rep);
            Bits inner = fold(rep->inner);
            if (uint64_t{inner.width()} * n > kMaxVectorWidth)
                return fail(expr.get(),
                            csprintf("replication is wider than %u bits",
                                     kMaxVectorWidth));
            return inner.replicate(n);
          }
          case ExprKind::Index:
          case ExprKind::Range:
            return fail(expr.get(),
                        "bit/part selects are not constant expressions");
        }
        panic("evalConst: unreachable");
    }

    /** Count of @p rep, which must lie in 1..kMaxReplication. */
    uint32_t
    count(const RepeatExpr &rep)
    {
        Bits n = fold(rep.count);
        if (n.isZero())
            fail(&rep, "replication count must be positive");
        else if (n.compare(Bits(32, kMaxReplication)) > 0)
            fail(&rep, csprintf("replication count %s is larger than %u",
                                n.toDecString().c_str(), kMaxReplication));
        return failed ? 1 : static_cast<uint32_t>(n.toU64());
    }

  private:
    Bits
    fail(const Expr *at, const std::string &msg)
    {
        if (!failed && why_)
            *why_ = at ? at->loc.str() + ": " + msg : msg;
        failed = true;
        return Bits();
    }

    const std::map<std::string, Bits> &env_;
    std::string *why_;
};

/** True when a declared [@p msb:0] holds more than @p cap entries. */
bool
exceeds(const Bits &msb, uint32_t cap)
{
    return msb.compare(Bits(32, cap - 1)) > 0;
}

/** N + 1 for a declared [N:0]; 0 when N does not fold. */
uint32_t
extent(const AstRange &range)
{
    auto msb = tryEvalConst(range.msb);
    return msb ? static_cast<uint32_t>(msb->toU64()) + 1 : 0;
}

} // namespace

Bits
evalConst(const ExprPtr &expr, const std::map<std::string, Bits> &env)
{
    std::string why;
    Folder folder(env, &why);
    Bits value = folder.fold(expr);
    if (folder.failed)
        fatal("%s", why.c_str());
    return value;
}

std::optional<Bits>
tryEvalConst(const ExprPtr &expr)
{
    const std::map<std::string, Bits> no_params;
    Folder folder(no_params, nullptr);
    Bits value = folder.fold(expr);
    if (folder.failed)
        return std::nullopt;
    return value;
}

uint32_t
replicationCount(const RepeatExpr &rep,
                 const std::map<std::string, Bits> &env)
{
    std::string why;
    Folder folder(env, &why);
    uint32_t count = folder.count(rep);
    if (folder.failed)
        fatal("%s", why.c_str());
    return count;
}

std::pair<uint32_t, uint32_t>
partSelectBounds(const RangeExpr &range, bool of_memory)
{
    std::string loc = range.loc.str();
    const char *base = range.base.c_str();
    if (of_memory)
        fatal("%s: part select of memory '%s' is not supported",
              loc.c_str(), base);
    Bits msb = evalConst(range.msb, {});
    Bits lsb = evalConst(range.lsb, {});
    if (msb.compare(lsb) < 0)
        fatal("%s: reversed part select on '%s'", loc.c_str(), base);
    if (msb.compare(Bits(32, kMaxVectorWidth)) >= 0)
        fatal("%s: part select of '%s' reaches past the %u-bit limit",
              loc.c_str(), base, kMaxVectorWidth);
    return {static_cast<uint32_t>(msb.toU64()),
            static_cast<uint32_t>(lsb.toU64())};
}

uint32_t
netWidth(const NetItem &net)
{
    return net.range ? extent(*net.range) : 1;
}

uint32_t
memoryDepth(const NetItem &net)
{
    return net.array ? extent(*net.array) : 0;
}

namespace
{

/**
 * A forEachExpr() visitor that replaces parameter references with
 * literal numbers and holds every replication to the count cap.
 */
std::function<void(ExprPtr &)>
substConsts(const std::map<std::string, Bits> &env)
{
    return [&env](ExprPtr &node) {
        if (node->kind == ExprKind::Repeat)
            replicationCount(*node->as<RepeatExpr>(), env);
        if (node->kind != ExprKind::Id)
            return;
        auto it = env.find(node->as<IdExpr>()->name);
        if (it != env.end()) {
            SourceLoc loc = node->loc;
            node = mkNum(it->second);
            node->loc = loc;
        }
    };
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

/** partSelectBounds() on every part select of flat module @p mod. */
void
checkPartSelects(const Module &mod)
{
    std::set<std::string> memories;
    for (const auto &item : mod.items)
        if (item->kind == ItemKind::Net && item->as<NetItem>()->array)
            memories.insert(item->as<NetItem>()->name);
    forEachExpr(mod, [&](ExprPtr &expr) {
        if (expr->kind == ExprKind::Range) {
            const auto *range = expr->as<RangeExpr>();
            partSelectBounds(*range, memories.count(range->base) != 0);
        }
    });
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
        checkPartSelects(*result_.mod);
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
                    if (exceeds(msb, kMaxVectorWidth))
                        fatal("%s: '%s' is wider than %u bits",
                              net->loc.str().c_str(), net->name.c_str(),
                              kMaxVectorWidth);
                    net->range = AstRange{mkNum(msb.resized(32), false),
                                          mkNum(lsb.resized(32), false)};
                }
                if (src->array) {
                    // Normalize memory bounds to [size-1:0] regardless of
                    // the declaration order ([0:N] or [N:0]).
                    Bits hi = evalConst(src->array->msb, env);
                    Bits lo = evalConst(src->array->lsb, env);
                    if (hi.compare(lo) < 0)
                        std::swap(hi, lo);
                    if (!lo.isZero())
                        fatal("%s: memory bounds must start at 0 "
                              "(signal '%s')", net->loc.str().c_str(),
                              net->name.c_str());
                    if (net->net != NetKind::Reg)
                        fatal("%s: memories must be regs ('%s')",
                              net->loc.str().c_str(), net->name.c_str());
                    if (exceeds(hi, kMaxMemoryDepth))
                        fatal("%s: memory '%s' is deeper than %u words",
                              net->loc.str().c_str(), net->name.c_str(),
                              kMaxMemoryDepth);
                    net->array = AstRange{mkNum(hi.resized(32), false),
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
                forEachExpr(assign->lhs, substConsts(env));
                forEachExpr(assign->rhs, substConsts(env));
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
                forEachExpr(always->body, substConsts(env));
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
                    forEachExpr(out.actual, substConsts(env));
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
        // The instance path holds the top module and every enclosing
        // instance; the sub-module would add one level.
        if (instancePath_.size() >= static_cast<size_t>(kMaxNesting))
            fatal("%s: instance '%s' nesting deeper than %d levels",
                  inst.loc.str().c_str(), inst.instName.c_str(),
                  kMaxNesting);

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
                forEachExpr(actual, substConsts(env));
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
