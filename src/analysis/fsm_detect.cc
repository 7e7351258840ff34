#include "analysis/fsm_detect.hh"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/exprutil.hh"
#include "common/logging.hh"
#include "elab/elaborate.hh"

namespace hwdbg::analysis
{

using namespace hdl;

namespace
{

/** Visit every expression node of the module's logic. */
void
forEachExprInModule(const Module &mod,
                    const std::function<void(ExprPtr &)> &fn)
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

bool
isArithOp(BinaryOp op)
{
    switch (op) {
      case BinaryOp::Add:
      case BinaryOp::Sub:
      case BinaryOp::Mul:
      case BinaryOp::Div:
      case BinaryOp::Mod:
      case BinaryOp::Shl:
      case BinaryOp::Shr:
        return true;
      default:
        return false;
    }
}

bool
isIdOf(const ExprPtr &expr, const std::string &name)
{
    return expr && expr->kind == ExprKind::Id &&
           expr->as<IdExpr>()->name == name;
}

/** Search a conjunction tree for an (S == const) conjunct. */
std::optional<Bits>
findStateTest(const ExprPtr &guard, const std::string &state_var)
{
    if (!guard)
        return std::nullopt;
    if (guard->kind == ExprKind::Binary) {
        const auto *bin = guard->as<BinaryExpr>();
        if (bin->op == BinaryOp::LogAnd) {
            if (auto hit = findStateTest(bin->lhs, state_var))
                return hit;
            return findStateTest(bin->rhs, state_var);
        }
        if (bin->op == BinaryOp::Eq) {
            if (isIdOf(bin->lhs, state_var) &&
                bin->rhs->kind == ExprKind::Number)
                return bin->rhs->as<NumberExpr>()->value;
            if (isIdOf(bin->rhs, state_var) &&
                bin->lhs->kind == ExprKind::Number)
                return bin->lhs->as<NumberExpr>()->value;
        }
    }
    return std::nullopt;
}

/** True when @p guard references @p name anywhere. */
bool
guardMentions(const ExprPtr &guard, const std::string &name)
{
    bool found = false;
    forEachIdent(guard, [&](const std::string &id) {
        if (id == name)
            found = true;
    });
    return found;
}

struct BitsLess
{
    bool
    operator()(const Bits &a, const Bits &b) const
    {
        return a.compare(b) < 0;
    }
};

} // namespace

std::vector<FsmInfo>
detectFsms(const Module &mod, const FsmDetectOptions &opts)
{
    // Registers excluded because the design does arithmetic on them or
    // selects their bits.
    std::set<std::string> excluded;
    forEachExprInModule(mod, [&](const ExprPtr &expr) {
        if (expr->kind == ExprKind::Binary) {
            const auto *bin = expr->as<BinaryExpr>();
            if (opts.excludeArithmetic && isArithOp(bin->op)) {
                for (const auto &side : {bin->lhs, bin->rhs})
                    if (side->kind == ExprKind::Id)
                        excluded.insert(side->as<IdExpr>()->name);
            }
            // Ordered comparisons on a variable also indicate a counter
            // or magnitude, not a state encoding.
            if (opts.excludeOrderedCompare &&
                (bin->op == BinaryOp::Lt || bin->op == BinaryOp::Le ||
                 bin->op == BinaryOp::Gt || bin->op == BinaryOp::Ge)) {
                for (const auto &side : {bin->lhs, bin->rhs})
                    if (side->kind == ExprKind::Id)
                        excluded.insert(side->as<IdExpr>()->name);
            }
        }
        if (opts.excludeBitSelect) {
            if (expr->kind == ExprKind::Index)
                excluded.insert(expr->as<IndexExpr>()->base);
            if (expr->kind == ExprKind::Range)
                excluded.insert(expr->as<RangeExpr>()->base);
        }
        if (opts.excludeArithmetic && expr->kind == ExprKind::Unary &&
            expr->as<UnaryExpr>()->op == UnaryOp::Neg) {
            const auto &arg = expr->as<UnaryExpr>()->arg;
            if (arg->kind == ExprKind::Id)
                excluded.insert(arg->as<IdExpr>()->name);
        }
    });

    // Group assignments by whole-register target.
    std::map<std::string, std::vector<GuardedAssign>> by_target;
    std::set<std::string> disqualified;
    for (const auto &ga : collectAssigns(mod)) {
        auto targets = lvalueTargets(ga.lhs);
        if (ga.lhs->kind == ExprKind::Id && ga.sequential) {
            by_target[ga.lhs->as<IdExpr>()->name].push_back(ga);
        } else {
            // Partial writes, concat writes, combinational or blocking
            // writes disqualify the target(s).
            for (const auto &target : targets)
                disqualified.insert(target);
        }
    }

    // Signal widths: single-bit registers are flag/toggle idioms
    // (valid bits, phases), not state machines.
    std::map<std::string, uint32_t> widths;
    for (const auto &item : mod.items) {
        if (item->kind != ItemKind::Net)
            continue;
        const auto *net = item->as<NetItem>();
        widths[net->name] = elab::netWidth(*net);
    }

    std::vector<FsmInfo> out;
    for (const auto &[name, assigns] : by_target) {
        if (excluded.count(name) || disqualified.count(name))
            continue;
        if (opts.minWidthTwo && widths[name] < 2)
            continue;

        bool ok = true;
        bool tests_self = false;
        for (const auto &ga : assigns) {
            bool rhs_const = ga.rhs->kind == ExprKind::Number;
            bool rhs_self = isIdOf(ga.rhs, name);
            if (opts.requireConstantRhs && !rhs_const && !rhs_self) {
                ok = false;
                break;
            }
            if (guardMentions(ga.guard, name))
                tests_self = true;
        }
        if (!ok || (opts.requireSelfTest && !tests_self))
            continue;

        FsmInfo info;
        info.stateVar = name;
        info.clock = assigns.front().clock;

        std::set<Bits, BitsLess> states;
        for (const auto &ga : assigns) {
            if (auto from = findStateTest(ga.guard, name))
                states.insert(*from);
            if (ga.rhs->kind != ExprKind::Number)
                continue;
            Bits to = ga.rhs->as<NumberExpr>()->value;
            states.insert(to);
            FsmTransition trans;
            trans.fromState = findStateTest(ga.guard, name);
            trans.toState = to;
            trans.cond = ga.guard;
            info.transitions.push_back(std::move(trans));
        }
        if (states.size() < 2)
            continue; // a single constant is not a state machine
        info.states.assign(states.begin(), states.end());
        out.push_back(std::move(info));
    }
    return out;
}

} // namespace hwdbg::analysis
