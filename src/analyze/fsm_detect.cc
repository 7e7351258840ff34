#include "analyze/facts.hh"

#include <algorithm>
#include <map>
#include <set>

#include "analyze/context.hh"
#include "common/logging.hh"

namespace hwdbg::analyze
{

using namespace hdl;

namespace
{

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
detectFsms(const Context &facts, const FsmDetectOptions &opts)
{
    // Registers excluded because the design does arithmetic on them or
    // selects their bits.
    std::set<std::string> excluded;
    forEachExpr(facts.module(), [&](const ExprPtr &expr) {
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
    for (const auto &ga : facts.assigns()) {
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

    std::vector<FsmInfo> out;
    for (const auto &[name, assigns] : by_target) {
        if (excluded.count(name) || disqualified.count(name))
            continue;
        // Single-bit registers are flag/toggle idioms (valid bits,
        // phases), not state machines.
        const auto *decl = facts.signals().find(name);
        if (opts.minWidthTwo && (!decl || decl->width < 2))
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
            if (mentions(ga.guard, name))
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

} // namespace hwdbg::analyze
