/**
 * @file
 * State-machine and state-flag rules: unreachable FSM states, FSM
 * states with no way out, sticky flags that only reset can clear, and
 * circular enable dependencies between go/busy flags.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "lint/rules.hh"

namespace hwdbg::lint
{

using namespace hdl;

namespace
{

std::string
stateName(const Bits &bits)
{
    return csprintf("%u'd%llu", bits.width(),
                    (unsigned long long)bits.toU64());
}

/** One classified assignment to a one-bit flag register. */
struct FlagAssign
{
    const analyze::GuardedAssign *ga = nullptr;
    /** Constant RHS value; nullopt when not constant. */
    std::optional<uint64_t> value;
    bool resetBranch = false;
};

/**
 * Clocked whole-register assignments to @p name, classified by RHS
 * constness and reset-branch membership. Returns nullopt when the
 * flag is also written combinationally or through a part select (the
 * classification would be unsound).
 */
std::optional<std::vector<FlagAssign>>
flagAssigns(Context &ctx, const std::string &name)
{
    std::vector<FlagAssign> out;
    for (const auto &ga : ctx.assigns()) {
        if (!ga.lhs || ga.lhs->kind != ExprKind::Id ||
            ga.lhs->as<IdExpr>()->name != name)
            continue;
        if (!ga.proc || ga.proc->isComb)
            return std::nullopt;
        FlagAssign fa;
        fa.ga = &ga;
        if (auto value = elab::tryEvalConst(ga.rhs))
            fa.value = value->toU64();
        fa.resetBranch = ctx.isResetBranchGuard(ga.guard);
        out.push_back(fa);
    }
    return out;
}

/** One-bit, non-memory registers, in declaration order. */
std::vector<std::string>
flagRegs(Context &ctx)
{
    std::vector<std::string> out;
    const auto &sigs = ctx.signals();
    for (const auto &name : sigs.order()) {
        const auto *info = sigs.find(name);
        if (info->isReg && !info->isArray && info->width == 1)
            out.push_back(name);
    }
    return out;
}

} // namespace

void
checkFsmUnreachable(Context &ctx)
{
    for (const auto &fsm : ctx.fsms()) {
        // Entry states: targets of reset-branch transitions; fall back
        // to from-any-state transitions when no reset is recognized.
        std::set<uint64_t> reached;
        for (const auto &t : fsm.transitions)
            if (ctx.isResetBranchGuard(t.cond))
                reached.insert(t.toState.toU64());
        if (reached.empty())
            for (const auto &t : fsm.transitions)
                if (!t.fromState)
                    reached.insert(t.toState.toU64());
        if (reached.empty())
            continue; // no recognizable entry point: stay silent

        // Fixed-point over non-reset transitions. A transition with no
        // fromState fires from any state, so its target is reachable
        // as soon as anything is.
        bool changed = true;
        while (changed) {
            changed = false;
            for (const auto &t : fsm.transitions) {
                if (ctx.isResetBranchGuard(t.cond))
                    continue;
                bool from_ok =
                    !t.fromState ||
                    reached.count(t.fromState->toU64());
                if (from_ok &&
                    reached.insert(t.toState.toU64()).second)
                    changed = true;
            }
        }

        for (const auto &state : fsm.states) {
            if (reached.count(state.toU64()))
                continue;
            ctx.report(ctx.declLoc(fsm.stateVar),
                       csprintf("FSM state %s of '%s' is unreachable "
                                "from the reset state",
                                stateName(state).c_str(),
                                fsm.stateVar.c_str()),
                       {fsm.stateVar});
        }
    }
}

void
checkFsmNoExit(Context &ctx)
{
    for (const auto &fsm : ctx.fsms()) {
        if (fsm.transitions.empty())
            continue;
        for (const auto &state : fsm.states) {
            bool has_exit = false;
            for (const auto &t : fsm.transitions) {
                if (ctx.isResetBranchGuard(t.cond))
                    continue;
                if (t.fromState &&
                    t.fromState->compare(state) != 0)
                    continue;
                if (t.toState.compare(state) == 0)
                    continue;
                has_exit = true;
                break;
            }
            if (has_exit)
                continue;
            ctx.report(ctx.declLoc(fsm.stateVar),
                       csprintf("FSM state %s of '%s' has no outgoing "
                                "transition; once entered the machine "
                                "is stuck",
                                stateName(state).c_str(),
                                fsm.stateVar.c_str()),
                       {fsm.stateVar});
        }
    }
}

void
checkStickyFlag(Context &ctx)
{
    for (const auto &name : flagRegs(ctx)) {
        if (!ctx.isRead(name) || ctx.isClockName(name) ||
            ctx.isResetName(name))
            continue;
        auto fas = flagAssigns(ctx, name);
        if (!fas || fas->empty())
            continue;
        bool all_const = true;
        bool nonreset_set = false;
        size_t clears = 0, nonreset_clears = 0;
        for (const auto &fa : *fas) {
            if (!fa.value) {
                all_const = false;
                break;
            }
            if (*fa.value != 0 && !fa.resetBranch)
                nonreset_set = true;
            if (*fa.value == 0) {
                ++clears;
                if (!fa.resetBranch)
                    ++nonreset_clears;
            }
        }
        if (!all_const || !nonreset_set || clears == 0 ||
            nonreset_clears > 0)
            continue;
        ctx.report(ctx.declLoc(name),
                   csprintf("flag '%s' is set during operation but "
                            "only reset ever clears it",
                            name.c_str()),
                   {name});
    }
}

void
checkEnableDeadlock(Context &ctx)
{
    // Candidate flags: one-bit registers that reset to 0 and are only
    // ever set to constant 1 outside reset.
    struct Candidate
    {
        std::vector<const analyze::GuardedAssign *> sets;
    };
    std::map<std::string, Candidate> candidates;
    for (const auto &name : flagRegs(ctx)) {
        auto fas = flagAssigns(ctx, name);
        if (!fas || fas->empty())
            continue;
        bool ok = true, resets_to_zero = false;
        Candidate cand;
        for (const auto &fa : *fas) {
            if (!fa.value) {
                ok = false;
                break;
            }
            if (fa.resetBranch) {
                if (*fa.value == 0)
                    resets_to_zero = true;
                else
                    ok = false; // reset asserts it: not gated on reset
            } else if (*fa.value != 0) {
                cand.sets.push_back(fa.ga);
            }
        }
        if (ok && resets_to_zero && !cand.sets.empty())
            candidates[name] = std::move(cand);
    }

    // R -> E when every path that sets R requires E to already be
    // high (E appears as a bare positive conjunct of every set guard).
    std::map<std::string, std::set<std::string>> requires_;
    for (const auto &[name, cand] : candidates) {
        std::set<std::string> common;
        bool first = true;
        for (const auto *ga : cand.sets) {
            std::set<std::string> here;
            for (const auto &conj : conjuncts(ga->guard))
                if (conj->kind == ExprKind::Id &&
                    candidates.count(conj->as<IdExpr>()->name) &&
                    conj->as<IdExpr>()->name != name)
                    here.insert(conj->as<IdExpr>()->name);
            if (first) {
                common = std::move(here);
                first = false;
            } else {
                std::set<std::string> both;
                for (const auto &e : common)
                    if (here.count(e))
                        both.insert(e);
                common = std::move(both);
            }
        }
        if (!common.empty())
            requires_[name] = std::move(common);
    }

    // Cycles among required enablers: none of the members can ever
    // become 1 (all start at 0 after reset; every set needs another
    // member already high).
    std::set<std::string> reported;
    std::function<bool(const std::string &, std::vector<std::string> &,
                       std::set<std::string> &)>
        dfs = [&](const std::string &node,
                  std::vector<std::string> &path,
                  std::set<std::string> &onPath) -> bool {
        path.push_back(node);
        onPath.insert(node);
        auto it = requires_.find(node);
        if (it != requires_.end()) {
            for (const auto &next : it->second) {
                if (onPath.count(next)) {
                    // Found a cycle: slice it out of the path.
                    std::vector<std::string> cycle;
                    bool in = false;
                    for (const auto &n : path) {
                        if (n == next)
                            in = true;
                        if (in)
                            cycle.push_back(n);
                    }
                    std::set<std::string> key(cycle.begin(),
                                              cycle.end());
                    std::string keyStr;
                    for (const auto &n : key)
                        keyStr += n + ",";
                    if (reported.insert(keyStr).second) {
                        std::ostringstream text;
                        for (const auto &n : cycle)
                            text << n << " -> ";
                        text << next;
                        ctx.report(
                            ctx.declLoc(cycle.front()),
                            csprintf("circular enable dependency: "
                                     "%s; all reset to 0, so none "
                                     "can ever assert",
                                     text.str().c_str()),
                            cycle);
                    }
                    path.pop_back();
                    onPath.erase(node);
                    return true;
                }
                if (dfs(next, path, onPath)) {
                    path.pop_back();
                    onPath.erase(node);
                    return true;
                }
            }
        }
        path.pop_back();
        onPath.erase(node);
        return false;
    };
    for (const auto &[name, req] : requires_) {
        (void)req;
        std::vector<std::string> path;
        std::set<std::string> onPath;
        dfs(name, path, onPath);
    }
}

} // namespace hwdbg::lint
