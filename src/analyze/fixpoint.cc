#include "analyze/fixpoint.hh"

#include <algorithm>
#include <deque>
#include <map>

#include "analyze/context.hh"

namespace hwdbg::analyze
{

using namespace hdl;

// ---------------------------------------------------------- const fixpoint

namespace
{

/** Signals whose fact is pinned to all-unknown from the start. */
enum class Seed { Bottom, Zero, Unknown };

std::set<std::string>
primitiveConnections(const Module &mod)
{
    std::set<std::string> out;
    for (const auto &item : mod.items) {
        if (item->kind != ItemKind::Instance)
            continue;
        for (const auto &conn : item->as<InstanceItem>()->conns)
            if (conn.actual)
                for (const auto &sig :
                     collectSignals(conn.actual))
                    out.insert(sig);
    }
    return out;
}

} // namespace

KnownBits
ConstFixpoint::factOf(const std::string &name,
                      const SignalTable &sigs) const
{
    const auto *info = sigs.find(name);
    uint32_t width = info && info->width ? info->width : 1;
    auto it = env.find(name);
    if (it == env.end() || !it->second)
        return KnownBits::unknown(std::min<uint32_t>(width, 64));
    return it->second->resized(std::min<uint32_t>(width, 64));
}

ConstFixpoint
solveConstants(const Module &mod, const SignalTable &sigs,
               const std::vector<GuardedAssign> &assigns,
               const AssignIndex &assignsOf)
{
    ConstFixpoint fix;
    fix.primConnected = primitiveConnections(mod);

    // Which comb processes fully assign which registers: those
    // registers never expose their zero init (settling overwrites it
    // before anything observes the value).
    std::map<const AlwaysItem *, std::set<std::string>> combMust;
    std::map<std::string, std::vector<const AlwaysItem *>> combProcsOf;
    std::map<std::string, bool> hasNonCombAssign;
    for (size_t i = 0; i < assigns.size(); ++i) {
        const auto &ga = assigns[i];
        for (const auto &target : lvalueTargets(ga.lhs)) {
            if (ga.proc && ga.proc->isComb) {
                auto &procs = combProcsOf[target];
                if (std::find(procs.begin(), procs.end(), ga.proc) ==
                    procs.end())
                    procs.push_back(ga.proc);
                if (!combMust.count(ga.proc))
                    combMust[ga.proc] = mustAssign(ga.proc->body, {});
            } else {
                hasNonCombAssign[target] = true;
            }
        }
    }

    // Seed the environment.
    std::map<std::string, Seed> seeds;
    for (const auto &[name, info] : sigs.all()) {
        Seed seed = Seed::Bottom;
        if (info.dir == PortDir::Input || info.isArray ||
            info.width == 0 || info.width > 64 ||
            fix.primConnected.count(name)) {
            seed = Seed::Unknown;
        } else if (info.isReg) {
            // Zero init is observable unless the register is driven
            // exclusively by comb processes that all fully assign it.
            bool comb_total = !hasNonCombAssign[name] &&
                              !combProcsOf[name].empty();
            for (const auto *proc : combProcsOf[name])
                if (!combMust[proc].count(name))
                    comb_total = false;
            seed = comb_total ? Seed::Bottom : Seed::Zero;
        }
        seeds[name] = seed;
        switch (seed) {
          case Seed::Bottom:
            fix.env[name] = std::nullopt;
            break;
          case Seed::Zero:
            fix.env[name] = KnownBits::constant(info.width, 0);
            break;
          case Seed::Unknown:
            fix.env[name] = KnownBits::unknown(
                std::min<uint32_t>(std::max(info.width, 1u), 64));
            break;
        }
    }

    // Reverse dependency map: reading signal -> assignments to re-run.
    std::map<std::string, std::set<std::string>> dependents;
    for (const auto &ga : assigns) {
        std::set<std::string> reads = collectSignals(ga.rhs);
        for (const auto &sig : collectSignals(ga.guard))
            reads.insert(sig);
        // Part-select / concat lvalues read their index expressions.
        for (const auto &sig : collectSignals(ga.lhs))
            reads.insert(sig);
        // Self-dependencies stay in: q <= q + 1 must re-run until the
        // join over successive values stabilizes.
        for (const auto &target : lvalueTargets(ga.lhs))
            for (const auto &read : reads)
                dependents[read].insert(target);
    }

    auto recompute =
        [&](const std::string &name) -> std::optional<KnownBits> {
        const auto *info = sigs.find(name);
        if (!info || seeds[name] == Seed::Unknown)
            return fix.env[name];
        std::optional<KnownBits> acc;
        if (seeds[name] == Seed::Zero)
            acc = KnownBits::constant(info->width, 0);
        auto of = assignsOf.find(name);
        if (of == assignsOf.end())
            return acc;
        for (size_t i : of->second) {
            const auto &ga = assigns[i];
            auto guard = triEval(ga.guard, sigs, fix.env);
            if (!guard || *guard == Tri::False)
                continue;
            std::optional<KnownBits> val;
            if (ga.lhs->kind == ExprKind::Id) {
                uint32_t cw = std::max(info->width,
                                       selfWidth(ga.rhs, sigs));
                val = kbEval(ga.rhs, cw, sigs, fix.env);
                if (val)
                    val = val->resized(info->width);
            } else {
                // Partial writes (bit/part select, concat lvalues)
                // are not tracked bit-precisely.
                val = KnownBits::unknown(info->width);
            }
            if (!val)
                continue;
            acc = acc ? joinKnown(*acc, *val) : *val;
        }
        return acc;
    };

    std::deque<std::string> work;
    std::set<std::string> queued;
    for (const auto &[name, seed] : seeds) {
        work.push_back(name);
        queued.insert(name);
    }
    // Each signal's fact rises monotonically through a lattice of
    // height <= 66, so this terminates; the bound is a safety net.
    size_t budget = (seeds.size() + 1) * 200;
    while (!work.empty() && budget-- > 0) {
        std::string name = work.front();
        work.pop_front();
        queued.erase(name);
        auto next = recompute(name);
        bool changed;
        auto &cur = fix.env[name];
        if (!next) {
            changed = false;
        } else if (!cur) {
            cur = *next;
            changed = true;
        } else {
            KnownBits joined = joinKnown(*cur, *next);
            changed = joined.known != cur->known ||
                      joined.value != cur->value ||
                      joined.width != cur->width;
            if (changed)
                cur = joined;
        }
        if (!changed)
            continue;
        for (const auto &dep : dependents[name])
            if (queued.insert(dep).second)
                work.push_back(dep);
    }
    if (!work.empty()) {
        // Budget exhausted before the fixpoint (should be impossible:
        // the lattice has finite height). Degrade every fact to
        // all-unknown rather than report from an unsettled state.
        for (auto &[name, fact] : fix.env) {
            const auto *info = sigs.find(name);
            fact = KnownBits::unknown(std::min<uint32_t>(
                info && info->width ? info->width : 1, 64));
        }
    }

    fix.deadGuard.assign(assigns.size(), 0);
    fix.trueGuard.assign(assigns.size(), 0);
    for (size_t i = 0; i < assigns.size(); ++i) {
        const auto &ga = assigns[i];
        auto guard = triEval(ga.guard, sigs, fix.env);
        if (guard && *guard == Tri::False)
            fix.deadGuard[i] = 1;
        else if (guard && *guard == Tri::True &&
                 ga.guard->kind != ExprKind::Number)
            fix.trueGuard[i] = 1;
    }
    return fix;
}

} // namespace hwdbg::analyze
