#include "sim/coverage.hh"

#include <algorithm>

#include "hdl/printer.hh"
#include "sim/eval.hh"

namespace hwdbg::sim
{

using namespace hdl;

std::string
coverScopeOf(const std::string &name)
{
    size_t pos = name.rfind("__");
    if (pos == std::string::npos)
        return "(top)";
    return name.substr(0, pos);
}

namespace
{

/** Base signal name of the first assignment inside @p stmt. */
const std::string *
firstLhsBase(const Stmt *stmt)
{
    if (!stmt)
        return nullptr;
    switch (stmt->kind) {
      case StmtKind::Assign: {
        const Expr *lhs = stmt->as<AssignStmt>()->lhs.get();
        while (lhs) {
            switch (lhs->kind) {
              case ExprKind::Id:
                return &lhs->as<IdExpr>()->name;
              case ExprKind::Index:
                return &lhs->as<IndexExpr>()->base;
              case ExprKind::Range:
                return &lhs->as<RangeExpr>()->base;
              case ExprKind::Concat: {
                const auto *cat = lhs->as<ConcatExpr>();
                lhs = cat->parts.empty() ? nullptr
                                         : cat->parts[0].get();
                break;
              }
              default:
                return nullptr;
            }
        }
        return nullptr;
      }
      case StmtKind::Block:
        for (const auto &sub : stmt->as<BlockStmt>()->stmts)
            if (const auto *name = firstLhsBase(sub.get()))
                return name;
        return nullptr;
      case StmtKind::If: {
        const auto *branch = stmt->as<IfStmt>();
        if (const auto *name = firstLhsBase(branch->thenStmt.get()))
            return name;
        return firstLhsBase(branch->elseStmt.get());
      }
      case StmtKind::Case:
        for (const auto &item : stmt->as<CaseStmt>()->items)
            if (const auto *name = firstLhsBase(item.body.get()))
                return name;
        return nullptr;
      default:
        return nullptr;
    }
}

std::string
caseItemLabel(const CaseItem &item)
{
    if (item.labels.empty())
        return "default";
    std::string out;
    for (size_t i = 0; i < item.labels.size(); ++i) {
        if (i)
            out += ", ";
        out += printExpr(item.labels[i]);
    }
    return out;
}

void
registerStmt(const StmtPtr &stmt, const std::string &scope,
             CoverageItems &items)
{
    if (!stmt)
        return;
    auto id = static_cast<int32_t>(items.statements.size());
    stmt->coverId = id;

    CoverageItems::StmtItem entry;
    entry.stmt = stmt.get();
    entry.kind = stmt->kind;
    entry.loc = stmt->loc;
    entry.scope = scope;

    if (stmt->kind == StmtKind::If) {
        entry.armBase = static_cast<int32_t>(items.arms.size());
        entry.armCount = 2;
        items.arms.push_back({static_cast<uint32_t>(id), "then"});
        items.arms.push_back({static_cast<uint32_t>(id), "else"});
    } else if (stmt->kind == StmtKind::Case) {
        const auto *sel = stmt->as<CaseStmt>();
        entry.armBase = static_cast<int32_t>(items.arms.size());
        bool has_default = false;
        for (const auto &item : sel->items) {
            has_default |= item.labels.empty();
            items.arms.push_back(
                {static_cast<uint32_t>(id), caseItemLabel(item)});
        }
        // Without a default, falling through every item is its own
        // observable outcome.
        if (!has_default)
            items.arms.push_back(
                {static_cast<uint32_t>(id), "no match"});
        entry.armCount =
            static_cast<uint32_t>(items.arms.size()) -
            static_cast<uint32_t>(entry.armBase);
    }
    items.statements.push_back(std::move(entry));

    switch (stmt->kind) {
      case StmtKind::Block:
        for (const auto &sub : stmt->as<BlockStmt>()->stmts)
            registerStmt(sub, scope, items);
        break;
      case StmtKind::If: {
        const auto *branch = stmt->as<IfStmt>();
        registerStmt(branch->thenStmt, scope, items);
        registerStmt(branch->elseStmt, scope, items);
        break;
      }
      case StmtKind::Case:
        for (const auto &item : stmt->as<CaseStmt>()->items)
            registerStmt(item.body, scope, items);
        break;
      default:
        break;
    }
}

uint64_t
fnv1a(uint64_t hash, const void *data, size_t len)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

uint64_t
fnvStr(uint64_t hash, const std::string &text)
{
    return fnv1a(hash, text.data(), text.size());
}

uint64_t
fnvU64(uint64_t hash, uint64_t value)
{
    return fnv1a(hash, &value, sizeof(value));
}

} // namespace

uint64_t
CoverageItems::fingerprint() const
{
    uint64_t hash = 0xcbf29ce484222325ull;
    hash = fnvU64(hash, statements.size());
    hash = fnvU64(hash, arms.size());
    hash = fnvU64(hash, signals.size());
    hash = fnvU64(hash, fsms.size());
    hash = fnvU64(hash, toggleBits);
    for (const auto &stmt : statements) {
        hash = fnvU64(hash, static_cast<uint64_t>(stmt.kind));
        hash = fnvStr(hash, stmt.loc.file);
        hash = fnvU64(hash, static_cast<uint64_t>(stmt.loc.line));
        hash = fnvU64(hash, static_cast<uint64_t>(stmt.armCount));
    }
    for (const auto &arm : arms) {
        hash = fnvU64(hash, arm.stmtId);
        hash = fnvStr(hash, arm.label);
    }
    for (const auto &sig : signals) {
        hash = fnvStr(hash, sig.name);
        hash = fnvU64(hash, sig.width);
    }
    for (const auto &fsm : fsms) {
        hash = fnvStr(hash, fsm.stateVar);
        for (uint64_t state : fsm.states)
            hash = fnvU64(hash, state);
        for (const auto &trans : fsm.transitions) {
            hash = fnvU64(hash, trans.hasFrom ? trans.from + 1 : 0);
            hash = fnvU64(hash, trans.to);
        }
    }
    return hash;
}

CoverageItems
buildCoverageItems(const LoweredDesign &design,
                   std::vector<FsmCoverSpec> fsms)
{
    CoverageItems items;

    items.sigSlot.assign(design.numSignals(), -1);
    for (size_t id = 0; id < design.numSignals(); ++id) {
        const SignalInfo &sig = design.info(static_cast<int>(id));
        CoverageItems::SignalItem entry;
        entry.sig = static_cast<int>(id);
        entry.name = sig.name;
        entry.width = sig.width;
        entry.scope = coverScopeOf(sig.name);
        entry.bitOffset = items.toggleBits;
        items.sigSlot[id] =
            static_cast<int32_t>(items.signals.size());
        items.signals.push_back(std::move(entry));
        items.toggleBits += sig.width;
    }

    auto procScope = [&](const hdl::AlwaysItem *proc) {
        const std::string *base = firstLhsBase(proc->body.get());
        return base ? coverScopeOf(*base) : std::string("(top)");
    };
    for (const auto *proc : design.clockedProcs())
        registerStmt(proc->body, procScope(proc), items);
    for (const auto *proc : design.combProcs())
        registerStmt(proc->body, procScope(proc), items);

    for (auto &fsm : fsms) {
        fsm.sig = design.signalId(fsm.stateVar);
        if (fsm.sig < 0)
            continue;
        items.fsms.push_back(std::move(fsm));
    }
    return items;
}

CoverageCollector::CoverageCollector(const CoverageItems &items)
    : items_(&items),
      stmtCount_(static_cast<uint32_t>(items.statements.size()))
{
    auto words = [](size_t bits) { return (bits + 63) / 64; };
    stmtWords_.assign(words(items.statements.size()), 0);
    armWords_.assign(words(items.arms.size()), 0);
    riseWords_.assign(words(items.toggleBits), 0);
    fallWords_.assign(words(items.toggleBits), 0);

    fsms_.resize(items.fsms.size());
    for (size_t i = 0; i < items.fsms.size(); ++i) {
        const FsmCoverSpec &spec = items.fsms[i];
        FsmRuntime &fsm = fsms_[i];
        fsm.sig = spec.sig;
        fsm.state.stateSeen.assign(spec.states.size(), false);
        fsm.state.transSeen.assign(spec.transitions.size(), false);
        for (size_t s = 0; s < spec.states.size(); ++s)
            fsm.stateIdx.emplace(spec.states[s],
                                 static_cast<uint32_t>(s));
        for (size_t t = 0; t < spec.transitions.size(); ++t) {
            const auto &trans = spec.transitions[t];
            if (trans.hasFrom)
                fsm.exactTrans.emplace(
                    std::make_pair(trans.from, trans.to),
                    static_cast<uint32_t>(t));
            else
                fsm.wildTrans.emplace(trans.to,
                                      static_cast<uint32_t>(t));
        }
    }
}

void
CoverageCollector::onStore(int sig, const Bits &oldv, const Bits &newv)
{
    ++events_;
    int32_t slot = items_->sigSlot[sig];
    if (slot < 0)
        return;
    const auto &entry = items_->signals[slot];
    uint32_t bits = std::min(entry.width,
                             std::min(oldv.width(), newv.width()));
    const uint64_t *was = oldv.rawWords();
    const uint64_t *now = newv.rawWords();
    // OR @p mask (bit i = signal bit base + i) into @p map at the
    // signal's offset; a word may straddle two bitmap words.
    auto mark = [&](std::vector<uint64_t> &map, uint32_t base,
                    uint64_t mask) {
        uint32_t at = entry.bitOffset + base;
        uint32_t shift = at & 63;
        map[at >> 6] |= mask << shift;
        if (shift && (mask >> (64 - shift)))
            map[(at >> 6) + 1] |= mask >> (64 - shift);
    };
    for (uint32_t w = 0; w * 64 < bits; ++w) {
        uint32_t left = bits - w * 64;
        uint64_t live = left >= 64 ? ~uint64_t(0)
                                   : (uint64_t(1) << left) - 1;
        uint64_t flips = (was[w] ^ now[w]) & live;
        if (!flips)
            continue;
        mark(riseWords_, w * 64, flips & now[w]);
        mark(fallWords_, w * 64, flips & was[w]);
    }
}

void
CoverageCollector::observeState(FsmRuntime &fsm, uint64_t cur)
{
    auto it = fsm.stateIdx.find(cur);
    if (it != fsm.stateIdx.end())
        fsm.state.stateSeen[it->second] = true;
    else
        fsm.state.unexpectedStates.insert(cur);
}

void
CoverageCollector::onEval(EvalContext &ctx)
{
    ++events_;
    for (auto &fsm : fsms_) {
        uint64_t cur = ctx.values[fsm.sig].toU64();
        if (!fsm.hasLast) {
            observeState(fsm, cur);
            fsm.last = cur;
            fsm.hasLast = true;
            continue;
        }
        if (cur == fsm.last)
            continue;
        observeState(fsm, cur);
        auto exact = fsm.exactTrans.find({fsm.last, cur});
        if (exact != fsm.exactTrans.end()) {
            fsm.state.transSeen[exact->second] = true;
        } else {
            auto wild = fsm.wildTrans.find(cur);
            if (wild != fsm.wildTrans.end())
                fsm.state.transSeen[wild->second] = true;
            else
                fsm.state.unexpectedTransitions.insert(
                    {fsm.last, cur});
        }
        fsm.last = cur;
    }
}

void
CoverageCollector::resync(EvalContext &ctx)
{
    for (auto &fsm : fsms_) {
        uint64_t cur = ctx.values[fsm.sig].toU64();
        // Being in a state is state coverage (idempotent when the
        // state was already visited), but no arc is recorded: the
        // jump that landed here was a restore or attach, not an
        // actual transition of the design.
        observeState(fsm, cur);
        fsm.last = cur;
        fsm.hasLast = true;
    }
}

CoverageTotals
CoverageCollector::totals() const
{
    CoverageTotals out;
    out.stmtTotal = items_->statements.size();
    out.armTotal = items_->arms.size();
    out.toggleTotal = 2 * static_cast<uint64_t>(items_->toggleBits);
    auto popAll = [](const std::vector<uint64_t> &words) {
        uint64_t n = 0;
        for (uint64_t word : words)
            n += static_cast<uint64_t>(__builtin_popcountll(word));
        return n;
    };
    out.stmtHit = popAll(stmtWords_);
    out.armTaken = popAll(armWords_);
    out.toggleHit = popAll(riseWords_) + popAll(fallWords_);
    for (size_t i = 0; i < fsms_.size(); ++i) {
        const auto &fsm = fsms_[i].state;
        out.fsmStateTotal += fsm.stateSeen.size();
        out.fsmTransTotal += fsm.transSeen.size();
        for (bool seen : fsm.stateSeen)
            out.fsmStateHit += seen;
        for (bool seen : fsm.transSeen)
            out.fsmTransHit += seen;
    }
    return out;
}

} // namespace hwdbg::sim
