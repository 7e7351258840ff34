#include "cover/snapshot.hh"

#include <algorithm>
#include <cstdio>

#include "analyze/context.hh"
#include "obs/json.hh"
#include "obs/jsoncheck.hh"

namespace hwdbg::cover
{

const char *
stmtKindName(hdl::StmtKind kind)
{
    switch (kind) {
      case hdl::StmtKind::Block: return "block";
      case hdl::StmtKind::If: return "if";
      case hdl::StmtKind::Case: return "case";
      case hdl::StmtKind::Assign: return "assign";
      case hdl::StmtKind::Display: return "display";
      case hdl::StmtKind::Finish: return "finish";
      case hdl::StmtKind::Null: return "null";
    }
    return "?";
}

namespace
{

std::string
hexFingerprint(uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** covered / total in tenths of a percent, rounded half up. */
uint64_t
pctTenths(uint64_t covered, uint64_t total)
{
    return total ? (covered * 1000 + total / 2) / total : 0;
}

uint64_t
popAll(const std::vector<uint64_t> &words)
{
    uint64_t n = 0;
    for (uint64_t word : words)
        n += static_cast<uint64_t>(__builtin_popcountll(word));
    return n;
}

template <typename T>
void
sortUnique(std::vector<T> &items)
{
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
}

} // namespace

std::string
coverPct(uint64_t covered, uint64_t total)
{
    uint64_t p10 = pctTenths(covered, total);
    return std::to_string(p10 / 10) + "." + std::to_string(p10 % 10);
}

sim::CoverageTotals
Snapshot::totals() const
{
    sim::CoverageTotals out;
    for (const auto &sig : signals) {
        out.toggleTotal += 2 * static_cast<uint64_t>(sig.width);
        out.toggleHit += popAll(sig.rise) + popAll(sig.fall);
    }
    out.stmtTotal = statements.size();
    for (const auto &stmt : statements)
        out.stmtHit += stmt.hit;
    out.armTotal = arms.size();
    for (const auto &arm : arms)
        out.armTaken += arm.taken;
    for (const auto &fsm : fsms) {
        out.fsmStateTotal += fsm.states.size();
        for (bool seen : fsm.seen)
            out.fsmStateHit += seen;
        out.fsmTransTotal += fsm.transitions.size();
        for (const auto &trans : fsm.transitions)
            out.fsmTransHit += trans.seen;
    }
    return out;
}

std::vector<sim::FsmCoverSpec>
fsmSpecs(const std::vector<analyze::FsmInfo> &fsms)
{
    std::vector<sim::FsmCoverSpec> specs;
    for (const auto &info : fsms) {
        sim::FsmCoverSpec spec;
        spec.stateVar = info.stateVar;
        for (const auto &state : info.states)
            spec.states.push_back(state.toU64());
        for (const auto &trans : info.transitions) {
            sim::FsmCoverSpec::Transition out;
            out.hasFrom = trans.fromState.has_value();
            if (out.hasFrom)
                out.from = trans.fromState->toU64();
            out.to = trans.toState.toU64();
            spec.transitions.push_back(out);
        }
        specs.push_back(std::move(spec));
    }
    return specs;
}

std::vector<sim::FsmCoverSpec>
fsmSpecsFor(const hdl::Module &mod)
{
    return fsmSpecs(analyze::Context(mod).fsms());
}

Snapshot
snapshotFrom(const sim::CoverageItems &items,
             const sim::CoverageCollector &collector,
             const std::string &top, const std::string &workload)
{
    Snapshot snap;
    snap.build = obs::buildInfo();
    snap.top = top;
    snap.fingerprint = items.fingerprint();
    if (!workload.empty())
        snap.workloads.push_back(workload);

    auto sliceBits = [](const std::vector<uint64_t> &words,
                        uint32_t offset, uint32_t width) {
        std::vector<uint64_t> out((width + 63) / 64, 0);
        if (out.empty())
            out.assign(1, 0);
        for (uint32_t b = 0; b < width; ++b) {
            uint32_t src = offset + b;
            if ((words[src >> 6] >> (src & 63)) & 1)
                out[b >> 6] |= uint64_t(1) << (b & 63);
        }
        return out;
    };
    for (const auto &sig : items.signals) {
        Snapshot::Signal out;
        out.name = sig.name;
        out.width = sig.width;
        out.scope = sig.scope;
        out.rise = sliceBits(collector.riseWords(), sig.bitOffset,
                             sig.width);
        out.fall = sliceBits(collector.fallWords(), sig.bitOffset,
                             sig.width);
        snap.signals.push_back(std::move(out));
    }

    for (size_t i = 0; i < items.statements.size(); ++i) {
        const auto &item = items.statements[i];
        Snapshot::Stmt out;
        out.kind = stmtKindName(item.kind);
        out.loc = item.loc.line ? item.loc.str() : std::string();
        out.scope = item.scope;
        out.hit = collector.stmtHit(static_cast<uint32_t>(i));
        snap.statements.push_back(std::move(out));
    }

    for (size_t i = 0; i < items.arms.size(); ++i) {
        const auto &item = items.arms[i];
        Snapshot::Arm out;
        out.stmt = item.stmtId;
        out.label = item.label;
        out.taken = collector.armTaken(static_cast<uint32_t>(i));
        snap.arms.push_back(std::move(out));
    }

    for (size_t i = 0; i < items.fsms.size(); ++i) {
        const auto &spec = items.fsms[i];
        const auto &state = collector.fsmState(i);
        Snapshot::Fsm out;
        out.stateVar = spec.stateVar;
        out.states = spec.states;
        out.seen = state.stateSeen;
        for (size_t t = 0; t < spec.transitions.size(); ++t) {
            const auto &trans = spec.transitions[t];
            out.transitions.push_back(
                {trans.hasFrom, trans.from, trans.to,
                 state.transSeen[t]});
        }
        out.unexpectedStates.assign(state.unexpectedStates.begin(),
                                    state.unexpectedStates.end());
        out.unexpectedTransitions.assign(
            state.unexpectedTransitions.begin(),
            state.unexpectedTransitions.end());
        snap.fsms.push_back(std::move(out));
    }
    return snap;
}

std::vector<ScopeTotals>
scopeRollups(const Snapshot &snap)
{
    std::vector<ScopeTotals> out;
    auto at = [&](const std::string &scope) -> sim::CoverageTotals & {
        for (auto &entry : out)
            if (entry.scope == scope)
                return entry.totals;
        out.push_back({scope, {}});
        return out.back().totals;
    };
    for (const auto &sig : snap.signals) {
        auto &t = at(sig.scope);
        t.toggleTotal += 2 * static_cast<uint64_t>(sig.width);
        t.toggleHit += popAll(sig.rise) + popAll(sig.fall);
    }
    for (const auto &stmt : snap.statements) {
        auto &t = at(stmt.scope);
        ++t.stmtTotal;
        t.stmtHit += stmt.hit;
    }
    for (const auto &arm : snap.arms) {
        auto &t = at(snap.statements[arm.stmt].scope);
        ++t.armTotal;
        t.armTaken += arm.taken;
    }
    for (const auto &fsm : snap.fsms) {
        auto &t = at(sim::coverScopeOf(fsm.stateVar));
        t.fsmStateTotal += fsm.states.size();
        for (bool seen : fsm.seen)
            t.fsmStateHit += seen;
        t.fsmTransTotal += fsm.transitions.size();
        for (const auto &trans : fsm.transitions)
            t.fsmTransHit += trans.seen;
    }
    std::sort(out.begin(), out.end(),
              [](const ScopeTotals &a, const ScopeTotals &b) {
                  return a.scope < b.scope;
              });
    return out;
}

std::string
toJson(const Snapshot &snap)
{
    std::string out;
    obs::JsonWriter w(out, obs::JsonWriter::Style::Spaced);
    w.beginObject().member("format", "hwdbg-cover").member("version", 1);
    w.newline(0).member("build", snap.build);
    w.newline(0).key("design").beginObject()
        .member("top", snap.top)
        .key("fingerprint").hexWords(&snap.fingerprint, 1, 64)
        .endObject();

    w.newline(0).key("workloads").beginArray();
    for (const auto &workload : snap.workloads)
        w.value(workload);
    w.endArray();

    w.newline(0).key("signals").beginArray();
    for (const auto &sig : snap.signals)
        w.newline(1).beginObject()
            .member("name", sig.name)
            .member("width", sig.width)
            .member("scope", sig.scope)
            .key("rise").hexWords(sig.rise.data(), sig.rise.size(), sig.width)
            .key("fall").hexWords(sig.fall.data(), sig.fall.size(), sig.width)
            .endObject();
    w.endArray();

    w.newline(0).key("statements").beginArray();
    for (const auto &stmt : snap.statements)
        w.newline(1).beginObject()
            .member("kind", stmt.kind)
            .member("loc", stmt.loc)
            .member("scope", stmt.scope)
            .member("hit", stmt.hit)
            .endObject();
    w.endArray();

    w.newline(0).key("arms").beginArray();
    for (const auto &arm : snap.arms)
        w.newline(1).beginObject()
            .member("stmt", arm.stmt)
            .member("label", arm.label)
            .member("taken", arm.taken)
            .endObject();
    w.endArray();

    w.newline(0).key("fsms").beginArray();
    for (const auto &fsm : snap.fsms) {
        w.newline(1).beginObject().member("state_var", fsm.stateVar);
        w.key("states").beginArray();
        for (uint64_t state : fsm.states)
            w.hexU64(state);
        w.endArray().key("seen").beginArray();
        for (bool seen : fsm.seen)
            w.value(seen);
        w.endArray().key("transitions").beginArray();
        for (const auto &trans : fsm.transitions) {
            w.beginObject();
            if (trans.hasFrom)
                w.key("from").hexU64(trans.from);
            w.key("to").hexU64(trans.to).member("seen", trans.seen);
            w.endObject();
        }
        w.endArray().key("unexpected_states").beginArray();
        for (uint64_t state : fsm.unexpectedStates)
            w.hexU64(state);
        w.endArray().key("unexpected_transitions").beginArray();
        for (const auto &[from, to] : fsm.unexpectedTransitions)
            w.beginArray().hexU64(from).hexU64(to).endArray();
        w.endArray().endObject();
    }
    w.endArray();

    auto section = [&](uint64_t covered, uint64_t total) {
        w.beginObject()
            .member("covered", covered)
            .member("total", total)
            .key("pct").fixed(pctTenths(covered, total) / 10.0, 1)
            .endObject();
    };
    sim::CoverageTotals totals = snap.totals();
    w.newline(0).key("summary").beginObject();
    w.newline(2).key("statements");
    section(totals.stmtHit, totals.stmtTotal);
    w.newline(2).key("branches");
    section(totals.armTaken, totals.armTotal);
    w.newline(2).key("toggles");
    section(totals.toggleHit, totals.toggleTotal);
    w.newline(2).key("fsm_states");
    section(totals.fsmStateHit, totals.fsmStateTotal);
    w.newline(2).key("fsm_transitions");
    section(totals.fsmTransHit, totals.fsmTransTotal);
    w.newline(2).key("overall");
    section(totals.covered(), totals.total());
    w.newline(2).key("modules").beginArray();
    for (const auto &entry : scopeRollups(snap)) {
        w.newline(3).beginObject().member("scope", entry.scope);
        w.member("covered", entry.totals.covered())
            .member("total", entry.totals.total())
            .key("pct")
            .fixed(pctTenths(entry.totals.covered(), entry.totals.total()) /
                       10.0,
                   1)
            .endObject();
    }
    w.endArray().newline(0).endObject().newline(0).endObject();
    out += '\n';
    return out;
}

namespace
{

std::string
bitmapsRule(const obs::JsonValue &sig)
{
    auto width = static_cast<uint32_t>(sig["width"].asUint());
    std::vector<uint64_t> words;
    if (obs::parseHexWords(sig["rise"].text, width, &words) &&
        obs::parseHexWords(sig["fall"].text, width, &words))
        return "";
    return "rise/fall must be " + std::to_string((width + 3) / 4) +
           "-digit hex strings";
}

std::string
fsmRule(const obs::JsonValue &fsm)
{
    if (fsm["states"].elems.size() != fsm["seen"].elems.size())
        return ".seen: must be as long as states";
    const auto &arcs = fsm["unexpected_transitions"].elems;
    for (size_t i = 0; i < arcs.size(); ++i)
        if (arcs[i]->elems.size() != 2)
            return ".unexpected_transitions[" + std::to_string(i) +
                   "]: must be a [from, to] pair";
    return "";
}

std::string
armsRule(const obs::JsonValue &root)
{
    const auto &arms = root["arms"].elems;
    size_t stmts = root["statements"].elems.size();
    for (size_t i = 0; i < arms.size(); ++i)
        if ((*arms[i])["stmt"].asUint() >= stmts)
            return ".arms[" + std::to_string(i) +
                   "].stmt: refers past the " + std::to_string(stmts) +
                   " statements";
    return "";
}

const obs::Schema &
coverSchema()
{
    using obs::string;
    const obs::Schema &hex = obs::hexU64Schema();
    static const obs::Schema schema = obs::ordered(
        {
            {"format", obs::oneOf({"hwdbg-cover"})},
            {"version", obs::exactly(1)},
            {"build", obs::buildSchema(), false},
            {"design", obs::ordered({{"top", string()},
                                     {"fingerprint", hex}})},
            {"workloads", obs::arrayOf(string())},
            {"signals",
             obs::arrayOf(obs::ordered({{"name", string()},
                                        {"width", obs::integer(1, 1u << 24)},
                                        {"scope", string()},
                                        {"rise", string()},
                                        {"fall", string()}},
                                       bitmapsRule))},
            {"statements",
             obs::arrayOf(obs::ordered({{"kind", string()},
                                        {"loc", string()},
                                        {"scope", string()},
                                        {"hit", obs::boolean()}}))},
            {"arms", obs::arrayOf(obs::ordered({{"stmt", obs::integer(0)},
                                                {"label", string()},
                                                {"taken", obs::boolean()}}))},
            {"fsms",
             obs::arrayOf(obs::ordered(
                 {{"state_var", string()},
                  {"states", obs::arrayOf(hex)},
                  {"seen", obs::arrayOf(obs::boolean())},
                  {"transitions",
                   obs::arrayOf(obs::ordered({{"from", hex, false},
                                              {"to", hex},
                                              {"seen", obs::boolean()}}))},
                  {"unexpected_states", obs::arrayOf(hex)},
                  {"unexpected_transitions",
                   obs::arrayOf(obs::arrayOf(hex))}},
                 fsmRule))},
            {"summary", obs::anyValue(), false},
        },
        armsRule);
    return schema;
}

uint64_t
hexValue(const obs::JsonValue &value)
{
    uint64_t out = 0;
    obs::parseHexU64(value.text, &out);
    return out;
}

} // namespace

bool
parseSnapshot(const std::string &text, Snapshot *out,
              std::string *error)
{
    obs::JsonPtr root = obs::parseChecked(coverSchema(), text, error);
    if (!root)
        return false;

    *out = Snapshot{};
    if (const auto *build = root->get("build")) {
        out->build = {(*build)["version"].text, (*build)["git"].text,
                      (*build)["type"].text};
    }
    out->top = (*root)["design"]["top"].text;
    out->fingerprint = hexValue((*root)["design"]["fingerprint"]);
    for (const auto &elem : (*root)["workloads"].elems)
        out->workloads.push_back(elem->text);
    sortUnique(out->workloads);

    for (const auto &elem : (*root)["signals"].elems) {
        Snapshot::Signal sig;
        sig.name = (*elem)["name"].text;
        sig.width = static_cast<uint32_t>((*elem)["width"].asUint());
        sig.scope = (*elem)["scope"].text;
        obs::parseHexWords((*elem)["rise"].text, sig.width, &sig.rise);
        obs::parseHexWords((*elem)["fall"].text, sig.width, &sig.fall);
        out->signals.push_back(std::move(sig));
    }
    for (const auto &elem : (*root)["statements"].elems)
        out->statements.push_back({(*elem)["kind"].text,
                                   (*elem)["loc"].text,
                                   (*elem)["scope"].text,
                                   (*elem)["hit"].boolean});
    for (const auto &elem : (*root)["arms"].elems)
        out->arms.push_back(
            {static_cast<uint32_t>((*elem)["stmt"].asUint()),
             (*elem)["label"].text, (*elem)["taken"].boolean});

    for (const auto &elem : (*root)["fsms"].elems) {
        Snapshot::Fsm fsm;
        fsm.stateVar = (*elem)["state_var"].text;
        for (const auto &state : (*elem)["states"].elems)
            fsm.states.push_back(hexValue(*state));
        for (const auto &flag : (*elem)["seen"].elems)
            fsm.seen.push_back(flag->boolean);
        for (const auto &entry : (*elem)["transitions"].elems) {
            Snapshot::FsmTrans trans;
            if (const auto *from = entry->get("from")) {
                trans.hasFrom = true;
                trans.from = hexValue(*from);
            }
            trans.to = hexValue((*entry)["to"]);
            trans.seen = (*entry)["seen"].boolean;
            fsm.transitions.push_back(trans);
        }
        for (const auto &state : (*elem)["unexpected_states"].elems)
            fsm.unexpectedStates.push_back(hexValue(*state));
        for (const auto &arc : (*elem)["unexpected_transitions"].elems)
            fsm.unexpectedTransitions.emplace_back(
                hexValue(*arc->elems[0]), hexValue(*arc->elems[1]));
        sortUnique(fsm.unexpectedStates);
        sortUnique(fsm.unexpectedTransitions);
        out->fsms.push_back(std::move(fsm));
    }
    return true;
}

std::string
checkCoverageJson(const std::string &text)
{
    return obs::checkJson(coverSchema(), text);
}

std::string
mergeInto(Snapshot &dst, const Snapshot &src)
{
    if (dst.fingerprint != src.fingerprint)
        return "design fingerprints differ (" +
               hexFingerprint(dst.fingerprint) + " vs " +
               hexFingerprint(src.fingerprint) + ")";
    if (dst.top != src.top)
        return "designs differ (top '" + dst.top + "' vs '" +
               src.top + "')";
    if (dst.signals.size() != src.signals.size() ||
        dst.statements.size() != src.statements.size() ||
        dst.arms.size() != src.arms.size() ||
        dst.fsms.size() != src.fsms.size())
        return "coverage shapes differ despite equal fingerprints";

    dst.workloads.insert(dst.workloads.end(), src.workloads.begin(),
                         src.workloads.end());
    sortUnique(dst.workloads);

    for (size_t i = 0; i < dst.signals.size(); ++i) {
        auto &a = dst.signals[i];
        const auto &b = src.signals[i];
        if (a.width != b.width || a.rise.size() != b.rise.size())
            return "signal '" + a.name + "' shapes differ";
        for (size_t w = 0; w < a.rise.size(); ++w) {
            a.rise[w] |= b.rise[w];
            a.fall[w] |= b.fall[w];
        }
    }
    for (size_t i = 0; i < dst.statements.size(); ++i)
        dst.statements[i].hit |= src.statements[i].hit;
    for (size_t i = 0; i < dst.arms.size(); ++i)
        dst.arms[i].taken |= src.arms[i].taken;
    for (size_t i = 0; i < dst.fsms.size(); ++i) {
        auto &a = dst.fsms[i];
        const auto &b = src.fsms[i];
        if (a.seen.size() != b.seen.size() ||
            a.transitions.size() != b.transitions.size())
            return "fsm '" + a.stateVar + "' shapes differ";
        for (size_t s = 0; s < a.seen.size(); ++s)
            a.seen[s] = a.seen[s] || b.seen[s];
        for (size_t t = 0; t < a.transitions.size(); ++t)
            a.transitions[t].seen |= b.transitions[t].seen;
        a.unexpectedStates.insert(a.unexpectedStates.end(),
                                  b.unexpectedStates.begin(),
                                  b.unexpectedStates.end());
        sortUnique(a.unexpectedStates);
        a.unexpectedTransitions.insert(
            a.unexpectedTransitions.end(),
            b.unexpectedTransitions.begin(),
            b.unexpectedTransitions.end());
        sortUnique(a.unexpectedTransitions);
    }
    return "";
}

} // namespace hwdbg::cover
