#include "sim/profiler.hh"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>

#include "hdl/printer.hh"
#include "obs/json.hh"
#include "obs/jsoncheck.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"
#include "sim/stimulus.hh"

namespace hwdbg::sim
{

using namespace hdl;

namespace
{

/** Lvalue target names of a statement tree, in first-write order. */
void
collectTargets(const StmtPtr &stmt, std::vector<std::string> &out,
               std::set<std::string> &seen)
{
    if (!stmt)
        return;
    switch (stmt->kind) {
      case StmtKind::Block:
        for (const auto &sub : stmt->as<BlockStmt>()->stmts)
            collectTargets(sub, out, seen);
        break;
      case StmtKind::If: {
        const auto *branch = stmt->as<IfStmt>();
        collectTargets(branch->thenStmt, out, seen);
        collectTargets(branch->elseStmt, out, seen);
        break;
      }
      case StmtKind::Case:
        for (const auto &item : stmt->as<CaseStmt>()->items)
            collectTargets(item.body, out, seen);
        break;
      case StmtKind::Assign: {
        const ExprPtr &lhs = stmt->as<AssignStmt>()->lhs;
        std::vector<ExprPtr> parts;
        if (lhs->kind == ExprKind::Concat)
            parts = lhs->as<ConcatExpr>()->parts;
        else
            parts.push_back(lhs);
        for (const auto &part : parts) {
            std::string name;
            if (part->kind == ExprKind::Id)
                name = part->as<IdExpr>()->name;
            else if (part->kind == ExprKind::Index)
                name = part->as<IndexExpr>()->base;
            else if (part->kind == ExprKind::Range)
                name = part->as<RangeExpr>()->base;
            if (!name.empty() && seen.insert(name).second)
                out.push_back(name);
        }
        break;
      }
      default:
        break;
    }
}

std::string
procLabel(const AlwaysItem &proc)
{
    std::string label;
    if (proc.isComb) {
        label = "always @*";
    } else {
        label = "always @(";
        for (size_t i = 0; i < proc.sens.size(); ++i) {
            if (i)
                label += " or ";
            label += proc.sens[i].edge == EdgeKind::Posedge
                         ? "posedge "
                         : "negedge ";
            label += proc.sens[i].signal;
        }
        label += ")";
    }
    std::vector<std::string> targets;
    std::set<std::string> seen;
    collectTargets(proc.body, targets, seen);
    if (!targets.empty()) {
        label += " -> ";
        for (size_t i = 0; i < targets.size() && i < 3; ++i) {
            if (i)
                label += ", ";
            label += targets[i];
        }
        if (targets.size() > 3)
            label += ", ...";
    }
    return label;
}

std::string
locStr(const SourceLoc &loc)
{
    return loc.line == 0 ? std::string() : loc.str();
}

} // namespace

ProfileReport
profileDesign(hdl::ModulePtr elaborated, const ProfileOptions &opts)
{
    obs::ObsSpan span("profile");
    ProfileReport report;
    report.top = elaborated->name;
    report.seed = opts.seed;
    report.cyclesRequested = opts.cycles;

    Simulator sim(std::move(elaborated));
    if (opts.backend)
        sim.setBackend(opts.backend);
    SimCounters counters;
    sim.enableProfiling(&counters);

    auto begin = std::chrono::steady_clock::now();
    {
        obs::ObsSpan simSpan("simulate");
        Stimulus::random(opts.seed, opts.cycles).drive(sim, "profile");
    }
    report.wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - begin)
                        .count();
    const LoweredDesign &design = sim.design();
    int clk = design.signalId("clk");
    bool hasClk = clk >= 0 && design.info(clk).dir == PortDir::Input;
    report.cyclesRun = hasClk ? sim.cycle() : opts.cycles;
    report.finished = sim.finished();
    report.settleCalls = counters.settleCalls;
    report.maxSettleDepth = counters.maxSettleDepth;
    report.settleHist.assign(counters.settleHist.begin(),
                             counters.settleHist.begin() +
                                 std::min<size_t>(
                                     counters.settleHist.size(),
                                     counters.maxSettleDepth + 1));
    sim.enableProfiling(nullptr);

    double totalNs = 0;
    auto addRow = [&](std::string kind, std::string label,
                      std::string loc, uint64_t evals, double ns) {
        ProfileRow row;
        row.kind = std::move(kind);
        row.label = std::move(label);
        row.loc = std::move(loc);
        row.evals = evals;
        row.ms = ns / 1e6;
        report.rows.push_back(std::move(row));
        totalNs += ns;
    };
    const auto &assigns = design.assigns();
    for (size_t i = 0; i < assigns.size(); ++i)
        addRow("assign", "assign " + printExpr(assigns[i]->lhs),
               locStr(assigns[i]->loc), counters.assignEvals[i],
               counters.assignNs[i]);
    const auto &combs = design.combProcs();
    for (size_t i = 0; i < combs.size(); ++i)
        addRow("comb", procLabel(*combs[i]), locStr(combs[i]->loc),
               counters.combEvals[i], counters.combNs[i]);
    const auto &clocked = design.clockedProcs();
    for (size_t i = 0; i < clocked.size(); ++i)
        addRow("seq", procLabel(*clocked[i]), locStr(clocked[i]->loc),
               counters.clockedEvals[i], counters.clockedNs[i]);
    for (auto &row : report.rows)
        row.pctTime = totalNs > 0 ? 100.0 * row.ms * 1e6 / totalNs : 0;

    // Ranking is stable on the declaration order built above, so equal
    // keys (and the --rank evals golden tests) stay deterministic.
    if (opts.rank == ProfileOptions::Rank::Evals)
        std::stable_sort(report.rows.begin(), report.rows.end(),
                         [](const ProfileRow &a, const ProfileRow &b) {
                             return a.evals > b.evals;
                         });
    else
        std::stable_sort(report.rows.begin(), report.rows.end(),
                         [](const ProfileRow &a, const ProfileRow &b) {
                             return a.ms > b.ms;
                         });

    for (size_t i = 0; i < design.numSignals(); ++i) {
        if (!counters.toggles[i])
            continue;
        report.signals.push_back(SignalToggles{
            design.info(static_cast<int>(i)).name,
            counters.toggles[i]});
    }
    std::stable_sort(report.signals.begin(), report.signals.end(),
                     [](const SignalToggles &a, const SignalToggles &b) {
                         return a.toggles > b.toggles;
                     });
    return report;
}

std::string
renderProfileText(const ProfileReport &report,
                  const ProfileOptions &opts)
{
    std::ostringstream out;
    char line[256];
    std::snprintf(line, sizeof line,
                  "profile: top=%s cycles=%llu/%u seed=%llu "
                  "wall=%.2f ms%s\n",
                  report.top.c_str(),
                  static_cast<unsigned long long>(report.cyclesRun),
                  report.cyclesRequested,
                  static_cast<unsigned long long>(report.seed),
                  report.wallMs,
                  report.finished ? " ($finish)" : "");
    out << line;
    out << "settle: " << report.settleCalls
        << " calls, worst-case combinational depth "
        << report.maxSettleDepth << " iteration(s)\n";

    out << "hot constructs (ranked by "
        << (opts.rank == ProfileOptions::Rank::Evals ? "evals" : "time")
        << "):\n";
    std::snprintf(line, sizeof line, "  %4s %-6s %9s %6s %9s  %s\n",
                  "rank", "kind", "time_ms", "pct", "evals",
                  "location  construct");
    out << line;
    size_t rows = report.rows.size();
    if (opts.limit && rows > opts.limit)
        rows = opts.limit;
    for (size_t i = 0; i < rows; ++i) {
        const ProfileRow &row = report.rows[i];
        std::snprintf(line, sizeof line,
                      "  %4zu %-6s %9.3f %5.1f%% %9llu  %s  %s\n",
                      i + 1, row.kind.c_str(), row.ms, row.pctTime,
                      static_cast<unsigned long long>(row.evals),
                      row.loc.empty() ? "<generated>" : row.loc.c_str(),
                      row.label.c_str());
        out << line;
    }
    if (rows < report.rows.size())
        out << "  ... " << (report.rows.size() - rows)
            << " more construct(s); raise --limit to see them\n";

    out << "hot signals (by toggle count):\n";
    size_t sigs = report.signals.size();
    if (opts.signalLimit && sigs > opts.signalLimit)
        sigs = opts.signalLimit;
    for (size_t i = 0; i < sigs; ++i) {
        const SignalToggles &sig = report.signals[i];
        double perCycle =
            report.cyclesRun
                ? static_cast<double>(sig.toggles) /
                      static_cast<double>(report.cyclesRun)
                : 0;
        std::snprintf(line, sizeof line,
                      "  %4zu %-24s %9llu toggles (%.2f/cycle)\n", i + 1,
                      sig.name.c_str(),
                      static_cast<unsigned long long>(sig.toggles),
                      perCycle);
        out << line;
    }
    return out.str();
}

std::string
renderProfileJson(const ProfileReport &report,
                  const ProfileOptions &opts)
{
    std::string out;
    obs::JsonWriter w(out, obs::JsonWriter::Style::Spaced);
    w.beginObject();
    w.newline(2).member("top", report.top);
    w.newline(2).member("seed", report.seed);
    w.newline(2).member("cycles_requested", report.cyclesRequested);
    w.newline(2).member("cycles_run", report.cyclesRun);
    w.newline(2).member("finished", report.finished);
    w.newline(2).key("wall_ms").fixed(report.wallMs, 3);
    w.newline(2).member("rank", opts.rank == ProfileOptions::Rank::Evals
                                    ? "evals"
                                    : "time");
    w.newline(2).key("settle").beginObject()
        .member("calls", report.settleCalls)
        .member("max_depth", report.maxSettleDepth)
        .key("by_depth").beginArray();
    for (uint64_t calls : report.settleHist)
        w.value(calls);
    w.endArray().endObject();
    w.newline(2).key("constructs").beginArray();
    for (size_t i = 0; i < report.rows.size(); ++i) {
        const ProfileRow &row = report.rows[i];
        w.newline(4).beginObject()
            .member("rank", i + 1)
            .member("kind", row.kind)
            .member("label", row.label)
            .member("loc", row.loc)
            .member("evals", row.evals)
            .key("ms").fixed(row.ms, 3)
            .endObject();
    }
    w.newline(2).endArray();
    w.newline(2).key("signals").beginArray();
    for (const SignalToggles &sig : report.signals)
        w.newline(4).beginObject()
            .member("name", sig.name)
            .member("toggles", sig.toggles)
            .endObject();
    w.newline(2).endArray().newline(0).endObject();
    out += '\n';
    return out;
}

std::string
checkProfileJson(const std::string &text)
{
    using obs::integer;
    static const obs::Schema schema = obs::ordered({
        {"top", obs::string()},
        {"seed", integer(0)},
        {"cycles_requested", integer(0)},
        {"cycles_run", integer(0)},
        {"finished", obs::boolean()},
        {"wall_ms", obs::number(0)},
        {"rank", obs::oneOf({"evals", "time"})},
        {"settle", obs::ordered({{"calls", integer(0)},
                                 {"max_depth", integer(0)},
                                 {"by_depth", obs::arrayOf(integer(0))}})},
        {"constructs",
         obs::arrayOf(obs::ordered({{"rank", integer(1)},
                                    {"kind", obs::oneOf({"seq", "comb",
                                                         "assign"})},
                                    {"label", obs::string()},
                                    {"loc", obs::string()},
                                    {"evals", integer(0)},
                                    {"ms", obs::number(0)}}))},
        {"signals", obs::arrayOf(obs::ordered({{"name", obs::string()},
                                               {"toggles", integer(0)}}))},
    });
    return obs::checkJson(schema, text);
}

} // namespace hwdbg::sim
