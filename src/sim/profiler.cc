#include "sim/profiler.hh"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>

#include "hdl/printer.hh"
#include "obs/json.hh"
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

using obs::jsonEscape;

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
    std::ostringstream out;
    char buf[64];
    out << "{\n";
    out << "  \"top\": \"" << jsonEscape(report.top) << "\",\n";
    out << "  \"seed\": " << report.seed << ",\n";
    out << "  \"cycles_requested\": " << report.cyclesRequested << ",\n";
    out << "  \"cycles_run\": " << report.cyclesRun << ",\n";
    out << "  \"finished\": " << (report.finished ? "true" : "false")
        << ",\n";
    std::snprintf(buf, sizeof buf, "%.3f", report.wallMs);
    out << "  \"wall_ms\": " << buf << ",\n";
    out << "  \"rank\": \""
        << (opts.rank == ProfileOptions::Rank::Evals ? "evals" : "time")
        << "\",\n";
    out << "  \"settle\": {\"calls\": " << report.settleCalls
        << ", \"max_depth\": " << report.maxSettleDepth
        << ", \"by_depth\": [";
    for (size_t i = 0; i < report.settleHist.size(); ++i)
        out << (i ? ", " : "") << report.settleHist[i];
    out << "]},\n";
    out << "  \"constructs\": [\n";
    for (size_t i = 0; i < report.rows.size(); ++i) {
        const ProfileRow &row = report.rows[i];
        std::snprintf(buf, sizeof buf, "%.3f", row.ms);
        out << "    {\"rank\": " << i + 1 << ", \"kind\": \""
            << row.kind << "\", \"label\": \"" << jsonEscape(row.label)
            << "\", \"loc\": \"" << jsonEscape(row.loc)
            << "\", \"evals\": " << row.evals << ", \"ms\": " << buf
            << "}" << (i + 1 < report.rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"signals\": [\n";
    for (size_t i = 0; i < report.signals.size(); ++i) {
        const SignalToggles &sig = report.signals[i];
        out << "    {\"name\": \"" << jsonEscape(sig.name)
            << "\", \"toggles\": " << sig.toggles << "}"
            << (i + 1 < report.signals.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return out.str();
}

} // namespace hwdbg::sim
