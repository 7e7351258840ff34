#include "cover/report.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "obs/json.hh"

namespace hwdbg::cover
{

using obs::hexU64;

namespace
{

uint64_t
popAll(const std::vector<uint64_t> &words)
{
    uint64_t n = 0;
    for (uint64_t word : words)
        n += static_cast<uint64_t>(__builtin_popcountll(word));
    return n;
}

void
line(std::ostringstream &out, const char *label, uint64_t covered,
     uint64_t total)
{
    out << "  " << std::left << std::setw(16) << label << std::right
        << std::setw(5) << coverPct(covered, total) << "%  ("
        << covered << "/" << total << ")\n";
}

/** Render a capped list with a trailing "... and N more". */
template <typename T, typename Fn>
void
cappedList(std::ostringstream &out, const std::vector<T> &entries,
           size_t limit, Fn &&render)
{
    size_t shown = std::min(entries.size(), limit);
    for (size_t i = 0; i < shown; ++i)
        render(entries[i]);
    if (entries.size() > shown)
        out << "    ... and " << entries.size() - shown << " more\n";
}

} // namespace

std::string
renderCoverText(const Snapshot &snap, const ReportOptions &opts)
{
    std::ostringstream out;
    sim::CoverageTotals totals = snap.totals();

    out << "coverage report: top '" << snap.top << "'\n";
    out << "build " << snap.build.version << " (" << snap.build.git
        << ", " << snap.build.buildType << "), design fingerprint "
        << hexU64(snap.fingerprint) << "\n";
    out << "workloads:";
    for (const auto &workload : snap.workloads)
        out << " " << workload;
    out << "\n\n";

    line(out, "overall", totals.covered(), totals.total());
    line(out, "statements", totals.stmtHit, totals.stmtTotal);
    line(out, "branches", totals.armTaken, totals.armTotal);
    line(out, "toggles", totals.toggleHit, totals.toggleTotal);
    if (totals.fsmStateTotal) {
        line(out, "fsm states", totals.fsmStateHit,
             totals.fsmStateTotal);
        line(out, "fsm arcs", totals.fsmTransHit,
             totals.fsmTransTotal);
    }

    // Per-module rollup, worst-covered first (ties by name).
    auto rollups = scopeRollups(snap);
    std::stable_sort(
        rollups.begin(), rollups.end(),
        [](const ScopeTotals &a, const ScopeTotals &b) {
            // covered/total compared as cross-products to stay in
            // integers.
            return a.totals.covered() * b.totals.total() <
                   b.totals.covered() * a.totals.total();
        });
    if (rollups.size() > 1) {
        out << "\nper-module (worst first):\n";
        for (const auto &entry : rollups)
            out << "  " << std::right << std::setw(5)
                << coverPct(entry.totals.covered(),
                            entry.totals.total())
                << "%  " << entry.scope << "  ("
                << entry.totals.covered() << "/"
                << entry.totals.total() << ")\n";
    }

    std::vector<const Snapshot::Signal *> untoggled;
    for (const auto &sig : snap.signals)
        if (popAll(sig.rise) + popAll(sig.fall) == 0)
            untoggled.push_back(&sig);
    if (!untoggled.empty()) {
        out << "\nnever-toggled signals (" << untoggled.size()
            << "):\n";
        cappedList(out, untoggled, opts.listLimit,
                   [&](const Snapshot::Signal *sig) {
                       out << "    " << sig->name << " ["
                           << sig->width << "b]\n";
                   });
    }

    std::vector<const Snapshot::Stmt *> unexecuted;
    for (const auto &stmt : snap.statements)
        if (!stmt.hit)
            unexecuted.push_back(&stmt);
    if (!unexecuted.empty()) {
        out << "\nnever-executed statements (" << unexecuted.size()
            << "):\n";
        cappedList(out, unexecuted, opts.listLimit,
                   [&](const Snapshot::Stmt *stmt) {
                       out << "    " << stmt->kind;
                       if (!stmt->loc.empty())
                           out << " at " << stmt->loc;
                       out << " (" << stmt->scope << ")\n";
                   });
    }

    std::vector<const Snapshot::Arm *> untaken;
    for (const auto &arm : snap.arms)
        if (!arm.taken)
            untaken.push_back(&arm);
    if (!untaken.empty()) {
        out << "\nnever-taken branch arms (" << untaken.size()
            << "):\n";
        cappedList(out, untaken, opts.listLimit,
                   [&](const Snapshot::Arm *arm) {
                       const auto &stmt = snap.statements[arm->stmt];
                       out << "    " << stmt.kind;
                       if (!stmt.loc.empty())
                           out << " at " << stmt.loc;
                       out << ": " << arm->label << "\n";
                   });
    }

    for (const auto &fsm : snap.fsms) {
        uint64_t seen = 0;
        for (bool flag : fsm.seen)
            seen += flag;
        uint64_t arcs = 0;
        for (const auto &trans : fsm.transitions)
            arcs += trans.seen;
        out << "\nfsm " << fsm.stateVar << ": states " << seen << "/"
            << fsm.states.size() << ", arcs " << arcs << "/"
            << fsm.transitions.size() << "\n";
        for (size_t s = 0; s < fsm.states.size(); ++s)
            if (!fsm.seen[s])
                out << "    never in state " << hexU64(fsm.states[s])
                    << "\n";
        for (const auto &trans : fsm.transitions)
            if (!trans.seen) {
                out << "    never took ";
                if (trans.hasFrom)
                    out << hexU64(trans.from);
                else
                    out << "*";
                out << " -> " << hexU64(trans.to) << "\n";
            }
        for (uint64_t state : fsm.unexpectedStates)
            out << "    UNEXPECTED state " << hexU64(state) << "\n";
        for (const auto &[from, to] : fsm.unexpectedTransitions)
            out << "    UNEXPECTED arc " << hexU64(from) << " -> "
                << hexU64(to) << "\n";
    }
    return out.str();
}

} // namespace hwdbg::cover
