/**
 * @file
 * Scheduler-race pass.
 *
 * The simulator executes triggered clocked processes in declaration
 * order, applies blocking writes immediately, and commits nonblocking
 * writes in execution order after every process ran. Three patterns
 * therefore make design behavior depend on the (arbitrary) process
 * order, and all three are exactly what the fuzz process-permutation
 * oracle (Oracle::Order) perturbs:
 *
 *   blocking-race     a clocked process writes a signal with a blocking
 *       assignment while a sibling process on the same clock reads or
 *       writes it in the same time step — whichever process runs first
 *       changes the value observed / surviving
 *   multi-driver-nba  nonblocking writes to one signal from several
 *       clocked processes: the commit order is the execution order, so
 *       the surviving value depends on scheduling
 *   nba-blocking-mix  one signal written both blocking and nonblocking
 *       from clocked processes: the NBA commit silently overwrites the
 *       blocking value at the end of the step (or vice versa)
 *
 * Every signal named in a blocking-race or multi-driver-nba diagnostic
 * is a potential source of permutation divergence; the Order oracle
 * treats observed divergence on an unflagged design as an analyzer
 * soundness failure.
 */

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/context.hh"
#include "analyze/passes.hh"
#include "common/logging.hh"

namespace hwdbg::analyze
{

using namespace hdl;

namespace
{

struct ClockedWrite
{
    const AlwaysItem *proc = nullptr;
    std::string clock;
    bool blocking = false;
    SourceLoc loc;
};

} // namespace

void
passRace(Context &ctx)
{
    const Module &mod = ctx.module();

    // Clocked writes per signal, in module order.
    std::map<std::string, std::vector<ClockedWrite>> writes;
    for (const auto &ga : ctx.assigns()) {
        if (!ga.proc || ga.proc->isComb)
            continue;
        ClockedWrite cw;
        cw.proc = ga.proc;
        cw.clock = ga.clock;
        cw.blocking = !ga.sequential;
        cw.loc = ga.stmt ? ga.stmt->loc : mod.loc;
        for (const auto &target : lvalueTargets(ga.lhs))
            writes[target].push_back(cw);
    }

    // Clocked processes with a stable human label (position among all
    // always blocks, matching waveform/debugger numbering).
    std::vector<const AlwaysItem *> clockedProcs;
    std::map<const AlwaysItem *, size_t> procIndex;
    size_t always_idx = 0;
    for (const auto &item : mod.items) {
        if (item->kind != ItemKind::Always)
            continue;
        const auto *proc = item->as<AlwaysItem>();
        procIndex[proc] = always_idx++;
        if (!proc->isComb)
            clockedProcs.push_back(proc);
    }

    for (const auto &[name, sites] : writes) {
        // --- blocking-race: blocking write + same-clock sibling use.
        const ClockedWrite *blocking = nullptr;
        for (const auto &site : sites)
            if (site.blocking && !blocking)
                blocking = &site;
        if (blocking) {
            std::set<size_t> rivals;
            for (const auto *proc : clockedProcs) {
                if (proc == blocking->proc)
                    continue;
                if (processClock(*proc) != blocking->clock)
                    continue;
                bool uses = ctx.procReads(proc).count(name) != 0;
                for (const auto &site : sites)
                    if (site.proc == proc)
                        uses = true;
                if (uses)
                    rivals.insert(procIndex[proc]);
            }
            if (!rivals.empty()) {
                std::string rival_list;
                for (size_t rival : rivals)
                    rival_list += (rival_list.empty() ? "" : ", ") +
                                  csprintf("always-block %zu", rival);
                ctx.report(
                    "blocking-race", Severity::Error,
                    "Signal Asynchrony", blocking->loc,
                    csprintf("blocking write to '%s' races with %s on "
                             "the same clock edge; the observed value "
                             "depends on process execution order",
                             name.c_str(), rival_list.c_str()),
                    {name});
            }
        }

        // --- nba-blocking-mix: both styles drive one signal.
        bool has_blocking = false, has_nba = false;
        SourceLoc mix_loc = mod.loc;
        for (const auto &site : sites) {
            if (site.blocking && !has_blocking) {
                has_blocking = true;
                mix_loc = site.loc;
            }
            has_nba |= !site.blocking;
        }
        if (has_blocking && has_nba) {
            ctx.report(
                "nba-blocking-mix", Severity::Warning,
                "Signal Asynchrony", mix_loc,
                csprintf("'%s' is written with both blocking and "
                         "nonblocking assignments in clocked "
                         "processes; the nonblocking commit can "
                         "silently overwrite the blocking value",
                         name.c_str()),
                {name});
        }

        // --- multi-driver-nba: NBA writers in several processes.
        std::set<const AlwaysItem *> nbaProcs;
        SourceLoc nba_loc = mod.loc;
        bool first_nba = true;
        for (const auto &site : sites) {
            if (site.blocking)
                continue;
            if (first_nba) {
                nba_loc = site.loc;
                first_nba = false;
            }
            nbaProcs.insert(site.proc);
        }
        if (nbaProcs.size() >= 2) {
            ctx.report(
                "multi-driver-nba", Severity::Warning,
                "Signal Asynchrony", nba_loc,
                csprintf("'%s' receives nonblocking writes from %zu "
                         "clocked processes; the surviving value "
                         "follows process execution order",
                         name.c_str(), nbaProcs.size()),
                {name});
        }
    }
}

} // namespace hwdbg::analyze
