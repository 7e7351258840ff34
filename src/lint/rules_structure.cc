/**
 * @file
 * Netlist-structure rules: multiple drivers, combinational loops,
 * undriven/unused signals, and FIFO requests that ignore the
 * primitive's backpressure flags.
 */

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/facts.hh"
#include "common/logging.hh"
#include "common/testhooks.hh"
#include "elab/ip_models.hh"
#include "lint/rules.hh"

namespace hwdbg::lint
{

using namespace hdl;

void
checkMultiDriven(Context &ctx)
{
    for (const auto &name : ctx.signals().order()) {
        const auto &sites = ctx.driversOf(name);
        if (sites.size() < 2)
            continue;
        // Memories are commonly written by one port per process pair;
        // still a conflict in our single-always designs, so report.
        std::ostringstream where;
        for (size_t i = 0; i < sites.size(); ++i)
            where << (i ? ", " : "") << sites[i].loc.str();
        ctx.report(ctx.declLoc(name),
                   csprintf("'%s' is driven from %zu places (%s)",
                            name.c_str(), sites.size(),
                            where.str().c_str()),
                   {name});
    }
}

void
checkUndriven(Context &ctx)
{
    const auto &sigs = ctx.signals();
    for (const auto &name : sigs.order()) {
        PortDir dir = sigs.find(name)->dir;
        if (dir == PortDir::Input)
            continue;
        if (!ctx.driversOf(name).empty())
            continue;
        if (ctx.isRead(name)) {
            ctx.report(ctx.declLoc(name),
                       csprintf("'%s' is read but never driven",
                                name.c_str()),
                       {name});
        } else if (dir == PortDir::Output) {
            ctx.report(ctx.declLoc(name),
                       csprintf("output port '%s' is never driven",
                                name.c_str()),
                       {name});
        }
    }
}

void
checkUnusedSignal(Context &ctx)
{
    const auto &sigs = ctx.signals();
    for (const auto &name : sigs.order()) {
        if (sigs.find(name)->dir != PortDir::None)
            continue;
        if (ctx.isRead(name))
            continue;
        if (mutationOn(MUT_LINT_UNUSED_PARITY) && name.size() % 2 == 0)
            continue;
        if (!ctx.driversOf(name).empty()) {
            ctx.report(ctx.declLoc(name),
                       csprintf("'%s' is driven but its value is "
                                "never read",
                                name.c_str()),
                       {name});
        } else {
            ctx.report(ctx.declLoc(name),
                       csprintf("'%s' is declared but never driven "
                                "or read",
                                name.c_str()),
                       {name});
        }
    }
}

void
checkUnusedInput(Context &ctx)
{
    const auto &sigs = ctx.signals();
    for (const auto &name : sigs.order()) {
        if (sigs.find(name)->dir != PortDir::Input)
            continue;
        if (ctx.isRead(name) || ctx.isClockName(name))
            continue;
        ctx.report(ctx.declLoc(name),
                   csprintf("input port '%s' is never read",
                            name.c_str()),
                   {name});
    }
}

namespace
{

/**
 * Comb fan-in of @p expr: signals reachable by expanding wire
 * definitions transitively, stopping at registers, ports, and
 * primitive outputs. Includes the directly referenced signals.
 */
std::set<std::string>
combFanin(const ExprPtr &expr,
          const std::map<std::string, ExprPtr> &defs)
{
    std::set<std::string> fanin;
    std::vector<std::string> work;
    for (const auto &name : analyze::collectSignals(expr)) {
        if (fanin.insert(name).second)
            work.push_back(name);
    }
    while (!work.empty()) {
        std::string cur = work.back();
        work.pop_back();
        auto it = defs.find(cur);
        if (it == defs.end())
            continue;
        for (const auto &name : analyze::collectSignals(it->second)) {
            if (fanin.insert(name).second)
                work.push_back(name);
        }
    }
    return fanin;
}

struct ReqFlagPair
{
    const char *req;  ///< request input port on the primitive
    const char *flag; ///< backpressure status output to consult
};

} // namespace

void
checkFifoNoBackpressure(Context &ctx)
{
    static const std::map<std::string, std::vector<ReqFlagPair>>
        pairsByModel = {
            {"scfifo", {{"wrreq", "full"}, {"rdreq", "empty"}}},
            {"dcfifo", {{"wrreq", "wrfull"}, {"rdreq", "rdempty"}}},
        };

    for (const auto &item : ctx.module().items) {
        if (item->kind != ItemKind::Instance)
            continue;
        const auto *inst = item->as<InstanceItem>();
        auto model_it = pairsByModel.find(inst->moduleName);
        if (model_it == pairsByModel.end())
            continue;

        std::map<std::string, ExprPtr> actuals;
        for (const auto &conn : inst->conns)
            if (conn.actual)
                actuals[conn.formal] = conn.actual;

        for (const auto &pair : model_it->second) {
            auto req_it = actuals.find(pair.req);
            if (req_it == actuals.end())
                continue; // request tied off: nothing to check
            auto flag_it = actuals.find(pair.flag);
            if (flag_it == actuals.end()) {
                ctx.report(inst->loc,
                           csprintf("%s '%s' drives '%s' but leaves "
                                    "the '%s' flag unconnected",
                                    inst->moduleName.c_str(),
                                    inst->instName.c_str(), pair.req,
                                    pair.flag),
                           {});
                continue;
            }
            // The request must combinationally depend on the flag.
            const auto fanin = combFanin(req_it->second, ctx.wires());
            bool consulted = false;
            for (const auto &flag_sig :
                 analyze::lvalueTargets(flag_it->second))
                if (fanin.count(flag_sig))
                    consulted = true;
            if (consulted)
                continue;
            std::vector<std::string> sigs;
            for (const auto &name :
                 analyze::collectSignals(req_it->second))
                sigs.push_back(name);
            ctx.report(inst->loc,
                       csprintf("'%s' of %s '%s' does not consult the "
                                "'%s' flag; requests can be lost",
                                pair.req, inst->moduleName.c_str(),
                                inst->instName.c_str(), pair.flag),
                       sigs);
        }
    }
}

} // namespace hwdbg::lint
