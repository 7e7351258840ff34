#include "core/validcheck.hh"

#include <map>

#include "common/logging.hh"
#include "core/instrument.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hwdbg::core
{

using namespace hdl;

ValidCheckResult
applyValidCheck(const analyze::Context &facts,
                const ValidCheckOptions &opts)
{
    const Module &mod = facts.module();
    obs::ObsSpan span("instrument.validcheck");
    HWDBG_STAT_INC("instrument.validcheck.runs", 1);
    for (const auto &pair : opts.pairs) {
        if (!mod.findNet(pair.data))
            fatal("ValidCheck: no signal named '%s'", pair.data.c_str());
        if (!mod.findNet(pair.valid))
            fatal("ValidCheck: no signal named '%s'",
                  pair.valid.c_str());
    }

    InstrumentBuilder builder(mod);
    std::string clock = designClock(mod);
    ValidCheckResult result;

    for (const auto &pair : opts.pairs) {
        int uses = 0;
        for (const auto &ga : facts.assigns()) {
            if (!ga.sequential)
                continue; // combinational uses fire at the consumer reg
            if (!analyze::collectSignals(ga.rhs).count(pair.data))
                continue;
            // Skip uses already qualified by the valid signal: the
            // guard mentioning the valid is the §3.3.4 fix pattern.
            if (analyze::collectSignals(ga.guard).count(pair.valid))
                continue;
            for (const auto &target :
                 analyze::lvalueTargets(ga.lhs)) {
                auto disp = std::make_shared<DisplayStmt>();
                disp->format = "[ValidCheck] " + pair.data +
                               " used without " + pair.valid +
                               " into " + target;
                auto check = std::make_shared<IfStmt>();
                check->cond = mkAnd(cloneExpr(ga.guard),
                                    mkNot(mkId(pair.valid)));
                check->thenStmt = disp;
                builder.addClockedStmt(clock, check);
                ++uses;
            }
        }
        result.usesInstrumented[pair.data] = uses;
    }

    builder.finish();
    result.module = builder.module();
    result.generatedLines = builder.generatedLines();
    return result;
}

std::vector<InvalidUse>
invalidUses(const std::vector<sim::EvalContext::LogLine> &log)
{
    std::vector<InvalidUse> out;
    std::set<std::string> seen;
    const std::string prefix = "[ValidCheck] ";
    for (const auto &line : log) {
        if (line.text.rfind(prefix, 0) != 0)
            continue;
        std::string body = line.text.substr(prefix.size());
        size_t used = body.find(" used without ");
        size_t into = body.find(" into ");
        if (used == std::string::npos || into == std::string::npos)
            continue;
        InvalidUse use;
        use.cycle = line.cycle;
        use.data = body.substr(0, used);
        use.target = body.substr(into + 6);
        if (seen.insert(use.data + "->" + use.target).second)
            out.push_back(std::move(use));
    }
    return out;
}

} // namespace hwdbg::core
