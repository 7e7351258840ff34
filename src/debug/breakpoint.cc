#include "debug/breakpoint.hh"

#include <algorithm>

#include "sim/coverage.hh"

namespace hwdbg::debug
{

const char *
breakpointKindName(Breakpoint::Kind kind)
{
    switch (kind) {
      case Breakpoint::Kind::Expr:
        return "break";
      case Breakpoint::Kind::Watch:
        return "watch";
      case Breakpoint::Kind::Event:
        return "event";
      case Breakpoint::Kind::Line:
        return "line";
    }
    return "?";
}

namespace
{

/** File component after the last path separator. */
std::string
basenameOf(const std::string &path)
{
    size_t slash = path.find_last_of("/\\");
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/** Sum of the resolved statements' execution counters. */
uint64_t
execSum(const Breakpoint &bp, const sim::CoverageCollector &cover)
{
    uint64_t sum = 0;
    for (uint32_t id : bp.stmtIds)
        sum += cover.stmtExecCount(id);
    return sum;
}

} // namespace

std::vector<uint32_t>
resolveLineStmts(const sim::CoverageItems &items, const std::string &file,
                 uint32_t line)
{
    bool bareName = file.find_first_of("/\\") == std::string::npos;
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < items.statements.size(); ++i) {
        const auto &loc = items.statements[i].loc;
        if (loc.line != static_cast<int>(line))
            continue;
        if (loc.file.str() == file ||
            (bareName && basenameOf(loc.file) == file))
            ids.push_back(static_cast<uint32_t>(i));
    }
    return ids;
}

int
BreakpointSet::add(Breakpoint::Kind kind, const std::string &spec,
                   hdl::ExprPtr expr, sim::EvalContext &ctx)
{
    Breakpoint bp;
    bp.id = nextId_++;
    bp.kind = kind;
    bp.spec = spec;
    bp.expr = std::move(expr);
    if (bp.kind == Breakpoint::Kind::Expr)
        bp.lastBool = sim::evalBool(bp.expr, ctx);
    else if (bp.kind == Breakpoint::Kind::Watch)
        bp.lastValue = sim::evalExpr(bp.expr, ctx);
    bps_.push_back(std::move(bp));
    return bps_.back().id;
}

int
BreakpointSet::addLine(const std::string &spec,
                       std::vector<uint32_t> stmt_ids, hdl::ExprPtr cond,
                       const sim::CoverageCollector &cover)
{
    Breakpoint bp;
    bp.id = nextId_++;
    bp.kind = Breakpoint::Kind::Line;
    bp.spec = spec;
    bp.expr = std::move(cond);
    bp.stmtIds = std::move(stmt_ids);
    bp.lastExec = execSum(bp, cover);
    bps_.push_back(std::move(bp));
    return bps_.back().id;
}

bool
BreakpointSet::remove(int id)
{
    auto it = std::find_if(bps_.begin(), bps_.end(),
                           [&](const Breakpoint &bp) { return bp.id == id; });
    if (it == bps_.end())
        return false;
    bps_.erase(it);
    return true;
}

bool
BreakpointSet::setEnabled(int id, bool enabled)
{
    for (auto &bp : bps_) {
        if (bp.id == id) {
            bp.enabled = enabled;
            return true;
        }
    }
    return false;
}

bool
BreakpointSet::eventMatches(const std::string &spec, const std::string &key)
{
    if (spec == key)
        return true;
    // Bare category ("fsm") matches "fsm:<anything>".
    return spec.find(':') == std::string::npos &&
           key.size() > spec.size() && key[spec.size()] == ':' &&
           key.compare(0, spec.size(), spec) == 0;
}

std::vector<int>
BreakpointSet::check(sim::EvalContext &ctx,
                     const std::vector<DebugEvent> &events,
                     const sim::CoverageCollector *cover)
{
    std::vector<int> fired;
    for (auto &bp : bps_) {
        bool hit = false;
        switch (bp.kind) {
          case Breakpoint::Kind::Expr: {
            bool now = sim::evalBool(bp.expr, ctx);
            hit = now && !bp.lastBool;
            bp.lastBool = now;
            break;
          }
          case Breakpoint::Kind::Watch: {
            Bits now = sim::evalExpr(bp.expr, ctx);
            hit = now != bp.lastValue;
            bp.lastValue = now;
            break;
          }
          case Breakpoint::Kind::Event:
            for (const auto &ev : events) {
                if (eventMatches(bp.spec, ev.key)) {
                    hit = true;
                    break;
                }
            }
            break;
          case Breakpoint::Kind::Line: {
            if (!cover)
                break;
            uint64_t now = execSum(bp, *cover);
            hit = now > bp.lastExec &&
                  (!bp.expr || sim::evalBool(bp.expr, ctx));
            bp.lastExec = now;
            break;
          }
        }
        if (hit && bp.enabled) {
            ++bp.hits;
            fired.push_back(bp.id);
        }
    }
    return fired;
}

void
BreakpointSet::rebase(sim::EvalContext &ctx,
                      const sim::CoverageCollector *cover)
{
    for (auto &bp : bps_) {
        if (bp.kind == Breakpoint::Kind::Expr)
            bp.lastBool = sim::evalBool(bp.expr, ctx);
        else if (bp.kind == Breakpoint::Kind::Watch)
            bp.lastValue = sim::evalExpr(bp.expr, ctx);
        else if (bp.kind == Breakpoint::Kind::Line && cover)
            bp.lastExec = execSum(bp, *cover);
    }
}

const Breakpoint *
BreakpointSet::find(int id) const
{
    for (const auto &bp : bps_) {
        if (bp.id == id)
            return &bp;
    }
    return nullptr;
}

} // namespace hwdbg::debug
