#include "sim/backend.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "common/testhooks.hh"
#include "obs/metrics.hh"
#include "sim/coverage.hh"
#include "sim/profiler.hh"
#include "sim/simulator.hh"

namespace hwdbg::sim
{

using namespace hdl;

Backend::~Backend() = default;

EvalContext &
Backend::ctx() const
{
    return sim_.ctx_;
}

const LoweredDesign &
Backend::design() const
{
    return sim_.design_;
}

SimCounters *
Backend::prof() const
{
    return sim_.prof_;
}

CoverageCollector *
Backend::cover() const
{
    return sim_.ctx_.cover;
}

void
Backend::noteSettle(size_t iters, size_t work) const
{
    sim_.noteSettle(iters, work);
}

bool
Backend::signalBool(int sig)
{
    return !ctx().values[sig].isZero();
}

void
InterpBackend::settleComb()
{
    // Bounded fixpoint: small designs settle in a handful of passes.
    // Store sites flag value changes as a cheap stability fast path,
    // but a pass is only UNstable when its end state differs from its
    // start state: a comb process that writes a default and then
    // overrides it ("next = 0; if (c) next = 1;") toggles values
    // transiently inside every pass, and those transient store events
    // must not count as progress or the loop never terminates.
    using ProfClock = std::chrono::steady_clock;
    EvalContext &ctx_ = ctx();
    SimCounters *prof_ = prof();
    const auto &assigns = design().assigns();
    const auto &combs = design().combProcs();
    size_t work = assigns.size() + combs.size();
    size_t max_iters = work + 4;
    size_t iters_used = 0;
    for (size_t iter = 0; iter < max_iters; ++iter) {
        iters_used = iter + 1;
        std::vector<Bits> before_values = ctx_.values;
        std::vector<std::vector<Bits>> before_arrays = ctx_.arrays;
        ctx_.valuesChanged = false;
        for (size_t i = 0; i < assigns.size(); ++i) {
            const auto *assign = assigns[i];
            ProfClock::time_point t0;
            if (prof_)
                t0 = ProfClock::now();
            uint32_t lw = assign->lhs->width;
            uint32_t cw = std::max(lw, assign->rhs->width);
            Bits value = evalExpr(assign->rhs, ctx_, cw).resized(lw);
            storeLValue(assign->lhs, value, ctx_);
            if (prof_) {
                ++prof_->assignEvals[i];
                prof_->assignNs[i] +=
                    std::chrono::duration<double, std::nano>(
                        ProfClock::now() - t0)
                        .count();
            }
        }
        for (size_t i = 0; i < combs.size(); ++i) {
            ProfClock::time_point t0;
            if (prof_)
                t0 = ProfClock::now();
            execStmt(combs[i]->body, false);
            if (prof_) {
                ++prof_->combEvals[i];
                prof_->combNs[i] +=
                    std::chrono::duration<double, std::nano>(
                        ProfClock::now() - t0)
                        .count();
            }
        }
        if (!ctx_.valuesChanged) {
            noteSettle(iters_used, work);
            return;
        }
        auto same = [](const Bits &a, const Bits &b) {
            return a.width() == b.width() && a.compare(b) == 0;
        };
        bool stable = true;
        for (size_t i = 0; stable && i < ctx_.values.size(); ++i)
            stable = same(before_values[i], ctx_.values[i]);
        for (size_t i = 0; stable && i < ctx_.arrays.size(); ++i) {
            if (before_arrays[i].size() != ctx_.arrays[i].size()) {
                stable = false;
                break;
            }
            for (size_t j = 0; stable && j < ctx_.arrays[i].size(); ++j)
                stable = same(before_arrays[i][j], ctx_.arrays[i][j]);
        }
        if (stable) {
            noteSettle(iters_used, work);
            return;
        }
    }
    fatal("combinational logic failed to settle (combinational loop?)");
}

void
InterpBackend::execClocked(size_t pi)
{
    execStmt(design().clockedProcs()[pi]->body, true);
}

void
InterpBackend::execStmt(const StmtPtr &stmt, bool clocked)
{
    if (!stmt)
        return;
    EvalContext &ctx_ = ctx();
    CoverageCollector *cover_ = cover();
    if (cover_)
        cover_->onStmt(stmt.get());
    switch (stmt->kind) {
      case StmtKind::Block:
        for (const auto &sub : stmt->as<BlockStmt>()->stmts)
            execStmt(sub, clocked);
        break;
      case StmtKind::If: {
        const auto *branch = stmt->as<IfStmt>();
        bool taken = evalBool(branch->cond, ctx_);
        if (cover_)
            cover_->onArm(stmt.get(), taken ? 0 : 1);
        if (taken)
            execStmt(branch->thenStmt, clocked);
        else
            execStmt(branch->elseStmt, clocked);
        break;
      }
      case StmtKind::Case: {
        const auto *sel = stmt->as<CaseStmt>();
        Bits value = evalExpr(sel->selector, ctx_);
        const CaseItem *chosen = nullptr;
        const CaseItem *dflt = nullptr;
        for (const auto &item : sel->items) {
            if (item.labels.empty()) {
                dflt = &item;
                continue;
            }
            for (const auto &label : item.labels) {
                uint32_t cmp_w =
                    std::max(sel->selector->width, label->width);
                if (mutationOn(MUT_SIM_CASE_SEL_WIDTH))
                    cmp_w = sel->selector->width;
                // evalExpr never evaluates below the label's own
                // width; resize forces the comparison width so the
                // seeded truncation bug actually truncates.
                if (evalExpr(label, ctx_, cmp_w).resized(cmp_w) ==
                    value.resized(cmp_w)) {
                    chosen = &item;
                    break;
                }
            }
            if (chosen)
                break;
        }
        if (!chosen)
            chosen = dflt;
        if (cover_) {
            // Arm index is the item's position; the trailing implicit
            // "no match" arm only exists when there is no default.
            uint32_t arm =
                chosen ? static_cast<uint32_t>(chosen -
                                               sel->items.data())
                       : static_cast<uint32_t>(sel->items.size());
            cover_->onArm(stmt.get(), arm);
        }
        if (chosen)
            execStmt(chosen->body, clocked);
        break;
      }
      case StmtKind::Assign: {
        const auto *assign = stmt->as<AssignStmt>();
        uint32_t lw = assign->lhs->width;
        uint32_t cw = std::max(lw, assign->rhs->width);
        Bits value = evalExpr(assign->rhs, ctx_, cw).resized(lw);
        if (clocked && assign->nonblocking) {
            ResolvedLValue resolved = resolveLValue(assign->lhs, ctx_);
            for (const auto &part : resolved.parts)
                nba_.push_back(PendingNba{
                    part.target,
                    value.slice(part.rhsMsb, part.rhsLsb)});
        } else {
            storeLValue(assign->lhs, value, ctx_);
        }
        break;
      }
      case StmtKind::Display: {
        const auto *disp = stmt->as<DisplayStmt>();
        if (!clocked) {
            if (!warnedCombDisplay_) {
                warn("$display in combinational process ignored");
                warnedCombDisplay_ = true;
            }
            break;
        }
        std::vector<Bits> args;
        args.reserve(disp->args.size());
        for (const auto &arg : disp->args)
            args.push_back(evalExpr(arg, ctx_));
        // Formatting is deferred to the next log drain: the hot loop
        // only evaluates the arguments and banks the raw hit.
        ctx_.pendingLog.push_back(EvalContext::PendingDisplay{
            ctx_.cycle, &disp->format, std::move(args)});
        HWDBG_STAT_INC("sim.display_records", 1);
        break;
      }
      case StmtKind::Finish:
        ctx_.finished = true;
        break;
      case StmtKind::Null:
        break;
    }
}

void
InterpBackend::commitNba()
{
    for (const auto &write : nba_)
        applyStore(write.target, write.value, ctx());
    nba_.clear();
}

void
InterpBackend::exportNba(std::vector<PendingNba> &out) const
{
    out = nba_;
}

void
InterpBackend::importNba(const std::vector<PendingNba> &in)
{
    nba_ = in;
}

} // namespace hwdbg::sim
