#include "synth/timing.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "elab/elaborate.hh"

namespace hwdbg::synth
{

using namespace hdl;

namespace
{

/** Fixed clk-to-out + setup + base routing overhead, ns. */
constexpr double fixedOverheadNs = 1.0;

double
log2d(double value)
{
    return value <= 2 ? 1.0 : std::log2(value);
}

struct DelayModel
{
    const analyze::SignalTable &sigs;
    std::map<std::string, double> wireDelay;
    /** Reader counts per signal: instrumentation that taps a signal
     *  adds load (and thus routing delay) to its existing paths. */
    std::map<std::string, int> fanout;

    double
    loadPenalty(const std::string &name) const
    {
        auto it = fanout.find(name);
        int readers = it == fanout.end() ? 1 : it->second;
        if (readers <= 2)
            return 0.0;
        return 0.06 * std::log2(static_cast<double>(readers));
    }

    uint32_t
    width(const ExprPtr &expr) const
    {
        // Rough width reconstruction for delay scaling.
        switch (expr->kind) {
          case ExprKind::Number: {
            const auto *num = expr->as<NumberExpr>();
            return num->sized ? num->value.width() : 32;
          }
          case ExprKind::Id: {
            const auto *decl = sigs.find(expr->as<IdExpr>()->name);
            return decl ? decl->width : 1;
          }
          case ExprKind::Unary:
            return width(expr->as<UnaryExpr>()->arg);
          case ExprKind::Binary:
            return std::max(width(expr->as<BinaryExpr>()->lhs),
                            width(expr->as<BinaryExpr>()->rhs));
          case ExprKind::Ternary:
            return std::max(width(expr->as<TernaryExpr>()->thenExpr),
                            width(expr->as<TernaryExpr>()->elseExpr));
          case ExprKind::Range: {
            const auto *range = expr->as<RangeExpr>();
            auto msb = elab::tryEvalConst(range->msb);
            auto lsb = elab::tryEvalConst(range->lsb);
            if (!msb || !lsb)
                return 1;
            return static_cast<uint32_t>(msb->toU64() - lsb->toU64() + 1);
          }
          default:
            return 8;
        }
    }

    double
    delay(const ExprPtr &expr) const
    {
        if (!expr)
            return 0;
        double w = width(expr);
        switch (expr->kind) {
          case ExprKind::Number:
            return 0;
          case ExprKind::Id: {
            const std::string &name = expr->as<IdExpr>()->name;
            auto it = wireDelay.find(name);
            double base = it == wireDelay.end() ? 0 : it->second;
            return base + loadPenalty(name);
          }
          case ExprKind::Unary: {
            const auto *un = expr->as<UnaryExpr>();
            double child = delay(un->arg);
            switch (un->op) {
              case UnaryOp::Neg: return child + 0.30 + 0.012 * w;
              case UnaryOp::BitNot: return child + 0.05;
              case UnaryOp::LogNot: return child + 0.05;
              default:
                return child + 0.10 + 0.12 * log2d(width(un->arg));
            }
          }
          case ExprKind::Binary: {
            const auto *bin = expr->as<BinaryExpr>();
            double child = std::max(delay(bin->lhs), delay(bin->rhs));
            double ow = std::max(width(bin->lhs), width(bin->rhs));
            switch (bin->op) {
              case BinaryOp::Add:
              case BinaryOp::Sub:
                return child + 0.30 + 0.012 * ow;
              case BinaryOp::Mul:
                return child + 0.80 + 0.025 * ow;
              case BinaryOp::Div:
              case BinaryOp::Mod:
                return child + 1.50 + 0.050 * ow;
              case BinaryOp::BitAnd:
              case BinaryOp::BitOr:
              case BinaryOp::BitXor:
                return child + 0.15;
              case BinaryOp::LogAnd:
              case BinaryOp::LogOr:
                return child + 0.12;
              case BinaryOp::Eq:
              case BinaryOp::Ne:
                return child + 0.20 + 0.008 * ow;
              case BinaryOp::Lt:
              case BinaryOp::Le:
              case BinaryOp::Gt:
              case BinaryOp::Ge:
                return child + 0.25 + 0.012 * ow;
              case BinaryOp::Shl:
              case BinaryOp::Shr:
                if (bin->rhs->kind == ExprKind::Number)
                    return delay(bin->lhs) + 0.05;
                return child + 0.25 + 0.08 * log2d(w);
            }
            return child;
          }
          case ExprKind::Ternary: {
            const auto *tern = expr->as<TernaryExpr>();
            double sel = delay(tern->cond);
            double data = std::max(delay(tern->thenExpr),
                                   delay(tern->elseExpr));
            return std::max(sel, data) + 0.15;
          }
          case ExprKind::Concat: {
            double worst = 0;
            for (const auto &part : expr->as<ConcatExpr>()->parts)
                worst = std::max(worst, delay(part));
            return worst;
          }
          case ExprKind::Repeat:
            return delay(expr->as<RepeatExpr>()->inner);
          case ExprKind::Index: {
            const auto *idx = expr->as<IndexExpr>();
            auto it = wireDelay.find(idx->base);
            double base = (it == wireDelay.end() ? 0 : it->second) +
                          loadPenalty(idx->base);
            if (idx->index->kind == ExprKind::Number)
                return base;
            return std::max(base, delay(idx->index)) + 0.20;
          }
          case ExprKind::Range: {
            const auto *range = expr->as<RangeExpr>();
            auto it = wireDelay.find(range->base);
            return (it == wireDelay.end() ? 0 : it->second) +
                   loadPenalty(range->base);
          }
        }
        return 0;
    }
};

} // namespace

TimingReport
estimateTiming(const analyze::Context &facts)
{
    obs::ObsSpan span("synth.timing");
    HWDBG_STAT_INC("synth.timing_estimates", 1);
    DelayModel model{facts.signals(), {}, {}};

    // Fanout census: every identifier occurrence in an expression is a
    // reader of that signal.
    for (const auto &ga : facts.assigns()) {
        forEachIdent(ga.rhs, [&](const std::string &name) {
            ++model.fanout[name];
        });
        forEachIdent(ga.guard, [&](const std::string &name) {
            ++model.fanout[name];
        });
    }
    for (const auto &item : facts.module().items) {
        if (item->kind != ItemKind::Instance)
            continue;
        for (const auto &conn : item->as<InstanceItem>()->conns)
            if (conn.actual)
                forEachIdent(conn.actual, [&](const std::string &name) {
                    ++model.fanout[name];
                });
    }

    // Settle wire arrival times by fixpoint over continuous assigns
    // (combinational loops stop improving and are truncated).
    for (int iter = 0; iter < 64; ++iter) {
        bool changed = false;
        for (const auto &[name, def] : facts.wires()) {
            double arrival = model.delay(def);
            auto it = model.wireDelay.find(name);
            if (it == model.wireDelay.end() ||
                arrival > it->second + 1e-9) {
                if (it != model.wireDelay.end() && iter > 48)
                    continue; // loop guard
                model.wireDelay[name] = arrival;
                changed = true;
            }
        }
        if (!changed)
            break;
    }

    TimingReport report;
    auto consider = [&](double path, const std::string &signal) {
        if (path > report.criticalPathNs) {
            report.criticalPathNs = path;
            report.criticalSignal = signal;
        }
    };

    for (const auto &ga : facts.assigns()) {
        std::string target = "?";
        auto targets = analyze::lvalueTargets(ga.lhs);
        if (!targets.empty())
            target = *targets.begin();
        double data = model.delay(ga.rhs);
        double guard = model.delay(ga.guard);
        bool guarded = ga.guard->kind != ExprKind::Number;
        // The guard selects between new and held value: one mux level.
        double path = std::max(data, guard) + (guarded ? 0.15 : 0.0);
        consider(path, target);
    }

    report.fmaxMhz = 1000.0 / (fixedOverheadNs + report.criticalPathNs);
    return report;
}

bool
meetsTarget(const TimingReport &report, double target_mhz)
{
    return report.fmaxMhz + 1e-9 >= target_mhz;
}

} // namespace hwdbg::synth
