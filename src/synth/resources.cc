#include "synth/resources.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hwdbg::synth
{

using namespace hdl;

namespace
{

/** Memories at or above this many bits are mapped to block RAM. */
constexpr uint64_t bramThreshold = 2048;

uint32_t
log2ceil(uint64_t value)
{
    uint32_t bits = 0;
    while ((uint64_t(1) << bits) < value)
        ++bits;
    return bits;
}

/** Self-determined width of an expression without simulator lowering. */
uint32_t
exprWidth(const ExprPtr &expr,
          const std::map<std::string, uint32_t> &widths)
{
    if (!expr)
        return 1;
    switch (expr->kind) {
      case ExprKind::Number: {
        const auto *num = expr->as<NumberExpr>();
        return num->sized ? num->value.width()
                          : std::max<uint32_t>(32, num->value.width());
      }
      case ExprKind::Id: {
        auto it = widths.find(expr->as<IdExpr>()->name);
        return it == widths.end() ? 1 : it->second;
      }
      case ExprKind::Unary: {
        const auto *un = expr->as<UnaryExpr>();
        if (un->op == UnaryOp::Neg || un->op == UnaryOp::BitNot)
            return exprWidth(un->arg, widths);
        return 1;
      }
      case ExprKind::Binary: {
        const auto *bin = expr->as<BinaryExpr>();
        switch (bin->op) {
          case BinaryOp::Shl:
          case BinaryOp::Shr:
            return exprWidth(bin->lhs, widths);
          case BinaryOp::LogAnd:
          case BinaryOp::LogOr:
          case BinaryOp::Eq:
          case BinaryOp::Ne:
          case BinaryOp::Lt:
          case BinaryOp::Le:
          case BinaryOp::Gt:
          case BinaryOp::Ge:
            return 1;
          default:
            return std::max(exprWidth(bin->lhs, widths),
                            exprWidth(bin->rhs, widths));
        }
      }
      case ExprKind::Ternary:
        return std::max(exprWidth(expr->as<TernaryExpr>()->thenExpr,
                                  widths),
                        exprWidth(expr->as<TernaryExpr>()->elseExpr,
                                  widths));
      case ExprKind::Concat: {
        uint32_t total = 0;
        for (const auto &part : expr->as<ConcatExpr>()->parts)
            total += exprWidth(part, widths);
        return total;
      }
      case ExprKind::Repeat: {
        const auto *rep = expr->as<RepeatExpr>();
        auto count = elab::tryEvalConst(rep->count);
        return static_cast<uint32_t>(count ? count->toU64() : 1) *
               exprWidth(rep->inner, widths);
      }
      case ExprKind::Index:
        return 1; // bit select (element select handled by caller width)
      case ExprKind::Range: {
        const auto *range = expr->as<RangeExpr>();
        auto msb = elab::tryEvalConst(range->msb);
        auto lsb = elab::tryEvalConst(range->lsb);
        if (!msb || !lsb)
            return 1;
        return static_cast<uint32_t>(msb->toU64() - lsb->toU64() + 1);
      }
    }
    return 1;
}

/** LUT-equivalent cost of evaluating an expression tree. */
uint64_t
logicCost(const ExprPtr &expr,
          const std::map<std::string, uint32_t> &widths)
{
    if (!expr)
        return 0;
    uint32_t w = exprWidth(expr, widths);
    switch (expr->kind) {
      case ExprKind::Number:
      case ExprKind::Id:
        return 0;
      case ExprKind::Unary: {
        const auto *un = expr->as<UnaryExpr>();
        uint64_t child = logicCost(un->arg, widths);
        uint32_t aw = exprWidth(un->arg, widths);
        switch (un->op) {
          case UnaryOp::Neg: return child + aw;
          case UnaryOp::BitNot: return child; // folds into downstream LUTs
          case UnaryOp::LogNot: return child + 1;
          default: return child + (aw + 3) / 4; // reduction tree
        }
      }
      case ExprKind::Binary: {
        const auto *bin = expr->as<BinaryExpr>();
        uint64_t children =
            logicCost(bin->lhs, widths) + logicCost(bin->rhs, widths);
        uint32_t ow = std::max(exprWidth(bin->lhs, widths),
                               exprWidth(bin->rhs, widths));
        switch (bin->op) {
          case BinaryOp::Add:
          case BinaryOp::Sub:
            return children + ow;
          case BinaryOp::Mul:
            return children + uint64_t(2) * ow;
          case BinaryOp::Div:
          case BinaryOp::Mod:
            return children + uint64_t(4) * ow;
          case BinaryOp::BitAnd:
          case BinaryOp::BitOr:
          case BinaryOp::BitXor:
            return children + (ow + 1) / 2;
          case BinaryOp::LogAnd:
          case BinaryOp::LogOr:
            return children + 1;
          case BinaryOp::Eq:
          case BinaryOp::Ne:
            return children + (ow + 1) / 2;
          case BinaryOp::Lt:
          case BinaryOp::Le:
          case BinaryOp::Gt:
          case BinaryOp::Ge:
            return children + ow;
          case BinaryOp::Shl:
          case BinaryOp::Shr: {
            bool constant_shift =
                bin->rhs->kind == ExprKind::Number;
            if (constant_shift)
                return children; // pure wiring
            return children +
                   uint64_t(w) * std::max(1u, log2ceil(w)) / 2;
          }
        }
        return children;
      }
      case ExprKind::Ternary: {
        const auto *tern = expr->as<TernaryExpr>();
        return logicCost(tern->cond, widths) +
               logicCost(tern->thenExpr, widths) +
               logicCost(tern->elseExpr, widths) + w; // 2:1 mux
      }
      case ExprKind::Concat: {
        uint64_t total = 0;
        for (const auto &part : expr->as<ConcatExpr>()->parts)
            total += logicCost(part, widths);
        return total; // wiring only
      }
      case ExprKind::Repeat:
        return logicCost(expr->as<RepeatExpr>()->inner, widths);
      case ExprKind::Index: {
        const auto *idx = expr->as<IndexExpr>();
        uint64_t child = logicCost(idx->index, widths);
        if (idx->index->kind == ExprKind::Number)
            return child; // static select: wiring
        auto it = widths.find(idx->base);
        uint32_t bw = it == widths.end() ? 1 : it->second;
        return child + std::max(1u, log2ceil(std::max(2u, bw)));
      }
      case ExprKind::Range:
        return 0; // static select: wiring
    }
    return 0;
}

} // namespace

ResourceUsage &
ResourceUsage::operator+=(const ResourceUsage &rhs)
{
    bramBits += rhs.bramBits;
    registers += rhs.registers;
    logic += rhs.logic;
    return *this;
}

ResourceUsage
ResourceUsage::overheadVs(const ResourceUsage &base) const
{
    ResourceUsage out;
    out.bramBits = std::max(0.0, bramBits - base.bramBits);
    out.registers =
        registers > base.registers ? registers - base.registers : 0;
    out.logic = logic > base.logic ? logic - base.logic : 0;
    return out;
}

NormalizedUsage
normalize(const ResourceUsage &usage, const Platform &platform)
{
    NormalizedUsage out;
    out.bramPct = 100.0 * usage.bramBits / platform.bramBits;
    out.registersPct =
        100.0 * static_cast<double>(usage.registers) /
        static_cast<double>(platform.registers);
    out.logicPct = 100.0 * static_cast<double>(usage.logic) /
                   static_cast<double>(platform.logic);
    return out;
}

ResourceUsage
estimateResources(const analyze::Context &facts)
{
    const Module &mod = facts.module();
    obs::ObsSpan span("synth.resources");
    HWDBG_STAT_INC("synth.resource_estimates", 1);
    ResourceUsage usage;
    std::map<std::string, uint32_t> widths;

    // Declarations: flip-flops and memories.
    for (const auto &item : mod.items) {
        if (item->kind != ItemKind::Net)
            continue;
        const auto *net = item->as<NetItem>();
        uint32_t width = elab::netWidth(*net);
        widths[net->name] = width;
        if (net->net != NetKind::Reg)
            continue;
        if (net->array) {
            uint64_t size = elab::memoryDepth(*net);
            uint64_t bits = size * width;
            if (bits >= bramThreshold) {
                usage.bramBits += static_cast<double>(bits);
                usage.logic += width / 2 + log2ceil(size);
            } else {
                usage.registers += bits;
                // Register-file read mux.
                usage.logic += width * std::max<uint32_t>(1,
                    log2ceil(std::max<uint64_t>(2, size)));
            }
        } else {
            usage.registers += width;
        }
    }

    // Logic: continuous assigns and processes.
    for (const auto &ga : facts.assigns()) {
        usage.logic += logicCost(ga.rhs, widths);
        // Write-enable / priority mux on the target for guarded
        // procedural assignments.
        if (ga.stmt) {
            uint32_t lw = exprWidth(ga.lhs, widths);
            if (ga.lhs->kind == ExprKind::Id) {
                auto it = widths.find(ga.lhs->as<IdExpr>()->name);
                if (it != widths.end())
                    lw = it->second;
            }
            bool guarded = !(ga.guard->kind == ExprKind::Number);
            if (guarded)
                usage.logic += lw;
            // Guard evaluation cost, shared across assignments under the
            // same branch; halve to avoid double counting.
            usage.logic += logicCost(ga.guard, widths) / 2;
        }
    }

    // Blackbox IPs.
    for (const auto &item : mod.items) {
        if (item->kind != ItemKind::Instance)
            continue;
        const auto *inst = item->as<InstanceItem>();
        std::map<std::string, uint64_t> params;
        for (const auto &[name, value] : inst->paramOverrides)
            params[name] = elab::evalConst(value, {}).toU64();
        auto param = [&](const char *name, uint64_t def) {
            auto it = params.find(name);
            return it == params.end() ? def : it->second;
        };
        if (inst->moduleName == "scfifo" || inst->moduleName == "dcfifo") {
            uint64_t width = param("WIDTH", 8);
            uint64_t depth = param("DEPTH", 16);
            uint64_t bits = width * depth;
            if (bits >= bramThreshold)
                usage.bramBits += static_cast<double>(bits);
            else
                usage.registers += bits;
            usage.registers += width + 2 * log2ceil(depth) + 4;
            usage.logic += width / 2 + 2 * log2ceil(depth) + 12;
        } else if (inst->moduleName == "altsyncram") {
            uint64_t bits = param("WIDTH", 8) * param("NUMWORDS", 16);
            usage.bramBits += static_cast<double>(bits);
            usage.registers += param("WIDTH", 8);
            usage.logic += 8;
        } else if (inst->moduleName == "signal_recorder") {
            // The recording IP stores {32-bit timestamp, data} per entry
            // and keeps a write pointer, trigger, and compare logic.
            uint64_t width = param("WIDTH", 8);
            uint64_t depth = param("DEPTH", 8192);
            usage.bramBits += static_cast<double>((width + 32) * depth);
            usage.registers += log2ceil(depth) + 34;
            usage.logic += width / 4 + 24;
        }
    }

    return usage;
}

} // namespace hwdbg::synth
