#include "sim/eval.hh"

#include <algorithm>
#include <cctype>

#include "common/logging.hh"
#include "common/testhooks.hh"
#include "sim/coverage.hh"

namespace hwdbg::sim
{

using namespace hdl;

EvalContext::EvalContext(const LoweredDesign &design_) : design(design_)
{
    values.reserve(design.numSignals());
    arrays.resize(design.numSignals());
    for (size_t i = 0; i < design.numSignals(); ++i) {
        const SignalInfo &sig = design.info(static_cast<int>(i));
        values.emplace_back(sig.width, 0);
        if (sig.arraySize != 0)
            arrays[i].assign(sig.arraySize, Bits(sig.width, 0));
    }
}

void
EvalContext::drainLog()
{
    if (pendingLog.empty())
        return;
    log.reserve(log.size() + pendingLog.size());
    for (const auto &entry : pendingLog)
        log.push_back(
            LogLine{entry.cycle, formatDisplay(*entry.format, entry.args)});
    pendingLog.clear();
}

uint32_t
addressMask(uint32_t size)
{
    uint32_t addr_bits = 0;
    while ((uint64_t(1) << addr_bits) < size)
        ++addr_bits;
    return static_cast<uint32_t>((uint64_t(1) << addr_bits) - 1);
}

int64_t
effectiveIndex(uint64_t index, uint32_t size)
{
    uint64_t effective = index & addressMask(size);
    if (effective >= size)
        return -1;
    return static_cast<int64_t>(effective);
}

Bits
evalExpr(const ExprPtr &expr, EvalContext &ctx, uint32_t ctx_width)
{
    uint32_t self = expr->width;
    if (self == 0)
        panic("evalExpr: expression at %s was not annotated",
              expr->loc.str().c_str());
    uint32_t w = std::max(ctx_width, self);

    switch (expr->kind) {
      case ExprKind::Number:
        return expr->as<NumberExpr>()->value.resized(w);
      case ExprKind::Id:
        return ctx.values[expr->as<IdExpr>()->resolved].resized(w);
      case ExprKind::Unary: {
        const auto *un = expr->as<UnaryExpr>();
        switch (un->op) {
          case UnaryOp::Neg:
            return evalExpr(un->arg, ctx, w).negate();
          case UnaryOp::BitNot:
            return evalExpr(un->arg, ctx, w).bitNot();
          case UnaryOp::LogNot:
            return Bits(w, evalExpr(un->arg, ctx).isZero() ? 1 : 0);
          case UnaryOp::RedAnd:
            return Bits(w, evalExpr(un->arg, ctx).redAnd() ? 1 : 0);
          case UnaryOp::RedOr:
            return Bits(w, evalExpr(un->arg, ctx).redOr() ? 1 : 0);
          case UnaryOp::RedXor:
            return Bits(w, evalExpr(un->arg, ctx).redXor() ? 1 : 0);
        }
        break;
      }
      case ExprKind::Binary: {
        const auto *bin = expr->as<BinaryExpr>();
        switch (bin->op) {
          case BinaryOp::Add:
            if (mutationOn(MUT_SIM_ADD_AS_SUB))
                return evalExpr(bin->lhs, ctx, w)
                    .sub(evalExpr(bin->rhs, ctx, w))
                    .resized(w);
            return evalExpr(bin->lhs, ctx, w)
                .add(evalExpr(bin->rhs, ctx, w))
                .resized(w);
          case BinaryOp::Sub:
            return evalExpr(bin->lhs, ctx, w)
                .sub(evalExpr(bin->rhs, ctx, w))
                .resized(w);
          case BinaryOp::Mul:
            return evalExpr(bin->lhs, ctx, w)
                .mul(evalExpr(bin->rhs, ctx, w))
                .resized(w);
          case BinaryOp::Div:
            return evalExpr(bin->lhs, ctx, w)
                .divu(evalExpr(bin->rhs, ctx, w))
                .resized(w);
          case BinaryOp::Mod:
            return evalExpr(bin->lhs, ctx, w)
                .modu(evalExpr(bin->rhs, ctx, w))
                .resized(w);
          case BinaryOp::BitAnd:
            return evalExpr(bin->lhs, ctx, w)
                .bitAnd(evalExpr(bin->rhs, ctx, w));
          case BinaryOp::BitOr:
            return evalExpr(bin->lhs, ctx, w)
                .bitOr(evalExpr(bin->rhs, ctx, w));
          case BinaryOp::BitXor:
            if (mutationOn(MUT_SIM_XOR_AS_OR))
                return evalExpr(bin->lhs, ctx, w)
                    .bitOr(evalExpr(bin->rhs, ctx, w));
            return evalExpr(bin->lhs, ctx, w)
                .bitXor(evalExpr(bin->rhs, ctx, w));
          case BinaryOp::Shl:
            return evalExpr(bin->lhs, ctx, w)
                .shl(evalExpr(bin->rhs, ctx).toU64());
          case BinaryOp::Shr:
            return evalExpr(bin->lhs, ctx, w)
                .shr(evalExpr(bin->rhs, ctx).toU64() +
                     (mutationOn(MUT_SIM_SHR_OFF_BY_ONE) ? 1 : 0));
          case BinaryOp::LogAnd:
            return Bits(w, (!evalExpr(bin->lhs, ctx).isZero() &&
                            !evalExpr(bin->rhs, ctx).isZero())
                               ? 1 : 0);
          case BinaryOp::LogOr:
            return Bits(w, (!evalExpr(bin->lhs, ctx).isZero() ||
                            !evalExpr(bin->rhs, ctx).isZero())
                               ? 1 : 0);
          default: {
            // Comparisons: operands at the larger self-determined width.
            uint32_t cmp_w =
                std::max(bin->lhs->width, bin->rhs->width);
            if (mutationOn(MUT_SIM_CMP_CTX_WIDTH))
                cmp_w = std::max(cmp_w, ctx_width);
            int cmp = evalExpr(bin->lhs, ctx, cmp_w)
                          .compare(evalExpr(bin->rhs, ctx, cmp_w));
            bool result = false;
            switch (bin->op) {
              case BinaryOp::Eq: result = cmp == 0; break;
              case BinaryOp::Ne: result = cmp != 0; break;
              case BinaryOp::Lt:
                result = mutationOn(MUT_SIM_LT_AS_LE) ? cmp <= 0
                                                      : cmp < 0;
                break;
              case BinaryOp::Le: result = cmp <= 0; break;
              case BinaryOp::Gt: result = cmp > 0; break;
              case BinaryOp::Ge: result = cmp >= 0; break;
              default: panic("evalExpr: bad comparison");
            }
            return Bits(w, result ? 1 : 0);
          }
        }
        break;
      }
      case ExprKind::Ternary: {
        const auto *tern = expr->as<TernaryExpr>();
        bool cond = !evalExpr(tern->cond, ctx).isZero();
        if (mutationOn(MUT_SIM_TERNARY_SWAP))
            cond = !cond;
        return evalExpr(cond ? tern->thenExpr : tern->elseExpr, ctx, w)
            .resized(w);
      }
      case ExprKind::Concat: {
        const auto *cat = expr->as<ConcatExpr>();
        Bits out(0);
        bool first = true;
        for (const auto &part : cat->parts) {
            Bits val = evalExpr(part, ctx);
            out = first ? val : out.concat(val);
            first = false;
        }
        return out.resized(w);
      }
      case ExprKind::Repeat: {
        const auto *rep = expr->as<RepeatExpr>();
        uint32_t count = expr->width / rep->inner->width;
        return evalExpr(rep->inner, ctx).replicate(count).resized(w);
      }
      case ExprKind::Index: {
        const auto *idx = expr->as<IndexExpr>();
        const SignalInfo &sig = ctx.design.info(idx->resolved);
        uint64_t index = evalExpr(idx->index, ctx).toU64();
        if (sig.arraySize != 0) {
            int64_t elem = effectiveIndex(index, sig.arraySize);
            if (elem < 0)
                return Bits(w, 0);
            return ctx.arrays[idx->resolved][static_cast<size_t>(elem)]
                .resized(w);
        }
        return Bits(w, ctx.values[idx->resolved].bit(
                           static_cast<uint32_t>(index)) ? 1 : 0);
      }
      case ExprKind::Range: {
        const auto *range = expr->as<RangeExpr>();
        return ctx.values[range->resolved]
            .slice(range->msbConst, range->lsbConst)
            .resized(w);
      }
    }
    panic("evalExpr: unreachable");
}

bool
evalBool(const ExprPtr &expr, EvalContext &ctx)
{
    return !evalExpr(expr, ctx).isZero();
}

namespace
{

StoreTarget
resolveSimpleTarget(const ExprPtr &lhs, EvalContext &ctx)
{
    StoreTarget target;
    switch (lhs->kind) {
      case ExprKind::Id: {
        const auto *id = lhs->as<IdExpr>();
        target.sig = id->resolved;
        target.whole = true;
        break;
      }
      case ExprKind::Index: {
        const auto *idx = lhs->as<IndexExpr>();
        const SignalInfo &sig = ctx.design.info(idx->resolved);
        target.sig = idx->resolved;
        uint64_t index = evalExpr(idx->index, ctx).toU64();
        if (sig.arraySize != 0) {
            target.element = effectiveIndex(index, sig.arraySize);
            target.dropped = target.element < 0;
            target.whole = true;
        } else {
            if (index >= sig.width) {
                target.dropped = true;
            } else {
                target.whole = false;
                target.msb = target.lsb = static_cast<uint32_t>(index);
            }
        }
        break;
      }
      case ExprKind::Range: {
        const auto *range = lhs->as<RangeExpr>();
        target.sig = range->resolved;
        target.whole = false;
        target.msb = range->msbConst;
        target.lsb = range->lsbConst;
        break;
      }
      default:
        fatal("%s: expression is not assignable", lhs->loc.str().c_str());
    }
    return target;
}

} // namespace

ResolvedLValue
resolveLValue(const ExprPtr &lhs, EvalContext &ctx)
{
    ResolvedLValue out;
    if (lhs->kind == ExprKind::Concat) {
        const auto *cat = lhs->as<ConcatExpr>();
        uint32_t total = lhs->width;
        uint32_t consumed = 0;
        for (const auto &part : cat->parts) {
            ResolvedLValue::Part entry;
            entry.target = resolveSimpleTarget(part, ctx);
            uint32_t part_width = part->width;
            entry.rhsMsb = total - consumed - 1;
            entry.rhsLsb = total - consumed - part_width;
            out.parts.push_back(entry);
            consumed += part_width;
        }
        out.totalWidth = total;
        return out;
    }
    ResolvedLValue::Part entry;
    entry.target = resolveSimpleTarget(lhs, ctx);
    entry.rhsMsb = lhs->width - 1;
    entry.rhsLsb = 0;
    out.parts.push_back(entry);
    out.totalWidth = lhs->width;
    return out;
}

void
applyStore(const StoreTarget &target, const Bits &value, EvalContext &ctx)
{
    if (target.dropped)
        return;
    const SignalInfo &sig = ctx.design.info(target.sig);
    if (target.element >= 0) {
        Bits &slot =
            ctx.arrays[target.sig][static_cast<size_t>(target.element)];
        Bits next = value.resized(sig.width);
        if (slot != next) {
            if (ctx.cover)
                ctx.cover->onStore(target.sig, slot, next);
            slot = std::move(next);
            ctx.valuesChanged = true;
            if (ctx.toggles)
                ++(*ctx.toggles)[target.sig];
        }
        return;
    }
    if (target.whole) {
        Bits next = value.resized(sig.width);
        if (ctx.values[target.sig] != next) {
            if (ctx.cover)
                ctx.cover->onStore(target.sig,
                                   ctx.values[target.sig], next);
            ctx.values[target.sig] = std::move(next);
            ctx.valuesChanged = true;
            if (ctx.toggles)
                ++(*ctx.toggles)[target.sig];
        }
        return;
    }
    Bits before = ctx.values[target.sig];
    ctx.values[target.sig].setSlice(target.msb, target.lsb, value);
    if (ctx.values[target.sig] != before) {
        if (ctx.cover)
            ctx.cover->onStore(target.sig, before,
                               ctx.values[target.sig]);
        ctx.valuesChanged = true;
        if (ctx.toggles)
            ++(*ctx.toggles)[target.sig];
    }
}

void
storeLValue(const ExprPtr &lhs, const Bits &value, EvalContext &ctx)
{
    ResolvedLValue resolved = resolveLValue(lhs, ctx);
    for (const auto &part : resolved.parts)
        applyStore(part.target, value.slice(part.rhsMsb, part.rhsLsb),
                   ctx);
}

std::string
formatDisplay(const std::string &format, const std::vector<Bits> &args)
{
    std::string out;
    size_t arg_idx = 0;
    for (size_t i = 0; i < format.size(); ++i) {
        char c = format[i];
        if (c != '%') {
            out.push_back(c);
            continue;
        }
        ++i;
        if (i >= format.size())
            break;
        // Skip optional width/zero flags, e.g. %0d, %4h.
        while (i < format.size() &&
               std::isdigit(static_cast<unsigned char>(format[i])))
            ++i;
        if (i >= format.size())
            break;
        char spec = format[i];
        if (spec == '%') {
            out.push_back('%');
            continue;
        }
        if (arg_idx >= args.size()) {
            out += "<missing>";
            continue;
        }
        const Bits &arg = args[arg_idx++];
        switch (spec) {
          case 'd': out += arg.toDecString(); break;
          case 'h':
          case 'x': out += arg.toHexString(); break;
          case 'b': out += arg.toBinString(); break;
          default: out.push_back(spec); break;
        }
    }
    return out;
}

} // namespace hwdbg::sim
