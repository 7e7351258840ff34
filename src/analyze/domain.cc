#include "analyze/domain.hh"

#include <algorithm>

#include "elab/elaborate.hh"

namespace hwdbg::analyze
{

using namespace hdl;

namespace
{

constexpr uint32_t kMaxWidth = 64;

/** All-unknown at @p width, clamped to the precision cap. */
KnownBits
unknownAt(uint32_t width)
{
    return KnownBits::unknown(std::min(width, kMaxWidth));
}

/**
 * @p expr folded by the shared folder, as a 64-bit fact: unknown when
 * it is not constant or is wider than kMaxWidth.
 */
std::optional<uint64_t>
constFact(const ExprPtr &expr)
{
    auto value = elab::tryEvalConst(expr);
    if (!value || value->width() > kMaxWidth)
        return std::nullopt;
    return value->toU64();
}

/** One bit whose value may be known. */
struct TriBit
{
    bool known = false;
    bool value = false;
};

} // namespace

KnownBits
KnownBits::resized(uint32_t new_width) const
{
    if (new_width > kMaxWidth)
        return KnownBits::unknown(kMaxWidth);
    KnownBits out;
    out.width = new_width;
    if (new_width <= width) {
        out.known = known & maskOf(new_width);
        out.value = value & maskOf(new_width);
    } else {
        // Zero extension: the new high bits are proven zero.
        out.known = known | (maskOf(new_width) & ~maskOf(width));
        out.value = value;
    }
    return out;
}

KnownBits
joinKnown(const KnownBits &a, const KnownBits &b)
{
    KnownBits out;
    out.width = std::max(a.width, b.width);
    KnownBits ax = a.resized(out.width);
    KnownBits bx = b.resized(out.width);
    out.known = ax.known & bx.known & ~(ax.value ^ bx.value);
    out.value = ax.value & out.known;
    return out;
}

// ------------------------------------------------------------ signal table

SignalTable::SignalTable(const Module &mod)
{
    for (const auto &item : mod.items) {
        if (item->kind != ItemKind::Net)
            continue;
        const auto *net = item->as<NetItem>();
        Info info;
        info.isReg = net->net == NetKind::Reg;
        info.isArray = net->array.has_value();
        info.dir = net->dir;
        info.loc = net->loc;
        info.width = elab::netWidth(*net);
        if (!sigs_.count(net->name))
            order_.push_back(net->name);
        sigs_[net->name] = info;
    }
}

const SignalTable::Info *
SignalTable::find(const std::string &name) const
{
    auto it = sigs_.find(name);
    return it == sigs_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------- selfWidth

uint32_t
selfWidth(const ExprPtr &expr, const SignalTable &sigs)
{
    if (!expr)
        return 0;
    switch (expr->kind) {
      case ExprKind::Number: {
        const auto *num = expr->as<NumberExpr>();
        return num->sized ? num->value.width()
                          : std::max<uint32_t>(32, num->value.width());
      }
      case ExprKind::Id: {
        const auto *id = expr->as<IdExpr>();
        const auto *info = sigs.find(id->name);
        return info && !info->isArray ? info->width : 0;
      }
      case ExprKind::Unary: {
        const auto *un = expr->as<UnaryExpr>();
        uint32_t arg = selfWidth(un->arg, sigs);
        return (un->op == UnaryOp::Neg || un->op == UnaryOp::BitNot)
                   ? arg
                   : 1;
      }
      case ExprKind::Binary: {
        const auto *bin = expr->as<BinaryExpr>();
        uint32_t lhs = selfWidth(bin->lhs, sigs);
        uint32_t rhs = selfWidth(bin->rhs, sigs);
        switch (bin->op) {
          case BinaryOp::Add:
          case BinaryOp::Sub:
          case BinaryOp::Mul:
          case BinaryOp::Div:
          case BinaryOp::Mod:
          case BinaryOp::BitAnd:
          case BinaryOp::BitOr:
          case BinaryOp::BitXor:
            return (lhs && rhs) ? std::max(lhs, rhs) : 0;
          case BinaryOp::Shl:
          case BinaryOp::Shr:
            return lhs;
          default:
            return 1;
        }
      }
      case ExprKind::Ternary: {
        const auto *tern = expr->as<TernaryExpr>();
        uint32_t lhs = selfWidth(tern->thenExpr, sigs);
        uint32_t rhs = selfWidth(tern->elseExpr, sigs);
        return (lhs && rhs) ? std::max(lhs, rhs) : 0;
      }
      case ExprKind::Concat: {
        uint32_t width = 0;
        for (const auto &part : expr->as<ConcatExpr>()->parts) {
            uint32_t pw = selfWidth(part, sigs);
            if (!pw)
                return 0;
            width += pw;
        }
        return width;
      }
      case ExprKind::Repeat: {
        const auto *rep = expr->as<RepeatExpr>();
        auto count = constFact(rep->count);
        uint32_t inner = selfWidth(rep->inner, sigs);
        if (!count || !inner)
            return 0;
        return inner * static_cast<uint32_t>(*count);
      }
      case ExprKind::Index: {
        const auto *idx = expr->as<IndexExpr>();
        const auto *info = sigs.find(idx->base);
        if (!info)
            return 0;
        return info->isArray ? info->width : 1;
      }
      case ExprKind::Range: {
        const auto *range = expr->as<RangeExpr>();
        auto msb = constFact(range->msb);
        auto lsb = constFact(range->lsb);
        if (!msb || !lsb || *lsb > *msb)
            return 0;
        return static_cast<uint32_t>(*msb - *lsb) + 1;
      }
    }
    return 0;
}

// ------------------------------------------------------------------- kbEval

namespace
{

std::optional<KnownBits>
kbEvalImpl(const ExprPtr &expr, uint32_t ctx_width,
           const SignalTable &sigs, const Env &env);

/** Truthiness of an already-evaluated value. */
std::optional<Tri>
triOf(const std::optional<KnownBits> &kb)
{
    if (!kb)
        return std::nullopt;
    if (kb->knownNonzero())
        return Tri::True;
    if (kb->knownZero())
        return Tri::False;
    return Tri::Unknown;
}

/** Ripple-carry addition with a three-valued carry chain. */
KnownBits
rippleAdd(const KnownBits &a, const KnownBits &b, TriBit carry)
{
    KnownBits out;
    out.width = std::max(a.width, b.width);
    KnownBits ax = a.resized(out.width);
    KnownBits bx = b.resized(out.width);
    for (uint32_t i = 0; i < out.width; ++i) {
        TriBit abit{(ax.known >> i & 1) != 0, (ax.value >> i & 1) != 0};
        TriBit bbit{(bx.known >> i & 1) != 0, (bx.value >> i & 1) != 0};
        if (abit.known && bbit.known && carry.known) {
            bool sum = abit.value ^ bbit.value ^ carry.value;
            out.known |= 1ULL << i;
            out.value |= static_cast<uint64_t>(sum) << i;
            carry.value = (abit.value + bbit.value + carry.value) >= 2;
        } else if (abit.known && bbit.known && abit.value == bbit.value) {
            // majority(x, x, c) = x: the carry re-synchronizes even
            // though the sum bit itself stays unknown.
            carry = TriBit{true, abit.value};
        } else {
            carry = TriBit{false, false};
        }
    }
    return out;
}

KnownBits
bitNot(const KnownBits &a)
{
    KnownBits out = a;
    out.value = ~a.value & a.known & KnownBits::maskOf(a.width);
    return out;
}

std::optional<KnownBits>
evalBinary(const BinaryExpr *bin, uint32_t w, const SignalTable &sigs,
           const Env &env)
{
    switch (bin->op) {
      case BinaryOp::Add:
      case BinaryOp::Sub: {
        auto lhs = kbEvalImpl(bin->lhs, w, sigs, env);
        auto rhs = kbEvalImpl(bin->rhs, w, sigs, env);
        if (!lhs || !rhs)
            return std::nullopt;
        if (bin->op == BinaryOp::Add)
            return rippleAdd(*lhs, *rhs, TriBit{true, false})
                .resized(w);
        return rippleAdd(*lhs, bitNot(rhs->resized(w)),
                         TriBit{true, true})
            .resized(w);
      }
      case BinaryOp::Mul:
      case BinaryOp::Div:
      case BinaryOp::Mod: {
        auto lhs = kbEvalImpl(bin->lhs, w, sigs, env);
        auto rhs = kbEvalImpl(bin->rhs, w, sigs, env);
        if (!lhs || !rhs)
            return std::nullopt;
        if (!lhs->fullyKnown() || !rhs->fullyKnown())
            return unknownAt(w);
        if (bin->op == BinaryOp::Mul)
            return KnownBits::constant(std::min(w, kMaxWidth),
                                       lhs->value * rhs->value);
        if (rhs->value == 0)
            return unknownAt(w); // x/0, x%0: leave undefined
        return KnownBits::constant(std::min(w, kMaxWidth),
                                   bin->op == BinaryOp::Div
                                       ? lhs->value / rhs->value
                                       : lhs->value % rhs->value);
      }
      case BinaryOp::BitAnd:
      case BinaryOp::BitOr:
      case BinaryOp::BitXor: {
        auto lhs = kbEvalImpl(bin->lhs, w, sigs, env);
        auto rhs = kbEvalImpl(bin->rhs, w, sigs, env);
        if (!lhs || !rhs)
            return std::nullopt;
        KnownBits a = lhs->resized(std::min(w, kMaxWidth));
        KnownBits b = rhs->resized(std::min(w, kMaxWidth));
        KnownBits out;
        out.width = a.width;
        if (bin->op == BinaryOp::BitAnd) {
            // A proven-zero bit on either side forces the result bit.
            uint64_t zero =
                (a.known & ~a.value) | (b.known & ~b.value);
            out.known = (a.known & b.known) | zero;
            out.value = a.value & b.value & out.known;
        } else if (bin->op == BinaryOp::BitOr) {
            uint64_t one = (a.known & a.value) | (b.known & b.value);
            out.known = (a.known & b.known) | one;
            out.value = (a.value | b.value) & out.known;
        } else {
            out.known = a.known & b.known;
            out.value = (a.value ^ b.value) & out.known;
        }
        return out;
      }
      case BinaryOp::Shl:
      case BinaryOp::Shr: {
        auto lhs = kbEvalImpl(bin->lhs, w, sigs, env);
        auto amt = kbEvalImpl(bin->rhs, 0, sigs, env);
        if (!lhs || !amt)
            return std::nullopt;
        if (!amt->fullyKnown())
            return unknownAt(w);
        KnownBits a = lhs->resized(std::min(w, kMaxWidth));
        uint64_t shift = amt->value;
        if (shift >= a.width)
            return KnownBits::constant(a.width, 0);
        KnownBits out;
        out.width = a.width;
        uint64_t mask = KnownBits::maskOf(a.width);
        if (bin->op == BinaryOp::Shl) {
            // Vacated low bits are proven zero.
            out.known = ((a.known << shift) | ((1ULL << shift) - 1)) &
                        mask;
            out.value = (a.value << shift) & out.known;
        } else {
            uint64_t vacated = mask & ~(mask >> shift);
            out.known = ((a.known & mask) >> shift) | vacated;
            out.value = ((a.value & mask) >> shift) & out.known;
        }
        return out;
      }
      case BinaryOp::LogAnd:
      case BinaryOp::LogOr: {
        auto lhs = triOf(kbEvalImpl(bin->lhs, 0, sigs, env));
        auto rhs = triOf(kbEvalImpl(bin->rhs, 0, sigs, env));
        bool is_and = bin->op == BinaryOp::LogAnd;
        // A dominating operand decides the result even when the other
        // side is still bottom.
        if (is_and && ((lhs && *lhs == Tri::False) ||
                       (rhs && *rhs == Tri::False)))
            return KnownBits::constant(std::min(w, kMaxWidth), 0);
        if (!is_and && ((lhs && *lhs == Tri::True) ||
                        (rhs && *rhs == Tri::True)))
            return KnownBits::constant(std::min(w, kMaxWidth), 1);
        if (!lhs || !rhs)
            return std::nullopt;
        if (*lhs == Tri::Unknown || *rhs == Tri::Unknown)
            return unknownAt(w);
        bool result = is_and
                          ? (*lhs == Tri::True && *rhs == Tri::True)
                          : (*lhs == Tri::True || *rhs == Tri::True);
        return KnownBits::constant(std::min(w, kMaxWidth),
                                   result ? 1 : 0);
      }
      default: {
        // Comparisons, evaluated at max self width like RefEval.
        uint32_t cmp_w = std::max(selfWidth(bin->lhs, sigs),
                                  selfWidth(bin->rhs, sigs));
        if (cmp_w == 0 || cmp_w > kMaxWidth)
            return unknownAt(w);
        auto lhs = kbEvalImpl(bin->lhs, cmp_w, sigs, env);
        auto rhs = kbEvalImpl(bin->rhs, cmp_w, sigs, env);
        if (!lhs || !rhs)
            return std::nullopt;
        KnownBits a = lhs->resized(cmp_w);
        KnownBits b = rhs->resized(cmp_w);
        uint32_t out_w = std::min(w, kMaxWidth);
        if (bin->op == BinaryOp::Eq || bin->op == BinaryOp::Ne) {
            bool is_eq = bin->op == BinaryOp::Eq;
            // A commonly-known differing bit settles (in)equality.
            if ((a.known & b.known & (a.value ^ b.value)) != 0)
                return KnownBits::constant(out_w, is_eq ? 0 : 1);
            if (a.fullyKnown() && b.fullyKnown())
                return KnownBits::constant(out_w, is_eq ? 1 : 0);
            return unknownAt(out_w);
        }
        if (!a.fullyKnown() || !b.fullyKnown())
            return unknownAt(out_w);
        bool result = false;
        switch (bin->op) {
          case BinaryOp::Lt: result = a.value < b.value; break;
          case BinaryOp::Le: result = a.value <= b.value; break;
          case BinaryOp::Gt: result = a.value > b.value; break;
          case BinaryOp::Ge: result = a.value >= b.value; break;
          default: return unknownAt(out_w);
        }
        return KnownBits::constant(out_w, result ? 1 : 0);
      }
    }
}

std::optional<KnownBits>
kbEvalImpl(const ExprPtr &expr, uint32_t ctx_width,
           const SignalTable &sigs, const Env &env)
{
    uint32_t self = selfWidth(expr, sigs);
    if (self == 0)
        return unknownAt(std::max(ctx_width, 1u));
    uint32_t w = std::max(ctx_width, self);
    if (w > kMaxWidth)
        return unknownAt(w);

    switch (expr->kind) {
      case ExprKind::Number: {
        const auto *num = expr->as<NumberExpr>();
        if (num->value.width() > kMaxWidth)
            return unknownAt(w);
        return KnownBits::constant(num->value.width(),
                                   num->value.toU64())
            .resized(w);
      }
      case ExprKind::Id: {
        const auto *id = expr->as<IdExpr>();
        if (const auto *info = sigs.find(id->name)) {
            if (info->isArray || info->width > kMaxWidth)
                return unknownAt(w);
            auto it = env.find(id->name);
            if (it == env.end())
                return unknownAt(info->width).resized(w);
            if (!it->second)
                return std::nullopt; // bottom propagates
            return it->second->resized(w);
        }
        return unknownAt(w);
      }
      case ExprKind::Unary: {
        const auto *un = expr->as<UnaryExpr>();
        switch (un->op) {
          case UnaryOp::Neg: {
            auto arg = kbEvalImpl(un->arg, w, sigs, env);
            if (!arg)
                return std::nullopt;
            return rippleAdd(KnownBits::constant(w, 0),
                             bitNot(arg->resized(w)),
                             TriBit{true, true})
                .resized(w);
          }
          case UnaryOp::BitNot: {
            auto arg = kbEvalImpl(un->arg, w, sigs, env);
            if (!arg)
                return std::nullopt;
            return bitNot(arg->resized(w));
          }
          case UnaryOp::LogNot: {
            auto arg = triOf(kbEvalImpl(un->arg, 0, sigs, env));
            if (!arg)
                return std::nullopt;
            if (*arg == Tri::Unknown)
                return unknownAt(w);
            return KnownBits::constant(w, *arg == Tri::False ? 1 : 0);
          }
          case UnaryOp::RedAnd:
          case UnaryOp::RedOr:
          case UnaryOp::RedXor: {
            auto arg = kbEvalImpl(un->arg, 0, sigs, env);
            if (!arg)
                return std::nullopt;
            uint64_t mask = KnownBits::maskOf(arg->width);
            if (un->op == UnaryOp::RedAnd) {
                if ((arg->known & ~arg->value & mask) != 0)
                    return KnownBits::constant(w, 0);
                if (arg->fullyKnown())
                    return KnownBits::constant(w, 1);
            } else if (un->op == UnaryOp::RedOr) {
                if (arg->knownNonzero())
                    return KnownBits::constant(w, 1);
                if (arg->knownZero())
                    return KnownBits::constant(w, 0);
            } else if (arg->fullyKnown()) {
                return KnownBits::constant(
                    w, __builtin_parityll(arg->value & mask));
            }
            return unknownAt(w);
          }
        }
        return unknownAt(w);
      }
      case ExprKind::Binary:
        return evalBinary(expr->as<BinaryExpr>(), w, sigs, env);
      case ExprKind::Ternary: {
        const auto *tern = expr->as<TernaryExpr>();
        auto cond = triOf(kbEvalImpl(tern->cond, 0, sigs, env));
        if (!cond)
            return std::nullopt;
        if (*cond == Tri::True)
            return kbEvalImpl(tern->thenExpr, w, sigs, env);
        if (*cond == Tri::False)
            return kbEvalImpl(tern->elseExpr, w, sigs, env);
        auto then_v = kbEvalImpl(tern->thenExpr, w, sigs, env);
        auto else_v = kbEvalImpl(tern->elseExpr, w, sigs, env);
        if (!then_v || !else_v)
            return std::nullopt;
        return joinKnown(then_v->resized(w), else_v->resized(w));
      }
      case ExprKind::Concat: {
        const auto *cat = expr->as<ConcatExpr>();
        KnownBits out = KnownBits::constant(0, 0);
        out.width = 0;
        for (const auto &part : cat->parts) {
            auto val = kbEvalImpl(part, 0, sigs, env);
            if (!val)
                return std::nullopt;
            uint32_t pw = val->width;
            if (out.width + pw > kMaxWidth)
                return unknownAt(w);
            out.known = (out.known << pw) | (val->known &
                                            KnownBits::maskOf(pw));
            out.value = (out.value << pw) | (val->value &
                                             KnownBits::maskOf(pw));
            out.width += pw;
        }
        return out.resized(w);
      }
      case ExprKind::Repeat: {
        const auto *rep = expr->as<RepeatExpr>();
        auto inner = kbEvalImpl(rep->inner, 0, sigs, env);
        if (!inner)
            return std::nullopt;
        uint32_t iw = inner->width;
        uint32_t count = iw ? self / iw : 0;
        if (iw == 0 || static_cast<uint64_t>(iw) * count > kMaxWidth)
            return unknownAt(w);
        KnownBits out;
        out.width = iw * count;
        for (uint32_t i = 0; i < count; ++i) {
            out.known |= (inner->known & KnownBits::maskOf(iw))
                         << (i * iw);
            out.value |= (inner->value & KnownBits::maskOf(iw))
                         << (i * iw);
        }
        return out.resized(w);
      }
      case ExprKind::Index: {
        const auto *idx = expr->as<IndexExpr>();
        const auto *info = sigs.find(idx->base);
        if (!info || info->isArray)
            return unknownAt(w); // memory contents are not tracked
        auto index = kbEvalImpl(idx->index, 0, sigs, env);
        if (!index)
            return std::nullopt;
        if (!index->fullyKnown() || index->value >= info->width)
            return unknownAt(w);
        auto it = env.find(idx->base);
        if (it == env.end())
            return unknownAt(w);
        if (!it->second)
            return std::nullopt;
        const KnownBits &base = *it->second;
        // Facts cap at 64 bits: a higher bit of a wider signal is
        // unknown, and shifting by its index would be undefined.
        if (index->value >= base.width ||
            (base.known >> index->value & 1) == 0)
            return unknownAt(w);
        return KnownBits::constant(1, base.value >> index->value & 1)
            .resized(w);
      }
      case ExprKind::Range: {
        const auto *range = expr->as<RangeExpr>();
        const auto *info = sigs.find(range->base);
        auto msb = constFact(range->msb);
        auto lsb = constFact(range->lsb);
        if (!info || info->isArray || !msb || !lsb || *lsb > *msb ||
            *msb >= kMaxWidth)
            return unknownAt(w);
        auto it = env.find(range->base);
        if (it == env.end())
            return unknownAt(w);
        if (!it->second)
            return std::nullopt;
        KnownBits base = it->second->resized(info->width);
        KnownBits out;
        out.width = static_cast<uint32_t>(*msb - *lsb) + 1;
        out.known = (base.known >> *lsb) & KnownBits::maskOf(out.width);
        out.value = (base.value >> *lsb) & KnownBits::maskOf(out.width);
        return out.resized(w);
      }
    }
    return unknownAt(w);
}

} // namespace

std::optional<KnownBits>
kbEval(const ExprPtr &expr, uint32_t ctx_width, const SignalTable &sigs,
       const Env &env)
{
    return kbEvalImpl(expr, ctx_width, sigs, env);
}

std::optional<Tri>
triEval(const ExprPtr &expr, const SignalTable &sigs, const Env &env)
{
    auto kb = kbEval(expr, 0, sigs, env);
    if (!kb)
        return std::nullopt;
    if (kb->knownNonzero())
        return Tri::True;
    if (kb->knownZero())
        return Tri::False;
    return Tri::Unknown;
}

} // namespace hwdbg::analyze
