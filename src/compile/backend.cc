/**
 * @file
 * Bytecode executor: the dispatch loop and its word-level kernels.
 *
 * Every kernel reproduces the corresponding Bits operation from
 * sim/eval.cc over canonical little-endian words (bits above a slot's
 * width are zero). Operands are zero-extended on read; destination
 * slots are masked to their width on write, so canonicality is an
 * invariant of the loop. The value-level simulator mutations
 * (MUT_SIM_ADD_AS_SUB etc.) stay runtime checks here, exactly like the
 * interpreter, so `fuzz --self-check` exercises both backends alike.
 */

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/logging.hh"
#include "common/testhooks.hh"
#include "compile/backend.hh"
#include "obs/metrics.hh"
#include "sim/coverage.hh"
#include "sim/profiler.hh"
#include "sim/simulator.hh"

namespace hwdbg::compile
{

using sim::SignalInfo;

namespace
{

/** Zero-extended word read: beyond an operand's words reads zero. */
inline Word
ldw(const Word *s, uint32_t off, uint32_t opnw, uint32_t i)
{
    return i < opnw ? s[off + i] : 0;
}

inline void
maskTop(Word *s, uint32_t off, uint32_t nw, uint32_t w)
{
    if (nw)
        s[off + nw - 1] &= topWordMask(w);
}

inline bool
anyWord(const Word *p, uint32_t nw)
{
    for (uint32_t i = 0; i < nw; ++i)
        if (p[i])
            return true;
    return false;
}

/** Unsigned zero-extended compare: -1, 0, or 1 (Bits::compare). */
int
cmpWords(const Word *s, uint32_t a, uint32_t nwa, uint32_t b,
         uint32_t nwb)
{
    uint32_t nw = std::max(nwa, nwb);
    for (uint32_t k = nw; k-- > 0;) {
        Word aw = ldw(s, a, nwa, k);
        Word bw = ldw(s, b, nwb, k);
        if (aw != bw)
            return aw < bw ? -1 : 1;
    }
    return 0;
}

/** dst(out_w) = (src(src_w) >> lo) truncated: Bits::slice + resize. */
void
sliceWords(Word *dst, uint32_t out_w, const Word *src, uint32_t src_w,
           uint32_t lo)
{
    uint32_t nw_out = wordsFor(out_w);
    uint32_t nw_src = wordsFor(src_w);
    uint32_t ws = lo / 64, bs = lo % 64;
    for (uint32_t i = 0; i < nw_out; ++i) {
        Word low = i + ws < nw_src ? src[i + ws] : 0;
        Word high = (bs && i + ws + 1 < nw_src) ? src[i + ws + 1] : 0;
        dst[i] = bs ? (low >> bs) | (high << (64 - bs)) : low;
    }
    if (nw_out)
        dst[nw_out - 1] &= topWordMask(out_w);
}

/** dst(dst_w) = zero-extend/truncate of src(src_w). */
void
resizeWords(Word *dst, uint32_t dst_w, const Word *src, uint32_t src_w)
{
    uint32_t nw = wordsFor(dst_w);
    uint32_t nws = wordsFor(src_w);
    for (uint32_t i = 0; i < nw; ++i)
        dst[i] = i < nws ? src[i] : 0;
    if (nw)
        dst[nw - 1] &= topWordMask(dst_w);
}

} // namespace

BytecodeBackend::BytecodeBackend(sim::Simulator &sim)
    : Backend(sim), prog_(lowerProgram(design()))
{
    slab_ = prog_.slabInit;
    before_.resize(prog_.stateWords);
    uint32_t max_w = 1;
    for (size_t i = 0; i < design().numSignals(); ++i)
        max_w = std::max(max_w,
                         design().info(static_cast<int>(i)).width);
    scratch_.resize(wordsFor(max_w));
    load();
}

void
BytecodeBackend::run(const Program::Chunk &chunk)
{
    Word *s = slab_.data();
    const Op *ops = prog_.ops.data();
    sim::EvalContext &ectx = ctx();
    sim::CoverageCollector *cov = cover();
    uint32_t pc = chunk.begin;
    while (pc < chunk.end) {
        const Op &op = ops[pc];
        switch (op.opc) {
          case Opc::Copy: {
            uint32_t nwa = wordsFor(op.wa);
            for (uint32_t i = 0; i < op.nw; ++i)
                s[op.d + i] = ldw(s, op.a, nwa, i);
            maskTop(s, op.d, op.nw, op.w);
            break;
          }
          case Opc::Add:
          case Opc::Sub: {
            uint32_t nwa = wordsFor(op.wa), nwb = wordsFor(op.wb);
            bool sub = op.opc == Opc::Sub ||
                       mutationOn(MUT_SIM_ADD_AS_SUB);
            if (sub) {
                Word borrow = 0;
                for (uint32_t i = 0; i < op.nw; ++i) {
                    Word aw = ldw(s, op.a, nwa, i);
                    Word bw = ldw(s, op.b, nwb, i);
                    Word t = aw - bw;
                    Word b1 = aw < bw;
                    Word r = t - borrow;
                    Word b2 = t < borrow;
                    s[op.d + i] = r;
                    borrow = b1 | b2;
                }
            } else {
                unsigned __int128 acc = 0;
                for (uint32_t i = 0; i < op.nw; ++i) {
                    acc += ldw(s, op.a, nwa, i);
                    acc += ldw(s, op.b, nwb, i);
                    s[op.d + i] = static_cast<Word>(acc);
                    acc >>= 64;
                }
            }
            maskTop(s, op.d, op.nw, op.w);
            break;
          }
          case Opc::Mul: {
            uint32_t nwa = wordsFor(op.wa), nwb = wordsFor(op.wb);
            for (uint32_t k = 0; k < op.nw; ++k)
                s[op.d + k] = 0;
            for (uint32_t i = 0; i < op.nw; ++i) {
                Word aw = ldw(s, op.a, nwa, i);
                if (!aw)
                    continue;
                unsigned __int128 carry = 0;
                for (uint32_t j = 0; i + j < op.nw; ++j) {
                    unsigned __int128 cur =
                        static_cast<unsigned __int128>(aw) *
                            ldw(s, op.b, nwb, j) +
                        s[op.d + i + j] + carry;
                    s[op.d + i + j] = static_cast<Word>(cur);
                    carry = cur >> 64;
                }
            }
            maskTop(s, op.d, op.nw, op.w);
            break;
          }
          case Opc::Divu:
          case Opc::Modu: {
            bool div = op.opc == Opc::Divu;
            if (op.wa <= 64 && op.wb <= 64) {
                Word a0 = s[op.a], b0 = s[op.b];
                Word r;
                if (b0 == 0)
                    r = ~Word(0); // division by zero yields all-ones
                else
                    r = div ? a0 / b0 : a0 % b0;
                s[op.d] = r & topWordMask(op.w);
            } else {
                Word *q = div ? s + op.d : nullptr;
                Word *r = div ? nullptr : s + op.d;
                uint32_t nq = div ? op.nw : 0, nr = div ? 0 : op.nw;
                if (divModWords(s + op.a, wordsFor(op.wa), s + op.b,
                                wordsFor(op.wb), q, nq, r, nr)) {
                    maskTop(s, op.d, op.nw, op.w);
                    break;
                }
                // Division by zero: all-ones at the operands' width,
                // resized to op.w.
                uint32_t w = std::min(op.w, std::max(op.wa, op.wb));
                for (uint32_t i = 0; i < op.nw; ++i)
                    s[op.d + i] = i < wordsFor(w) ? ~Word(0) : 0;
                maskTop(s, op.d, wordsFor(w), w);
            }
            break;
          }
          case Opc::And:
          case Opc::Or:
          case Opc::Xor: {
            uint32_t nwa = wordsFor(op.wa), nwb = wordsFor(op.wb);
            Opc eff = op.opc;
            if (eff == Opc::Xor && mutationOn(MUT_SIM_XOR_AS_OR))
                eff = Opc::Or;
            for (uint32_t i = 0; i < op.nw; ++i) {
                Word aw = ldw(s, op.a, nwa, i);
                Word bw = ldw(s, op.b, nwb, i);
                s[op.d + i] = eff == Opc::And ? (aw & bw)
                              : eff == Opc::Or ? (aw | bw)
                                               : (aw ^ bw);
            }
            maskTop(s, op.d, op.nw, op.w);
            break;
          }
          case Opc::Not: {
            uint32_t nwa = wordsFor(op.wa);
            for (uint32_t i = 0; i < op.nw; ++i)
                s[op.d + i] = ~ldw(s, op.a, nwa, i);
            maskTop(s, op.d, op.nw, op.w);
            break;
          }
          case Opc::Neg: {
            uint32_t nwa = wordsFor(op.wa);
            unsigned __int128 acc = 1;
            for (uint32_t i = 0; i < op.nw; ++i) {
                acc += static_cast<Word>(~ldw(s, op.a, nwa, i));
                s[op.d + i] = static_cast<Word>(acc);
                acc >>= 64;
            }
            maskTop(s, op.d, op.nw, op.w);
            break;
          }
          case Opc::Shl: {
            uint64_t amt = s[op.b];
            uint32_t nwa = wordsFor(op.wa);
            if (amt >= op.wa) {
                for (uint32_t i = 0; i < op.nw; ++i)
                    s[op.d + i] = 0;
                break;
            }
            uint32_t ws = static_cast<uint32_t>(amt) / 64;
            uint32_t bs = static_cast<uint32_t>(amt) % 64;
            for (uint32_t k = op.nw; k-- > 0;) {
                Word low = k >= ws ? ldw(s, op.a, nwa, k - ws) : 0;
                Word high = (bs && k > ws)
                                ? ldw(s, op.a, nwa, k - ws - 1)
                                : 0;
                s[op.d + k] =
                    bs ? (low << bs) | (high >> (64 - bs)) : low;
            }
            maskTop(s, op.d, op.nw, op.w);
            break;
          }
          case Opc::Shr: {
            uint64_t amt = s[op.b] +
                           (mutationOn(MUT_SIM_SHR_OFF_BY_ONE) ? 1 : 0);
            uint32_t nwa = wordsFor(op.wa);
            if (amt >= op.wa) {
                for (uint32_t i = 0; i < op.nw; ++i)
                    s[op.d + i] = 0;
                break;
            }
            uint32_t ws = static_cast<uint32_t>(amt) / 64;
            uint32_t bs = static_cast<uint32_t>(amt) % 64;
            for (uint32_t i = 0; i < op.nw; ++i) {
                Word low = ldw(s, op.a, nwa, i + ws);
                Word high = bs ? ldw(s, op.a, nwa, i + ws + 1) : 0;
                s[op.d + i] =
                    bs ? (low >> bs) | (high << (64 - bs)) : low;
            }
            maskTop(s, op.d, op.nw, op.w);
            break;
          }
          case Opc::LogNot:
          case Opc::RedAnd:
          case Opc::RedOr:
          case Opc::RedXor: {
            uint32_t nwa = wordsFor(op.wa);
            bool r = false;
            if (op.opc == Opc::LogNot) {
                r = !anyWord(s + op.a, nwa);
            } else if (op.opc == Opc::RedOr) {
                r = anyWord(s + op.a, nwa);
            } else if (op.opc == Opc::RedAnd) {
                r = true;
                for (uint32_t i = 0; r && i < nwa; ++i) {
                    Word want = i + 1 == nwa ? topWordMask(op.wa)
                                             : ~Word(0);
                    r = s[op.a + i] == want;
                }
            } else {
                Word acc = 0;
                for (uint32_t i = 0; i < nwa; ++i)
                    acc ^= s[op.a + i];
                r = __builtin_parityll(acc);
            }
            for (uint32_t i = 0; i < op.nw; ++i)
                s[op.d + i] = 0;
            s[op.d] = r ? 1 : 0;
            break;
          }
          case Opc::LogAnd:
          case Opc::LogOr: {
            bool a = anyWord(s + op.a, wordsFor(op.wa));
            bool b = anyWord(s + op.b, wordsFor(op.wb));
            bool r = op.opc == Opc::LogAnd ? (a && b) : (a || b);
            for (uint32_t i = 0; i < op.nw; ++i)
                s[op.d + i] = 0;
            s[op.d] = r ? 1 : 0;
            break;
          }
          case Opc::CmpEq:
          case Opc::CmpNe:
          case Opc::CmpLt:
          case Opc::CmpLe:
          case Opc::CmpGt:
          case Opc::CmpGe: {
            int cmp = cmpWords(s, op.a, wordsFor(op.wa), op.b,
                               wordsFor(op.wb));
            bool r = false;
            switch (op.opc) {
              case Opc::CmpEq: r = cmp == 0; break;
              case Opc::CmpNe: r = cmp != 0; break;
              case Opc::CmpLt:
                r = mutationOn(MUT_SIM_LT_AS_LE) ? cmp <= 0 : cmp < 0;
                break;
              case Opc::CmpLe: r = cmp <= 0; break;
              case Opc::CmpGt: r = cmp > 0; break;
              default: r = cmp >= 0; break;
            }
            for (uint32_t i = 0; i < op.nw; ++i)
                s[op.d + i] = 0;
            s[op.d] = r ? 1 : 0;
            break;
          }
          case Opc::Select: {
            bool taken =
                anyWord(s + op.c,
                        wordsFor(static_cast<uint32_t>(op.aux2)));
            if (mutationOn(MUT_SIM_TERNARY_SWAP))
                taken = !taken;
            uint32_t src = taken ? op.a : op.b;
            uint32_t src_w = taken ? op.wa : op.wb;
            resizeWords(s + op.d, op.w, s + src, src_w);
            break;
          }
          case Opc::SliceGet: {
            uint32_t keep = static_cast<uint32_t>(op.aux2);
            uint32_t nw_keep = wordsFor(keep);
            sliceWords(s + op.d, keep, s + op.a, op.wa,
                       static_cast<uint32_t>(op.aux));
            for (uint32_t i = nw_keep; i < op.nw; ++i)
                s[op.d + i] = 0;
            break;
          }
          case Opc::BitGet: {
            uint32_t idx = static_cast<uint32_t>(s[op.b]);
            bool bit = false;
            if (idx < op.wa)
                bit = (s[op.a + idx / 64] >> (idx % 64)) & 1;
            for (uint32_t i = 0; i < op.nw; ++i)
                s[op.d + i] = 0;
            s[op.d] = bit ? 1 : 0;
            break;
          }
          case Opc::ArrGet: {
            int sig = static_cast<int>(op.aux);
            const SignalInfo &info = design().info(sig);
            int64_t elem = sim::effectiveIndex(s[op.b], info.arraySize);
            if (elem < 0) {
                for (uint32_t i = 0; i < op.nw; ++i)
                    s[op.d + i] = 0;
                break;
            }
            const Word *src =
                s + prog_.arrOff[sig] +
                static_cast<size_t>(elem) * wordsFor(info.width);
            resizeWords(s + op.d, op.w, src, info.width);
            break;
          }
          case Opc::WriteTemp: {
            uint32_t nwa = wordsFor(op.wa);
            uint32_t off = static_cast<uint32_t>(op.aux);
            uint32_t ws = off / 64, bs = off % 64;
            for (uint32_t i = 0; i < nwa; ++i) {
                Word v = s[op.a + i];
                s[op.d + ws + i] |= v << bs;
                if (bs) {
                    Word spill = v >> (64 - bs);
                    // The spill word index can sit one past the slot
                    // when the part's top bits are zero; only touch it
                    // when there is something to write.
                    if (spill)
                        s[op.d + ws + i + 1] |= spill;
                }
            }
            break;
          }
          case Opc::ClearTemp:
            for (uint32_t i = 0; i < op.nw; ++i)
                s[op.d + i] = 0;
            break;
          case Opc::Store:
            doStore(prog_.stores[static_cast<size_t>(op.aux)]);
            break;
          case Opc::NbaPush: {
            const NbaDesc &nd =
                prog_.nbas[static_cast<size_t>(op.aux)];
            sim::StoreTarget t;
            t.sig = nd.sig;
            switch (nd.kind) {
              case StoreDesc::Whole:
                break;
              case StoreDesc::Elem: {
                const SignalInfo &info = design().info(nd.sig);
                t.element =
                    sim::effectiveIndex(s[nd.idxSlot], info.arraySize);
                t.dropped = t.element < 0;
                break;
              }
              case StoreDesc::Bit: {
                const SignalInfo &info = design().info(nd.sig);
                uint64_t index = s[nd.idxSlot];
                if (index >= info.width) {
                    t.dropped = true;
                } else {
                    t.whole = false;
                    t.msb = t.lsb = static_cast<uint32_t>(index);
                }
                break;
              }
              case StoreDesc::Slice:
                t.whole = false;
                t.msb = nd.msb;
                t.lsb = nd.lsb;
                break;
            }
            uint32_t pw = nd.rhsMsb - nd.rhsLsb + 1;
            uint32_t off = static_cast<uint32_t>(nbaWords_.size());
            nbaWords_.resize(off + wordsFor(pw));
            sliceWords(nbaWords_.data() + off, pw, s + nd.valSlot,
                       nd.valW, nd.rhsLsb);
            nba_.push_back(NbaEntry{t, off, pw});
            break;
          }
          case Opc::Jmp:
            pc = static_cast<uint32_t>(op.aux);
            continue;
          case Opc::Jz:
            if (!anyWord(s + op.a, wordsFor(op.wa))) {
                pc = static_cast<uint32_t>(op.aux);
                continue;
            }
            break;
          case Opc::Jnz:
            if (anyWord(s + op.a, wordsFor(op.wa))) {
                pc = static_cast<uint32_t>(op.aux);
                continue;
            }
            break;
          case Opc::CoverStmt:
            if (cov)
                cov->onStmt(op.stmt);
            break;
          case Opc::CoverArm:
            if (cov)
                cov->onArm(op.stmt, static_cast<uint32_t>(op.aux));
            break;
          case Opc::Display: {
            const DisplayDesc &dd =
                prog_.displays[static_cast<size_t>(op.aux)];
            std::vector<Bits> args;
            args.reserve(dd.args.size());
            for (const auto &[aoff, aw] : dd.args)
                args.push_back(
                    Bits::fromWords(aw, s + aoff, wordsFor(aw)));
            // Deferred formatting: bank the raw hit, render at drain.
            ectx.pendingLog.push_back(sim::EvalContext::PendingDisplay{
                ectx.cycle, &dd.stmt->format, std::move(args)});
            HWDBG_STAT_INC("sim.display_records", 1);
            break;
          }
          case Opc::WarnDisplay:
            if (!warnedCombDisplay_) {
                warn("$display in combinational process ignored");
                warnedCombDisplay_ = true;
            }
            break;
          case Opc::Finish:
            ectx.finished = true;
            break;

          // Single-word forms: operands are canonical one-word values,
          // so zero extension is free and only the result is masked.
          case Opc::Copy1:
            s[op.d] = s[op.a] & topWordMask(op.w);
            break;
          case Opc::Add1: {
            Word r = mutationOn(MUT_SIM_ADD_AS_SUB) ? s[op.a] - s[op.b]
                                                    : s[op.a] + s[op.b];
            s[op.d] = r & topWordMask(op.w);
            break;
          }
          case Opc::Sub1:
            s[op.d] = (s[op.a] - s[op.b]) & topWordMask(op.w);
            break;
          case Opc::And1:
            s[op.d] = s[op.a] & s[op.b];
            break;
          case Opc::Or1:
            s[op.d] = s[op.a] | s[op.b];
            break;
          case Opc::Xor1:
            s[op.d] = mutationOn(MUT_SIM_XOR_AS_OR) ? s[op.a] | s[op.b]
                                                    : s[op.a] ^ s[op.b];
            break;
          case Opc::Not1:
            s[op.d] = ~s[op.a] & topWordMask(op.w);
            break;
          case Opc::LogNot1:
            s[op.d] = s[op.a] == 0;
            break;
          case Opc::RedOr1:
            s[op.d] = s[op.a] != 0;
            break;
          case Opc::LogAnd1:
            s[op.d] = s[op.a] != 0 && s[op.b] != 0;
            break;
          case Opc::LogOr1:
            s[op.d] = s[op.a] != 0 || s[op.b] != 0;
            break;
          case Opc::CmpEq1:
            s[op.d] = s[op.a] == s[op.b];
            break;
          case Opc::CmpNe1:
            s[op.d] = s[op.a] != s[op.b];
            break;
          case Opc::CmpLt1:
            s[op.d] = mutationOn(MUT_SIM_LT_AS_LE) ? s[op.a] <= s[op.b]
                                                   : s[op.a] < s[op.b];
            break;
          case Opc::CmpLe1:
            s[op.d] = s[op.a] <= s[op.b];
            break;
          case Opc::CmpGt1:
            s[op.d] = s[op.a] > s[op.b];
            break;
          case Opc::CmpGe1:
            s[op.d] = s[op.a] >= s[op.b];
            break;
          case Opc::Select1: {
            bool taken = s[op.c] != 0;
            if (mutationOn(MUT_SIM_TERNARY_SWAP))
                taken = !taken;
            // narrowOp admits no arm wider than the destination.
            s[op.d] = s[taken ? op.a : op.b];
            break;
          }
          case Opc::SliceGet1: {
            uint32_t lo = static_cast<uint32_t>(op.aux);
            uint32_t ws = lo / 64, bs = lo % 64;
            uint32_t nwa = wordsFor(op.wa);
            Word v = ws < nwa ? s[op.a + ws] >> bs : 0;
            if (bs && ws + 1 < nwa)
                v |= s[op.a + ws + 1] << (64 - bs);
            s[op.d] = v & topWordMask(static_cast<uint32_t>(op.aux2));
            break;
          }
          case Opc::BitGet1: {
            uint32_t idx = static_cast<uint32_t>(s[op.b]);
            s[op.d] = idx < op.wa ? (s[op.a] >> idx) & 1 : 0;
            break;
          }
          case Opc::ArrGet1: {
            uint64_t elem = s[op.b] & static_cast<uint32_t>(op.aux2);
            s[op.d] = elem < op.c ? s[op.a + elem] & topWordMask(op.w) : 0;
            break;
          }
          case Opc::WriteTemp1:
            s[op.d + static_cast<uint32_t>(op.aux) / 64] |=
                s[op.a] << (static_cast<uint32_t>(op.aux) % 64);
            break;
          case Opc::ClearTemp1:
            s[op.d] = 0;
            break;
          case Opc::Jz1:
            if (!s[op.a]) {
                pc = static_cast<uint32_t>(op.aux);
                continue;
            }
            break;
          case Opc::Jnz1:
            if (s[op.a]) {
                pc = static_cast<uint32_t>(op.aux);
                continue;
            }
            break;
          case Opc::Store1: {
            Word v = s[op.a] & topWordMask(op.w);
            if (s[op.d] == v)
                break;
            const StoreDesc &sd =
                prog_.stores[static_cast<size_t>(op.aux)];
            // Coverage sees both values through the generic path.
            if (cov) {
                doStore(sd);
                break;
            }
            s[op.d] = v;
            ectx.valuesChanged = true;
            if (ectx.toggles)
                ++(*ectx.toggles)[sd.sig];
            break;
          }
        }
        ++pc;
    }
}

void
BytecodeBackend::doStore(const StoreDesc &sd)
{
    const Word *s = slab_.data();
    sim::StoreTarget t;
    t.sig = sd.sig;
    switch (sd.kind) {
      case StoreDesc::Whole:
        break;
      case StoreDesc::Elem: {
        const SignalInfo &info = design().info(sd.sig);
        t.element = sim::effectiveIndex(s[sd.idxSlot], info.arraySize);
        t.dropped = t.element < 0;
        break;
      }
      case StoreDesc::Bit: {
        const SignalInfo &info = design().info(sd.sig);
        uint64_t index = s[sd.idxSlot];
        if (index >= info.width) {
            t.dropped = true;
        } else {
            t.whole = false;
            t.msb = t.lsb = static_cast<uint32_t>(index);
        }
        break;
      }
      case StoreDesc::Slice:
        t.whole = false;
        t.msb = sd.msb;
        t.lsb = sd.lsb;
        break;
    }
    applySlab(t, s + sd.valSlot, sd.valW);
}

void
BytecodeBackend::applySlab(const sim::StoreTarget &target,
                           const Word *val, uint32_t val_w)
{
    if (target.dropped)
        return;
    const SignalInfo &info = design().info(target.sig);
    sim::EvalContext &ectx = ctx();
    uint32_t snw = wordsFor(info.width);
    Word *slot;
    if (target.element >= 0)
        slot = slab_.data() + prog_.arrOff[target.sig] +
               static_cast<size_t>(target.element) * snw;
    else
        slot = slab_.data() + prog_.sigOff[target.sig];

    if (target.element >= 0 || target.whole) {
        resizeWords(scratch_.data(), info.width, val, val_w);
        if (std::memcmp(slot, scratch_.data(),
                        snw * sizeof(Word)) == 0)
            return;
        if (ectx.cover)
            ectx.cover->onStore(
                target.sig, Bits::fromWords(info.width, slot, snw),
                Bits::fromWords(info.width, scratch_.data(), snw));
        std::memcpy(slot, scratch_.data(), snw * sizeof(Word));
        ectx.valuesChanged = true;
        if (ectx.toggles)
            ++(*ectx.toggles)[target.sig];
        return;
    }

    // Partial (bit/slice) store: rare, so materialize Bits and use the
    // interpreter's own setSlice for exact out-of-range semantics.
    Bits before = Bits::fromWords(info.width, slot, snw);
    Bits after = before;
    after.setSlice(target.msb, target.lsb,
                   Bits::fromWords(val_w, val, wordsFor(val_w)));
    if (after != before) {
        if (ectx.cover)
            ectx.cover->onStore(target.sig, before, after);
        resizeWords(slot, info.width, after.rawWords(),
                    static_cast<uint32_t>(after.numWords()) * 64);
        ectx.valuesChanged = true;
        if (ectx.toggles)
            ++(*ectx.toggles)[target.sig];
    }
}

void
BytecodeBackend::settleComb()
{
    // Same bounded fixpoint as the interpreter: store-site change
    // flags as the fast path, whole-state comparison as the authority
    // (transient toggles inside a pass must not count as progress).
    // The state region is flat words, so the comparison is one memcmp.
    using ProfClock = std::chrono::steady_clock;
    sim::EvalContext &ectx = ctx();
    sim::SimCounters *prof_ = prof();
    size_t work = prog_.assignChunks.size() + prog_.combChunks.size();
    size_t max_iters = work + 4;
    size_t iters_used = 0;
    for (size_t iter = 0; iter < max_iters; ++iter) {
        iters_used = iter + 1;
        std::memcpy(before_.data(), slab_.data(),
                    prog_.stateWords * sizeof(Word));
        ectx.valuesChanged = false;
        if (!prof_) {
            // The assign and comb chunks are contiguous in the op
            // stream: one dispatch loop runs the whole pass.
            run(prog_.settleChunk);
        } else {
            for (size_t i = 0; i < prog_.assignChunks.size(); ++i) {
                ProfClock::time_point t0 = ProfClock::now();
                run(prog_.assignChunks[i]);
                ++prof_->assignEvals[i];
                prof_->assignNs[i] +=
                    std::chrono::duration<double, std::nano>(
                        ProfClock::now() - t0)
                        .count();
            }
            for (size_t i = 0; i < prog_.combChunks.size(); ++i) {
                ProfClock::time_point t0 = ProfClock::now();
                run(prog_.combChunks[i]);
                ++prof_->combEvals[i];
                prof_->combNs[i] +=
                    std::chrono::duration<double, std::nano>(
                        ProfClock::now() - t0)
                        .count();
            }
        }
        if (!ectx.valuesChanged) {
            noteSettle(iters_used, work);
            return;
        }
        if (std::memcmp(before_.data(), slab_.data(),
                        prog_.stateWords * sizeof(Word)) == 0) {
            noteSettle(iters_used, work);
            return;
        }
    }
    fatal("combinational logic failed to settle (combinational loop?)");
}

void
BytecodeBackend::execClocked(size_t pi)
{
    run(prog_.clockedChunks[pi]);
}

void
BytecodeBackend::commitNba()
{
    for (const NbaEntry &entry : nba_)
        applySlab(entry.target, nbaWords_.data() + entry.off,
                  entry.width);
    nba_.clear();
    nbaWords_.clear();
}

void
BytecodeBackend::onPoke(int sig)
{
    const Bits &v = ctx().values[sig];
    resizeWords(slab_.data() + prog_.sigOff[sig],
                design().info(sig).width, v.rawWords(),
                static_cast<uint32_t>(v.numWords()) * 64);
}

bool
BytecodeBackend::signalBool(int sig)
{
    return anyWord(slab_.data() + prog_.sigOff[sig],
                   wordsFor(design().info(sig).width));
}

void
BytecodeBackend::flush()
{
    for (size_t i = 0; i < design().numSignals(); ++i)
        flushSignal(static_cast<int>(i));
}

void
BytecodeBackend::flushSignal(int sig)
{
    const SignalInfo &info = design().info(sig);
    uint32_t snw = wordsFor(info.width);
    sim::EvalContext &ectx = ctx();
    // Memories keep their (never-written) dummy scalar entry in sync
    // too, so snapshots byte-compare across backends.
    ectx.values[sig] = Bits::fromWords(
        info.width, slab_.data() + prog_.sigOff[sig], snw);
    if (info.arraySize != 0) {
        const Word *base = slab_.data() + prog_.arrOff[sig];
        for (uint32_t e = 0; e < info.arraySize; ++e)
            ectx.arrays[sig][e] = Bits::fromWords(
                info.width, base + static_cast<size_t>(e) * snw, snw);
    }
}

void
BytecodeBackend::loadSignal(int sig)
{
    const SignalInfo &info = design().info(sig);
    uint32_t snw = wordsFor(info.width);
    const sim::EvalContext &ectx = ctx();
    const Bits &v = ectx.values[sig];
    resizeWords(slab_.data() + prog_.sigOff[sig], info.width,
                v.rawWords(), static_cast<uint32_t>(v.numWords()) * 64);
    if (info.arraySize != 0) {
        Word *base = slab_.data() + prog_.arrOff[sig];
        for (uint32_t e = 0; e < info.arraySize; ++e) {
            const Bits &ev = ectx.arrays[sig][e];
            resizeWords(base + static_cast<size_t>(e) * snw,
                        info.width, ev.rawWords(),
                        static_cast<uint32_t>(ev.numWords()) * 64);
        }
    }
}

void
BytecodeBackend::load()
{
    for (size_t i = 0; i < design().numSignals(); ++i)
        loadSignal(static_cast<int>(i));
}

void
BytecodeBackend::exportNba(std::vector<sim::PendingNba> &out) const
{
    out.clear();
    out.reserve(nba_.size());
    for (const NbaEntry &entry : nba_)
        out.push_back(sim::PendingNba{
            entry.target,
            Bits::fromWords(entry.width, nbaWords_.data() + entry.off,
                            wordsFor(entry.width))});
}

void
BytecodeBackend::importNba(const std::vector<sim::PendingNba> &in)
{
    nba_.clear();
    nbaWords_.clear();
    for (const sim::PendingNba &p : in) {
        NbaEntry entry;
        entry.target = p.target;
        entry.width = p.value.width();
        entry.off = static_cast<uint32_t>(nbaWords_.size());
        uint32_t nw = wordsFor(entry.width);
        nbaWords_.resize(entry.off + nw);
        resizeWords(nbaWords_.data() + entry.off, entry.width,
                    p.value.rawWords(),
                    static_cast<uint32_t>(p.value.numWords()) * 64);
        nba_.push_back(entry);
    }
}

sim::BackendFactory
makeBytecodeBackend()
{
    return [](sim::Simulator &sim) {
        return std::unique_ptr<sim::Backend>(new BytecodeBackend(sim));
    };
}

sim::BackendFactory
backendByName(const std::string &name)
{
    if (name == "interp")
        return {};
    if (name == "bytecode")
        return makeBytecodeBackend();
    fatal("unknown backend '%s' (expected interp or bytecode)",
          name.c_str());
}

} // namespace hwdbg::compile
