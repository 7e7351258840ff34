/**
 * @file
 * Unit and property tests for the Bits arbitrary-width vector.
 */

#include <gtest/gtest.h>

#include <random>

#include "common/bits.hh"
#include "common/logging.hh"

using hwdbg::Bits;
using hwdbg::HdlError;

TEST(BitsTest, ConstructTruncates)
{
    Bits b(4, 0x1f);
    EXPECT_EQ(b.toU64(), 0xfu);
    EXPECT_EQ(b.width(), 4u);
}

TEST(BitsTest, ZeroWidthClampedToOne)
{
    Bits b(0, 1);
    EXPECT_EQ(b.width(), 1u);
}

TEST(BitsTest, ParseHexLiteral)
{
    bool sized = false;
    Bits b = Bits::parseVerilog("8'hff", &sized);
    EXPECT_TRUE(sized);
    EXPECT_EQ(b.width(), 8u);
    EXPECT_EQ(b.toU64(), 0xffu);
}

TEST(BitsTest, ParseBinaryLiteral)
{
    Bits b = Bits::parseVerilog("4'b1010");
    EXPECT_EQ(b.toU64(), 0xau);
}

TEST(BitsTest, ParseDecimalSized)
{
    Bits b = Bits::parseVerilog("12'd129");
    EXPECT_EQ(b.width(), 12u);
    EXPECT_EQ(b.toU64(), 129u);
}

TEST(BitsTest, ParseUnsizedDecimal)
{
    bool sized = true;
    Bits b = Bits::parseVerilog("42", &sized);
    EXPECT_FALSE(sized);
    EXPECT_EQ(b.width(), 32u);
    EXPECT_EQ(b.toU64(), 42u);
}

TEST(BitsTest, ParseUnderscoresIgnored)
{
    Bits b = Bits::parseVerilog("16'hab_cd");
    EXPECT_EQ(b.toU64(), 0xabcdu);
}

TEST(BitsTest, ParseLiteralTruncatesToWidth)
{
    Bits b = Bits::parseVerilog("4'hff");
    EXPECT_EQ(b.toU64(), 0xfu);
}

TEST(BitsTest, ParseWideHex)
{
    Bits b = Bits::parseVerilog("128'hdeadbeefdeadbeefdeadbeefdeadbeef");
    EXPECT_EQ(b.width(), 128u);
    EXPECT_EQ(b.slice(63, 0).toU64(), 0xdeadbeefdeadbeefull);
    EXPECT_EQ(b.slice(127, 64).toU64(), 0xdeadbeefdeadbeefull);
}

TEST(BitsTest, ParseBadLiteralThrows)
{
    EXPECT_THROW(Bits::parseVerilog("8'q12"), HdlError);
    EXPECT_THROW(Bits::parseVerilog("8'h"), HdlError);
    EXPECT_THROW(Bits::parseVerilog("xyz"), HdlError);
}

TEST(BitsTest, AddWrapsAtWidth)
{
    Bits a(8, 0xf0);
    Bits b(8, 0x20);
    EXPECT_EQ(a.add(b).toU64(), 0x10u);
}

TEST(BitsTest, AddCarriesAcrossWords)
{
    Bits a(128, ~uint64_t(0));
    Bits one(128, 1);
    Bits sum = a.add(one);
    EXPECT_EQ(sum.slice(63, 0).toU64(), 0u);
    EXPECT_EQ(sum.slice(127, 64).toU64(), 1u);
}

TEST(BitsTest, SubModular)
{
    Bits a(8, 5);
    Bits b(8, 10);
    EXPECT_EQ(a.sub(b).toU64(), 0xfbu); // -5 mod 256
}

TEST(BitsTest, MulWide)
{
    Bits a(64, 0xffffffffull);
    Bits b(64, 0xffffffffull);
    EXPECT_EQ(a.mul(b).toU64(), 0xfffffffe00000001ull);
}

TEST(BitsTest, DivAndMod)
{
    Bits a(16, 1000);
    Bits b(16, 7);
    EXPECT_EQ(a.divu(b).toU64(), 142u);
    EXPECT_EQ(a.modu(b).toU64(), 6u);
}

TEST(BitsTest, DivByZeroIsAllOnes)
{
    Bits a(8, 10);
    EXPECT_TRUE(a.divu(Bits(8, 0)).isAllOnes());
    EXPECT_TRUE(a.modu(Bits(8, 0)).isAllOnes());
}

TEST(BitsTest, ShiftBeyondWidthIsZero)
{
    Bits a(8, 0xff);
    EXPECT_TRUE(a.shl(8).isZero());
    EXPECT_TRUE(a.shr(9).isZero());
}

TEST(BitsTest, SliceAndSetSlice)
{
    Bits a(16, 0xabcd);
    EXPECT_EQ(a.slice(15, 8).toU64(), 0xabu);
    a.setSlice(15, 8, Bits(8, 0x12));
    EXPECT_EQ(a.toU64(), 0x12cdu);
}

TEST(BitsTest, OutOfRangeBitReadsZero)
{
    Bits a = Bits::allOnes(8);
    EXPECT_FALSE(a.bit(8));
    EXPECT_FALSE(a.bit(1000));
}

TEST(BitsTest, ConcatOrdering)
{
    Bits hi(8, 0xab);
    Bits lo(4, 0x5);
    Bits cat = hi.concat(lo);
    EXPECT_EQ(cat.width(), 12u);
    EXPECT_EQ(cat.toU64(), 0xab5u);
}

TEST(BitsTest, Replicate)
{
    Bits b(4, 0xa);
    EXPECT_EQ(b.replicate(3).toU64(), 0xaaau);
    EXPECT_EQ(b.replicate(3).width(), 12u);
}

TEST(BitsTest, Reductions)
{
    EXPECT_TRUE(Bits::allOnes(5).redAnd());
    EXPECT_FALSE(Bits(5, 0x1e).redAnd());
    EXPECT_TRUE(Bits(5, 2).redOr());
    EXPECT_FALSE(Bits(5, 0).redOr());
    EXPECT_TRUE(Bits(8, 0x7).redXor());
    EXPECT_FALSE(Bits(8, 0x3).redXor());
}

TEST(BitsTest, CompareDifferentWidths)
{
    EXPECT_EQ(Bits(4, 9).compare(Bits(16, 9)), 0);
    EXPECT_LT(Bits(4, 9).compare(Bits(16, 100)), 0);
    EXPECT_GT(Bits(64, 1u << 20).compare(Bits(4, 15)), 0);
}

TEST(BitsTest, DecStringWide)
{
    // 2^80 = 1208925819614629174706176
    Bits b(81, 0);
    b.setBit(80, true);
    EXPECT_EQ(b.toDecString(), "1208925819614629174706176");
}

TEST(BitsTest, HexBinStrings)
{
    Bits b(12, 0xa5f);
    EXPECT_EQ(b.toHexString(), "a5f");
    EXPECT_EQ(b.toBinString(), "101001011111");
    EXPECT_EQ(b.toVerilog(), "12'ha5f");
}

TEST(BitsTest, NegateTwosComplement)
{
    Bits b(8, 1);
    EXPECT_EQ(b.negate().toU64(), 0xffu);
    EXPECT_TRUE(Bits(8, 0).negate().isZero());
}

// ---------------------------------------------------------------------
// Property tests: wide ops agree with native 64-bit arithmetic when the
// width and the operands fit in a word.
// ---------------------------------------------------------------------

struct ArithCase
{
    uint32_t width;
    // gtest prints a case as its raw bytes, and CTest names each test
    // after them: the padding is a member so that it is always zero.
    uint32_t pad;
    uint64_t a;
    uint64_t b;
};

class BitsArithProperty : public ::testing::TestWithParam<ArithCase>
{
};

TEST_P(BitsArithProperty, MatchesNativeModularArithmetic)
{
    const uint32_t w = GetParam().width;
    const uint64_t av = GetParam().a, bv = GetParam().b;
    uint64_t mask = w >= 64 ? ~uint64_t(0) : ((uint64_t(1) << w) - 1);
    Bits a(w, av);
    Bits b(w, bv);
    uint64_t am = av & mask, bm = bv & mask;

    EXPECT_EQ(a.add(b).toU64(), (am + bm) & mask);
    EXPECT_EQ(a.sub(b).toU64(), (am - bm) & mask);
    EXPECT_EQ(a.mul(b).toU64(), (am * bm) & mask);
    if (bm != 0) {
        EXPECT_EQ(a.divu(b).toU64(), (am / bm) & mask);
        EXPECT_EQ(a.modu(b).toU64(), (am % bm) & mask);
    }
    EXPECT_EQ(a.bitAnd(b).toU64(), am & bm);
    EXPECT_EQ(a.bitOr(b).toU64(), am | bm);
    EXPECT_EQ(a.bitXor(b).toU64(), am ^ bm);
    EXPECT_EQ(a.bitNot().toU64(), ~am & mask);
    EXPECT_EQ(a.compare(b), am < bm ? -1 : (am > bm ? 1 : 0));
    for (uint32_t shift : {0u, 1u, 3u, w - 1}) {
        EXPECT_EQ(a.shl(shift).toU64(), (am << shift) & mask);
        EXPECT_EQ(a.shr(shift).toU64(), (am & mask) >> shift);
    }
}

static std::vector<ArithCase>
arithCases()
{
    std::vector<ArithCase> cases;
    std::mt19937_64 rng(12345);
    for (uint32_t w : {1u, 3u, 8u, 13u, 16u, 31u, 32u, 47u, 63u, 64u}) {
        for (int i = 0; i < 8; ++i)
            cases.push_back(ArithCase{w, 0, rng(), rng()});
        cases.push_back(ArithCase{w, 0, 0, 0});
        cases.push_back(ArithCase{w, 0, ~uint64_t(0), 1});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, BitsArithProperty,
                         ::testing::ValuesIn(arithCases()));

// Round-trip property: slices reassemble to the original value.
class BitsSliceProperty : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BitsSliceProperty, SplitConcatRoundTrip)
{
    uint32_t width = GetParam();
    std::mt19937_64 rng(width * 977);
    Bits value(width, 0);
    for (uint32_t i = 0; i < width; ++i)
        value.setBit(i, rng() & 1);

    for (uint32_t split = 1; split < width; split += 3) {
        Bits hi = value.slice(width - 1, split);
        Bits lo = value.slice(split - 1, 0);
        EXPECT_EQ(hi.concat(lo), value) << "width=" << width
                                        << " split=" << split;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitsSliceProperty,
                         ::testing::Values(2u, 5u, 8u, 17u, 64u, 65u,
                                           100u, 128u, 200u));

// ---------------------------------------------------------------------
// Multi-word properties: division, decimal rendering and the word-level
// bit-range operations at widths past one word.
// ---------------------------------------------------------------------

namespace
{

/** A uniformly random @p width-bit value, built one bit at a time. */
Bits
randomBits(uint32_t width, std::mt19937_64 &rng)
{
    Bits value(width);
    for (uint32_t i = 0; i < width; ++i)
        value.setBit(i, rng() & 1);
    return value;
}

/** Checks q*b + r == a and r < b at max(width), and the zero divisor. */
void
expectDivision(const Bits &a, const Bits &b)
{
    uint32_t w = std::max(a.width(), b.width());
    Bits q = a.divu(b);
    Bits r = a.modu(b);
    ASSERT_EQ(q.width(), w);
    ASSERT_EQ(r.width(), w);
    EXPECT_EQ(q.mul(b).add(r), a)
        << "a=" << a.toVerilog() << " b=" << b.toVerilog();
    EXPECT_LT(r.compare(b), 0)
        << "a=" << a.toVerilog() << " b=" << b.toVerilog();
}

} // namespace

TEST(BitsWide, DivisionIdentityAcrossWidthsAndDivisorShapes)
{
    std::mt19937_64 rng(4242);
    for (int i = 0; i < 300; ++i) {
        uint32_t wa = 65 + static_cast<uint32_t>(rng() % 448);
        uint32_t wb = 65 + static_cast<uint32_t>(rng() % 448);
        Bits a = randomBits(wa, rng);
        // A one-word divisor, a full-width one, and one whose only set
        // word is its top word.
        expectDivision(a, Bits(wb, rng() | 1));
        expectDivision(a, randomBits(wb, rng));
        Bits top(wb);
        top.setSlice(wb - 1, (wb - 1) / 64 * 64, Bits(64, rng() | 1));
        expectDivision(a, top);
        // A dividend narrower than its divisor.
        expectDivision(randomBits(wb / 2, rng), randomBits(wb, rng));
    }
}

TEST(BitsWide, DivisionByZeroIsAllOnesAtTheWideWidth)
{
    for (uint32_t w : {65u, 128u, 200u, 512u}) {
        Bits a = Bits::allOnes(w).shr(3);
        EXPECT_EQ(a.divu(Bits(8, 0)).width(), w);
        EXPECT_TRUE(a.divu(Bits(8, 0)).isAllOnes()) << w;
        EXPECT_TRUE(a.modu(Bits(w, 0)).isAllOnes()) << w;
        EXPECT_TRUE(Bits(8, 5).divu(Bits(w, 0)).isAllOnes()) << w;
        EXPECT_EQ(Bits(8, 5).modu(Bits(w, 0)).width(), w);
    }
}

TEST(BitsWide, DivisionTakesTheAddBackStep)
{
    // Base-2^64 digits, least significant first: a = {0, 0, 2^63,
    // 2^63 - 1}, b = {1, 0, 2^63}. The two-digit quotient estimate
    // 2^64 - 1 survives its correction test, and the multiply-subtract
    // goes negative, so Algorithm D adds the divisor back once.
    Bits a = Bits::parseVerilog("256'h7fffffffffffffff_8000000000000000_"
                                "0000000000000000_0000000000000000");
    Bits b = Bits::parseVerilog("192'h8000000000000000_0000000000000000_"
                                "0000000000000001");
    EXPECT_EQ(a.divu(b), Bits(256, 0xfffffffffffffffeull));
    EXPECT_EQ(a.modu(b),
              Bits::parseVerilog("256'h7fffffffffffffff_ffffffffffffffff_"
                                 "0000000000000002"));
    expectDivision(a, b);
}

TEST(BitsWide, DecimalRoundTripsThroughTheParser)
{
    std::mt19937_64 rng(99);
    for (uint32_t w = 65; w <= 512; w += 7) {
        Bits value = randomBits(w, rng);
        std::string dec = value.toDecString();
        Bits back =
            Bits::parseVerilog(std::to_string(w) + "'d" + dec);
        EXPECT_EQ(back.toBinString(), value.toBinString()) << dec;
    }
    EXPECT_EQ(Bits(300, 0).toDecString(), "0");
}

TEST(BitsWide, DecimalRenderingKeepsChunkPadding)
{
    EXPECT_EQ(Bits::allOnes(128).toDecString(),
              "340282366920938463463374607431768211455");
    Bits ten19(128, 10000000000000000000ull);
    EXPECT_EQ(ten19.toDecString(), "1" + std::string(19, '0'));
    EXPECT_EQ(ten19.mul(ten19).toDecString(), "1" + std::string(38, '0'));
    EXPECT_EQ(ten19.mul(ten19).add(Bits(128, 7)).toDecString(),
              "1" + std::string(37, '0') + "7");
}

namespace
{

// Bit-serial references for the word-level operations.

Bits
refSlice(const Bits &v, uint32_t msb, uint32_t lsb)
{
    if (msb < lsb)
        std::swap(msb, lsb);
    Bits out(msb - lsb + 1);
    for (uint32_t i = 0; i < out.width(); ++i)
        out.setBit(i, v.bit(lsb + i));
    return out;
}

void
refSetSlice(Bits &v, uint32_t msb, uint32_t lsb, const Bits &x)
{
    if (msb < lsb)
        std::swap(msb, lsb);
    for (uint32_t i = 0; i < msb - lsb + 1; ++i)
        v.setBit(lsb + i, x.bit(i));
}

Bits
refConcat(const Bits &hi, const Bits &lo)
{
    Bits out(hi.width() + lo.width());
    for (uint32_t i = 0; i < lo.width(); ++i)
        out.setBit(i, lo.bit(i));
    for (uint32_t i = 0; i < hi.width(); ++i)
        out.setBit(lo.width() + i, hi.bit(i));
    return out;
}

Bits
refShift(const Bits &v, uint64_t amount, bool left)
{
    Bits out(v.width());
    for (uint32_t i = 0; i < v.width(); ++i) {
        uint64_t from = left ? i - amount : i + amount;
        if (left ? amount <= i : from < v.width())
            out.setBit(i, v.bit(static_cast<uint32_t>(from)));
    }
    return out;
}

void
expectSame(const Bits &got, const Bits &want, const std::string &what)
{
    EXPECT_EQ(got.width(), want.width()) << what;
    EXPECT_EQ(got.toBinString(), want.toBinString()) << what;
}

} // namespace

TEST(BitsWide, WordLevelOpsMatchBitSerialReference)
{
    std::mt19937_64 rng(31337);
    for (int i = 0; i < 400; ++i) {
        uint32_t w = 1 + static_cast<uint32_t>(rng() % 300);
        uint32_t w2 = 1 + static_cast<uint32_t>(rng() % 300);
        Bits v = randomBits(w, rng);
        Bits x = randomBits(w2, rng);
        // Indexes run up to 64 bits past the width.
        uint32_t msb = static_cast<uint32_t>(rng() % (w + 64));
        uint32_t lsb = static_cast<uint32_t>(rng() % (w + 64));
        std::string at = "w=" + std::to_string(w) + " [" +
                         std::to_string(msb) + ":" + std::to_string(lsb) +
                         "]";

        expectSame(v.slice(msb, lsb), refSlice(v, msb, lsb),
                   "slice " + at);
        Bits got = v, want = v;
        got.setSlice(msb, lsb, x);
        refSetSlice(want, msb, lsb, x);
        expectSame(got, want, "setSlice " + at);
        expectSame(v.concat(x), refConcat(v, x), "concat " + at);
        uint32_t count = 1 + static_cast<uint32_t>(rng() % 9);
        Bits rep = v;
        for (uint32_t k = 1; k < count; ++k)
            rep = refConcat(rep, v);
        expectSame(v.replicate(count), rep,
                   "replicate " + std::to_string(count) + " " + at);
        uint64_t amount = rng() % (w + 70);
        expectSame(v.shl(amount), refShift(v, amount, true),
                   "shl " + std::to_string(amount) + " " + at);
        expectSame(v.shr(amount), refShift(v, amount, false),
                   "shr " + std::to_string(amount) + " " + at);
    }
}

TEST(BitsWide, CompareAndAllOnesAcrossWords)
{
    std::mt19937_64 rng(8);
    for (int i = 0; i < 200; ++i) {
        uint32_t w = 1 + static_cast<uint32_t>(rng() % 300);
        Bits a = randomBits(w, rng);
        Bits b = randomBits(1 + static_cast<uint32_t>(rng() % 300), rng);
        int want = 0;
        for (uint32_t k = std::max(a.width(), b.width()); k-- > 0;)
            if (a.bit(k) != b.bit(k)) {
                want = a.bit(k) ? 1 : -1;
                break;
            }
        EXPECT_EQ(a.compare(b), want);
        EXPECT_EQ(a == b, want == 0);
        EXPECT_EQ(a.isAllOnes(), a.popcount() == w);
        EXPECT_TRUE(Bits::allOnes(w).isAllOnes());
        EXPECT_TRUE(a.resized(w + 5) == a);
    }
    EXPECT_THROW(Bits(4, 1).replicate(0), HdlError);
}

// Storage: values of up to 128 bits keep their words inline, wider ones
// on the heap. The inline words and the heap pointer share storage, so
// a Bits is no larger than the std::vector it replaced plus its width.
static_assert(sizeof(Bits) <= 32, "Bits grew past its 32-byte layout");

namespace
{

/** A @p width-bit value whose every word differs. */
Bits
patterned(uint32_t width, uint64_t salt)
{
    std::vector<uint64_t> words((width + 63) / 64);
    for (size_t i = 0; i < words.size(); ++i)
        words[i] = (0x9E3779B97F4A7C15ULL * (i + 1)) ^ salt;
    return Bits::fromWords(width, words.data(), words.size());
}

const uint32_t kStorageWidths[] = {64, 128, 129, 4096};

} // namespace

TEST(BitsStorage, CopyAndMoveAcrossTheInlineHeapBoundary)
{
    for (uint32_t from : kStorageWidths) {
        for (uint32_t to : kStorageWidths) {
            Bits src = patterned(from, 1);
            const std::string want = src.toHexString();

            Bits copied(src);
            EXPECT_EQ(copied, src) << from;
            EXPECT_NE(copied.rawWords(), src.rawWords()) << from;

            Bits assigned = patterned(to, 2);
            assigned = src;
            EXPECT_EQ(assigned.width(), from) << from << "<-" << to;
            EXPECT_EQ(assigned.toHexString(), want) << from << "<-" << to;

            // The copies are independent of the source.
            src.setBit(0, !src.bit(0));
            EXPECT_EQ(copied.toHexString(), want) << from;
            EXPECT_EQ(assigned.toHexString(), want) << from;

            Bits moved(std::move(copied));
            EXPECT_EQ(moved.toHexString(), want) << from;
            Bits moveAssigned = patterned(to, 3);
            moveAssigned = std::move(moved);
            EXPECT_EQ(moveAssigned.width(), from) << from << "<-" << to;
            EXPECT_EQ(moveAssigned.toHexString(), want) << from;
            // A moved-from value stays usable: assign over it.
            moved = patterned(to, 4);
            EXPECT_EQ(moved, patterned(to, 4)) << from << "<-" << to;
        }
    }
}

TEST(BitsStorage, SelfAssignmentKeepsTheValue)
{
    for (uint32_t width : kStorageWidths) {
        Bits b = patterned(width, 5);
        const std::string want = b.toHexString();
        Bits &alias = b;
        b = alias;
        EXPECT_EQ(b.toHexString(), want) << width;
        b = std::move(alias);
        EXPECT_EQ(b.width(), width);
        EXPECT_EQ(b.toHexString(), want) << width;
    }
}

TEST(BitsStorage, VectorGrowthRelocatesEveryWidth)
{
    std::vector<Bits> values;
    std::vector<std::string> want;
    for (uint64_t i = 0; i < 64; ++i) {
        uint32_t width = kStorageWidths[i % 4];
        values.push_back(patterned(width, i));
        want.push_back(values.back().toHexString());
    }
    ASSERT_GT(values.capacity(), 4u);
    for (size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(values[i].width(), kStorageWidths[i % 4]) << i;
        EXPECT_EQ(values[i].toHexString(), want[i]) << i;
    }
    // Erasing from the front shifts every element by move assignment.
    values.erase(values.begin(), values.begin() + 3);
    for (size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(values[i].toHexString(), want[i + 3]) << i;
}

TEST(BitsStorage, ResizedAcrossTheBoundaryBothWays)
{
    Bits narrow = patterned(128, 6);
    Bits wide = narrow.resized(129);
    EXPECT_EQ(wide.width(), 129u);
    EXPECT_FALSE(wide.bit(128));
    EXPECT_EQ(wide.slice(127, 0), narrow);
    Bits full = Bits::allOnes(129);
    Bits back = full.resized(128);
    EXPECT_EQ(back, Bits::allOnes(128));
    EXPECT_EQ(full.resized(4096).resized(129), full);
    EXPECT_EQ(patterned(4096, 7).resized(64), patterned(64, 7));
    EXPECT_EQ(patterned(4096, 7).resized(128), patterned(128, 7));
}
