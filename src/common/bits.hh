/**
 * @file
 * Arbitrary-width two-state bit vector used throughout hwdbg.
 *
 * A Bits value models a Verilog vector of a fixed width (>= 1). Values are
 * stored little-endian in 64-bit words and are always kept canonical: bits
 * above the declared width are zero. All arithmetic is unsigned and modulo
 * 2^width, matching two-state Verilog semantics for unsigned vectors.
 *
 * Values of up to 128 bits keep their words inline; wider values own a
 * heap array. The width alone says which, so the inline words and the
 * heap pointer share storage.
 */

#ifndef HWDBG_COMMON_BITS_HH
#define HWDBG_COMMON_BITS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hwdbg
{

class Bits
{
  public:
    /** Construct a 1-bit zero. */
    Bits() : width_(1), st_{{0, 0}} {}

    /** Construct a vector of @p width bits holding @p value (truncated). */
    explicit Bits(uint32_t width, uint64_t value = 0);

    Bits(const Bits &other) : width_(other.width_), st_(other.st_)
    {
        if (onHeap())
            copyHeap(other);
    }

    /** Leaves @p other a valid 1-bit zero when it owned heap words. */
    Bits(Bits &&other) noexcept : width_(other.width_), st_(other.st_)
    {
        if (other.onHeap())
            other.reset();
    }

    Bits &operator=(const Bits &other);
    Bits &operator=(Bits &&other) noexcept;

    ~Bits()
    {
        if (onHeap())
            delete[] st_.heap;
    }

    /** Parse a Verilog-style literal body, e.g. "8'hff", "12", "4'b1010".
     *  @param sized set to true when the literal carried an explicit width.
     */
    static Bits parseVerilog(const std::string &text, bool *sized = nullptr);

    /** A vector of @p width bits, all ones. */
    static Bits allOnes(uint32_t width);

    /**
     * Build from raw little-endian words: the first wordsFor(width)
     * entries of @p words are copied (missing words read as zero) and
     * the result is canonicalized. The bulk-transfer path between the
     * compiled backend's value slab and Bits.
     */
    static Bits fromWords(uint32_t width, const uint64_t *words,
                          size_t count);

    uint32_t width() const { return width_; }

    /** Little-endian word storage (numWords() entries, canonical). */
    const uint64_t *rawWords() const { return words(); }
    /** Number of 64-bit words backing this value. */
    size_t numWords() const { return wordsFor(width_); }

    /** Low 64 bits of the value. */
    uint64_t toU64() const { return words()[0]; }

    bool isZero() const;
    bool isAllOnes() const;

    /** Read a single bit; out-of-range reads return 0 (Verilog 2-state). */
    bool bit(uint32_t idx) const;

    /** Write a single bit; out-of-range writes are ignored. */
    void setBit(uint32_t idx, bool value);

    /** Extract bits [msb:lsb] (inclusive); out-of-range bits read as 0. */
    Bits slice(uint32_t msb, uint32_t lsb) const;

    /** Assign @p value into bits [msb:lsb]; out-of-range bits dropped. */
    void setSlice(uint32_t msb, uint32_t lsb, const Bits &value);

    /** Zero-extend or truncate to @p new_width. */
    Bits resized(uint32_t new_width) const;

    /** {this, rhs} concatenation: this becomes the high part. */
    Bits concat(const Bits &low) const;

    /** {count{this}} replication. */
    Bits replicate(uint32_t count) const;

    Bits add(const Bits &rhs) const;
    Bits sub(const Bits &rhs) const;
    Bits mul(const Bits &rhs) const;
    /** Unsigned division; division by zero yields all-ones (like x). */
    Bits divu(const Bits &rhs) const;
    /** Unsigned remainder; modulo zero yields all-ones (like x). */
    Bits modu(const Bits &rhs) const;

    Bits bitAnd(const Bits &rhs) const;
    Bits bitOr(const Bits &rhs) const;
    Bits bitXor(const Bits &rhs) const;
    Bits bitNot() const;

    /** Two's-complement negation at this width. */
    Bits negate() const;

    Bits shl(uint64_t amount) const;
    Bits shr(uint64_t amount) const;

    bool redAnd() const { return isAllOnes(); }
    bool redOr() const { return !isZero(); }
    bool redXor() const;

    /** Unsigned comparison: -1, 0, or 1. */
    int compare(const Bits &rhs) const;

    bool operator==(const Bits &rhs) const;
    bool operator!=(const Bits &rhs) const { return !(*this == rhs); }

    /** Count of set bits. */
    uint32_t popcount() const;

    std::string toHexString() const;
    std::string toBinString() const;
    std::string toDecString() const;

    /** Verilog literal form, e.g. 8'hff. */
    std::string toVerilog() const;

    /** Append toDecString() or toVerilog() to @p out. */
    void appendDec(std::string &out) const;
    void appendVerilog(std::string &out) const;

  private:
    /** Append toHexString() to @p out. */
    void appendHex(std::string &out) const;

    /** Widths above this keep their words on the heap. */
    static constexpr uint32_t kInlineBits = 128;

    void normalize();
    static uint32_t wordsFor(uint32_t width) { return (width + 63) / 64; }

    bool onHeap() const { return width_ > kInlineBits; }
    uint64_t *words() { return onHeap() ? st_.heap : st_.inl; }
    const uint64_t *words() const
    {
        return onHeap() ? st_.heap : st_.inl;
    }
    /** Point at a fresh copy of @p other's heap words (same width). */
    void copyHeap(const Bits &other);
    /** Become a 1-bit zero without freeing (the words moved away). */
    void reset()
    {
        width_ = 1;
        st_.inl[0] = 0;
    }

    uint32_t width_;
    union Storage
    {
        uint64_t inl[kInlineBits / 64];
        uint64_t *heap;
    } st_;
};

/**
 * Unsigned multi-word division: the one kernel behind Bits::divu,
 * Bits::modu, Bits::toDecString and the bytecode Divu/Modu ops.
 *
 * @p a (@p na words) and @p b (@p nb words) are little-endian. The
 * quotient goes to @p q (@p nq words) and the remainder to @p r (@p nr
 * words), each zero-extended or truncated to fit; either output may be
 * null, and either may alias an input. Knuth's Algorithm D (TAOCP
 * 4.3.1) with leading zero words trimmed and a single-word-divisor
 * fast path. Returns false, writing nothing, when @p b is zero.
 */
bool divModWords(const uint64_t *a, size_t na, const uint64_t *b,
                 size_t nb, uint64_t *q, size_t nq, uint64_t *r,
                 size_t nr);

} // namespace hwdbg

#endif // HWDBG_COMMON_BITS_HH
