#include "common/bits.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <iterator>
#include <string_view>

#include "common/logging.hh"

namespace hwdbg
{

namespace
{

/** The 64 bits of @p src (@p nw words) from bit @p pos up; bits past
 *  the last word read as zero. */
inline uint64_t
readBits64(const uint64_t *src, size_t nw, uint64_t pos)
{
    size_t w = pos / 64;
    unsigned b = pos % 64;
    uint64_t lo = w < nw ? src[w] >> b : 0;
    uint64_t hi = b && w + 1 < nw ? src[w + 1] << (64 - b) : 0;
    return lo | hi;
}

/**
 * Copy @p count bits of @p src (@p nw words) from bit @p from up into
 * @p dst from bit @p to up, one destination word at a time; bits of
 * @p dst outside the range keep their value. The one bit-range copy
 * behind slice, setSlice, concat, replicate, shl and shr.
 */
void
copyBits(uint64_t *dst, uint64_t to, const uint64_t *src, size_t nw,
         uint64_t from, uint64_t count)
{
    while (count > 0) {
        unsigned b = to % 64;
        uint64_t n = std::min<uint64_t>(count, 64 - b);
        uint64_t mask = (n == 64 ? ~uint64_t(0) : (uint64_t(1) << n) - 1)
                        << b;
        uint64_t &word = dst[to / 64];
        word = (word & ~mask) | ((readBits64(src, nw, from) << b) & mask);
        to += n;
        from += n;
        count -= n;
    }
}

} // namespace

Bits::Bits(uint32_t width, uint64_t value)
    : width_(width ? width : 1), st_{{value, 0}}
{
    if (onHeap()) {
        st_.heap = new uint64_t[numWords()]();
        st_.heap[0] = value;
    }
    normalize();
}

void
Bits::copyHeap(const Bits &other)
{
    st_.heap = new uint64_t[numWords()];
    std::copy_n(other.st_.heap, numWords(), st_.heap);
}

Bits &
Bits::operator=(const Bits &other)
{
    if (this == &other)
        return *this;
    if (!other.onHeap()) {
        if (onHeap())
            delete[] st_.heap;
        width_ = other.width_;
        st_ = other.st_;
        return *this;
    }
    // Reuse the heap words when the word count matches.
    if (!onHeap() || numWords() != other.numWords()) {
        uint64_t *fresh = new uint64_t[other.numWords()];
        if (onHeap())
            delete[] st_.heap;
        st_.heap = fresh;
    }
    width_ = other.width_;
    std::copy_n(other.st_.heap, numWords(), st_.heap);
    return *this;
}

Bits &
Bits::operator=(Bits &&other) noexcept
{
    if (this == &other)
        return *this;
    if (onHeap())
        delete[] st_.heap;
    width_ = other.width_;
    st_ = other.st_;
    if (other.onHeap())
        other.reset();
    return *this;
}

void
Bits::normalize()
{
    uint32_t top_bits = width_ % 64;
    if (top_bits != 0)
        words()[numWords() - 1] &= (~uint64_t(0)) >> (64 - top_bits);
}

Bits
Bits::allOnes(uint32_t width)
{
    Bits result(width);
    std::fill_n(result.words(), result.numWords(), ~uint64_t(0));
    result.normalize();
    return result;
}

Bits
Bits::fromWords(uint32_t width, const uint64_t *words, size_t count)
{
    Bits result(width);
    std::copy_n(words, std::min(result.numWords(), count),
                result.words());
    result.normalize();
    return result;
}

Bits
Bits::parseVerilog(const std::string &text, bool *sized)
{
    // Strip underscores.
    std::string s;
    for (char c : text)
        if (c != '_')
            s.push_back(c);

    size_t tick = s.find('\'');
    if (tick == std::string::npos) {
        // Unsized decimal literal; Verilog treats it as >= 32 bits.
        if (sized)
            *sized = false;
        uint64_t value = 0;
        for (char c : s) {
            if (!std::isdigit(static_cast<unsigned char>(c)))
                fatal("bad decimal literal '%s'", text.c_str());
            value = value * 10 + static_cast<uint64_t>(c - '0');
        }
        uint32_t width = 32;
        while (width < 64 && (value >> width) != 0)
            ++width;
        return Bits(width, value);
    }

    if (sized)
        *sized = true;
    uint32_t width = 0;
    for (size_t i = 0; i < tick; ++i) {
        char c = s[i];
        if (!std::isdigit(static_cast<unsigned char>(c)))
            fatal("bad width in literal '%s'", text.c_str());
        width = width * 10 + static_cast<uint32_t>(c - '0');
    }
    if (width == 0 || width > 65536)
        fatal("unsupported literal width in '%s'", text.c_str());
    if (tick + 1 >= s.size())
        fatal("truncated literal '%s'", text.c_str());

    char base = static_cast<char>(
        std::tolower(static_cast<unsigned char>(s[tick + 1])));
    std::string_view digits = std::string_view(s).substr(tick + 2);
    if (digits.empty())
        fatal("literal '%s' has no digits", text.c_str());

    uint32_t radix;
    const char *radix_name;
    switch (base) {
      case 'b': radix = 2; radix_name = "binary"; break;
      case 'o': radix = 8; radix_name = "octal"; break;
      case 'd': radix = 10; radix_name = "decimal"; break;
      case 'h': radix = 16; radix_name = "hex"; break;
      default:
        fatal("unknown literal base '%c' in '%s'", base, text.c_str());
    }
    // Up to 64 bits the digits accumulate in one word: truncating to
    // the width once at the end equals truncating after every digit.
    uint64_t word = 0;
    Bits result(width);
    const Bits radix_bits(width, radix);
    for (char c : digits) {
        uint32_t digit = 16;
        if (c >= '0' && c <= '9')
            digit = static_cast<uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = 10 + static_cast<uint32_t>(c - 'a');
        else if (c >= 'A' && c <= 'F')
            digit = 10 + static_cast<uint32_t>(c - 'A');
        if (digit >= radix)
            fatal("bad %s digit in '%s'", radix_name, text.c_str());
        if (width <= 64)
            word = word * radix + digit;
        else
            result = result.mul(radix_bits).add(Bits(width, digit));
    }
    if (width <= 64)
        return Bits(width, word);
    return result;
}

bool
Bits::isZero() const
{
    const uint64_t *w = words();
    return std::all_of(w, w + numWords(),
                       [](uint64_t word) { return word == 0; });
}

bool
Bits::isAllOnes() const
{
    const uint64_t *w = words();
    size_t n = numWords();
    for (size_t i = 0; i + 1 < n; ++i)
        if (w[i] != ~uint64_t(0))
            return false;
    uint32_t top_bits = width_ % 64;
    return w[n - 1] ==
           (top_bits ? (~uint64_t(0)) >> (64 - top_bits) : ~uint64_t(0));
}

bool
Bits::bit(uint32_t idx) const
{
    if (idx >= width_)
        return false;
    return (words()[idx / 64] >> (idx % 64)) & 1;
}

void
Bits::setBit(uint32_t idx, bool value)
{
    if (idx >= width_)
        return;
    uint64_t mask = uint64_t(1) << (idx % 64);
    if (value)
        words()[idx / 64] |= mask;
    else
        words()[idx / 64] &= ~mask;
}

Bits
Bits::slice(uint32_t msb, uint32_t lsb) const
{
    if (msb < lsb)
        std::swap(msb, lsb);
    uint32_t out_width = msb - lsb + 1;
    Bits result(out_width);
    if (lsb < width_)
        copyBits(result.words(), 0, words(), numWords(), lsb,
                 std::min(out_width, width_ - lsb));
    return result;
}

void
Bits::setSlice(uint32_t msb, uint32_t lsb, const Bits &value)
{
    if (msb < lsb)
        std::swap(msb, lsb);
    uint32_t span = msb - lsb + 1;
    if (lsb < width_)
        copyBits(words(), lsb, value.words(), value.numWords(), 0,
                 std::min(span, width_ - lsb));
}

Bits
Bits::resized(uint32_t new_width) const
{
    Bits result(new_width);
    std::copy_n(words(), std::min(result.numWords(), numWords()),
                result.words());
    result.normalize();
    return result;
}

Bits
Bits::concat(const Bits &low) const
{
    // The width wraps past 2^32 bits: copy only what the result holds.
    Bits result(width_ + low.width_);
    copyBits(result.words(), 0, low.words(), low.numWords(), 0,
             std::min(low.width_, result.width_));
    if (low.width_ < result.width_)
        copyBits(result.words(), low.width_, words(), numWords(), 0,
                 result.width_ - low.width_);
    return result;
}

Bits
Bits::replicate(uint32_t count) const
{
    if (count == 0)
        fatal("replication count must be positive");
    Bits result(width_ * count);
    uint64_t total = result.width_;
    uint64_t filled = std::min<uint64_t>(width_, total);
    copyBits(result.words(), 0, words(), numWords(), 0, filled);
    // Double the filled prefix: it is made of whole copies.
    while (filled < total) {
        uint64_t n = std::min(filled, total - filled);
        copyBits(result.words(), filled, result.words(),
                 result.numWords(), 0, n);
        filled += n;
    }
    return result;
}

Bits
Bits::add(const Bits &rhs) const
{
    uint32_t out_width = std::max(width_, rhs.width_);
    Bits a = resized(out_width);
    Bits b = rhs.resized(out_width);
    uint64_t *aw = a.words();
    const uint64_t *bw = b.words();
    unsigned __int128 carry = 0;
    for (size_t i = 0; i < a.numWords(); ++i) {
        unsigned __int128 sum = carry;
        sum += aw[i];
        sum += bw[i];
        aw[i] = static_cast<uint64_t>(sum);
        carry = sum >> 64;
    }
    a.normalize();
    return a;
}

Bits
Bits::sub(const Bits &rhs) const
{
    uint32_t out_width = std::max(width_, rhs.width_);
    return resized(out_width).add(rhs.resized(out_width).negate());
}

Bits
Bits::negate() const
{
    return bitNot().add(Bits(width_, 1));
}

Bits
Bits::mul(const Bits &rhs) const
{
    uint32_t out_width = std::max(width_, rhs.width_);
    Bits a = resized(out_width);
    Bits b = rhs.resized(out_width);
    Bits result(out_width);
    const uint64_t *aw = a.words(), *bw = b.words();
    uint64_t *rw = result.words();
    size_t nwords = result.numWords();
    for (size_t i = 0; i < nwords; ++i) {
        if (aw[i] == 0)
            continue;
        unsigned __int128 carry = 0;
        for (size_t j = 0; i + j < nwords; ++j) {
            unsigned __int128 cur = rw[i + j];
            cur += static_cast<unsigned __int128>(aw[i]) * bw[j];
            cur += carry;
            rw[i + j] = static_cast<uint64_t>(cur);
            carry = cur >> 64;
        }
    }
    result.normalize();
    return result;
}

Bits
Bits::divu(const Bits &rhs) const
{
    Bits result(std::max(width_, rhs.width_));
    if (!divModWords(words(), numWords(), rhs.words(), rhs.numWords(),
                     result.words(), result.numWords(), nullptr, 0))
        return allOnes(result.width_);
    return result;
}

Bits
Bits::modu(const Bits &rhs) const
{
    Bits result(std::max(width_, rhs.width_));
    if (!divModWords(words(), numWords(), rhs.words(), rhs.numWords(),
                     nullptr, 0, result.words(), result.numWords()))
        return allOnes(result.width_);
    return result;
}

Bits
Bits::bitAnd(const Bits &rhs) const
{
    uint32_t out_width = std::max(width_, rhs.width_);
    Bits a = resized(out_width);
    Bits b = rhs.resized(out_width);
    uint64_t *aw = a.words();
    const uint64_t *bw = b.words();
    for (size_t i = 0; i < a.numWords(); ++i)
        aw[i] &= bw[i];
    return a;
}

Bits
Bits::bitOr(const Bits &rhs) const
{
    uint32_t out_width = std::max(width_, rhs.width_);
    Bits a = resized(out_width);
    Bits b = rhs.resized(out_width);
    uint64_t *aw = a.words();
    const uint64_t *bw = b.words();
    for (size_t i = 0; i < a.numWords(); ++i)
        aw[i] |= bw[i];
    return a;
}

Bits
Bits::bitXor(const Bits &rhs) const
{
    uint32_t out_width = std::max(width_, rhs.width_);
    Bits a = resized(out_width);
    Bits b = rhs.resized(out_width);
    uint64_t *aw = a.words();
    const uint64_t *bw = b.words();
    for (size_t i = 0; i < a.numWords(); ++i)
        aw[i] ^= bw[i];
    return a;
}

Bits
Bits::bitNot() const
{
    Bits result = *this;
    uint64_t *w = result.words();
    for (size_t i = 0; i < result.numWords(); ++i)
        w[i] = ~w[i];
    result.normalize();
    return result;
}

Bits
Bits::shl(uint64_t amount) const
{
    Bits result(width_);
    if (amount < width_)
        copyBits(result.words(), amount, words(), numWords(), 0,
                 width_ - amount);
    return result;
}

Bits
Bits::shr(uint64_t amount) const
{
    Bits result(width_);
    if (amount < width_)
        copyBits(result.words(), 0, words(), numWords(), amount,
                 width_ - amount);
    return result;
}

bool
Bits::redXor() const
{
    return (popcount() & 1) != 0;
}

uint32_t
Bits::popcount() const
{
    uint32_t count = 0;
    const uint64_t *w = words();
    for (size_t i = 0; i < numWords(); ++i)
        count += static_cast<uint32_t>(__builtin_popcountll(w[i]));
    return count;
}

int
Bits::compare(const Bits &rhs) const
{
    const uint64_t *aw = words(), *bw = rhs.words();
    size_t na = numWords(), nb = rhs.numWords();
    for (size_t i = std::max(na, nb); i-- > 0;) {
        uint64_t a = i < na ? aw[i] : 0;
        uint64_t b = i < nb ? bw[i] : 0;
        if (a != b)
            return a < b ? -1 : 1;
    }
    return 0;
}

bool
Bits::operator==(const Bits &rhs) const
{
    return compare(rhs) == 0;
}

std::string
Bits::toHexString() const
{
    std::string out;
    appendHex(out);
    return out;
}

void
Bits::appendHex(std::string &out) const
{
    static const char digits[] = "0123456789abcdef";
    uint32_t nibbles = (width_ + 3) / 4;
    size_t at = out.size();
    out.resize(at + nibbles);
    char *dst = out.data() + at;
    if (width_ <= 64) {
        uint64_t value = toU64();
        for (uint32_t i = nibbles; i-- > 0; value >>= 4)
            dst[i] = digits[value & 0xf];
        return;
    }
    for (uint32_t i = 0; i < nibbles; ++i)
        dst[nibbles - 1 - i] =
            digits[readBits64(words(), numWords(), i * 4) & 0xf];
}

std::string
Bits::toBinString() const
{
    std::string out;
    out.reserve(width_);
    for (uint32_t i = width_; i-- > 0;)
        out.push_back(bit(i) ? '1' : '0');
    return out;
}

std::string
Bits::toDecString() const
{
    std::string out;
    appendDec(out);
    return out;
}

void
Bits::appendDec(std::string &out) const
{
    char buf[20];
    if (width_ <= 64) {
        out.append(buf, std::to_chars(buf, buf + sizeof buf, toU64()).ptr);
        return;
    }
    // Peel off 19 decimal digits per division, least significant first.
    const uint64_t ten19 = 10000000000000000000ull;
    std::vector<uint64_t> value(words(), words() + numWords());
    std::vector<uint64_t> chunks;
    size_t n = value.size();
    for (;;) {
        while (n > 0 && value[n - 1] == 0)
            --n;
        if (n == 0)
            break;
        uint64_t chunk = 0;
        divModWords(value.data(), n, &ten19, 1, value.data(), n, &chunk,
                    1);
        chunks.push_back(chunk);
    }
    if (chunks.empty()) {
        out += '0';
        return;
    }
    out.append(buf, std::to_chars(buf, buf + sizeof buf, chunks.back()).ptr);
    for (size_t i = chunks.size() - 1; i-- > 0;) {
        char *end = std::to_chars(buf, buf + sizeof buf, chunks[i]).ptr;
        out.append(19 - static_cast<size_t>(end - buf), '0');
        out.append(buf, end);
    }
}

std::string
Bits::toVerilog() const
{
    std::string out;
    appendVerilog(out);
    return out;
}

void
Bits::appendVerilog(std::string &out) const
{
    char buf[10];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, width_).ptr);
    out += "'h";
    appendHex(out);
}

bool
divModWords(const uint64_t *a, size_t na, const uint64_t *b, size_t nb,
            uint64_t *q, size_t nq, uint64_t *r, size_t nr)
{
    using u128 = unsigned __int128;
    size_t m = na, n = nb;
    while (m > 0 && a[m - 1] == 0)
        --m;
    while (n > 0 && b[n - 1] == 0)
        --n;
    if (n == 0)
        return false;

    auto put = [](uint64_t *dst, size_t nd, const uint64_t *src,
                  size_t ns) {
        for (size_t i = 0; i < nd; ++i)
            dst[i] = i < ns ? src[i] : 0;
    };
    if (m < n) {
        // a < b: quotient 0, remainder a. Write r first: q may alias a.
        if (r)
            put(r, nr, a, m);
        if (q)
            put(q, nq, nullptr, 0);
        return true;
    }

    // Working words: quotient (m - n + 1), normalized dividend (m + 1)
    // and normalized divisor (n), on the stack when they fit.
    uint64_t local[64] = {};
    std::vector<uint64_t> heap;
    size_t need = (m - n + 1) + (m + 1) + n;
    uint64_t *qs = local;
    if (need > std::size(local)) {
        heap.resize(need);
        qs = heap.data();
    }
    uint64_t *un = qs + (m - n + 1);
    uint64_t *vn = un + (m + 1);

    if (n == 1) {
        u128 rem = 0;
        for (size_t i = m; i-- > 0;) {
            u128 cur = (rem << 64) | a[i];
            qs[i] = static_cast<uint64_t>(cur / b[0]);
            rem = cur - u128(qs[i]) * b[0];
        }
        un[0] = static_cast<uint64_t>(rem);
    } else {
        // D1: normalize so the divisor's top bit is set.
        int s = __builtin_clzll(b[n - 1]);
        auto shifted = [s](const uint64_t *src, size_t i) {
            return s ? (src[i] << s) | (src[i - 1] >> (64 - s)) : src[i];
        };
        for (size_t i = n - 1; i > 0; --i)
            vn[i] = shifted(b, i);
        vn[0] = b[0] << s;
        un[m] = s ? a[m - 1] >> (64 - s) : 0;
        for (size_t i = m - 1; i > 0; --i)
            un[i] = shifted(a, i);
        un[0] = a[0] << s;

        for (size_t j = m - n + 1; j-- > 0;) {
            // D3: estimate qhat from the top two words, then correct it
            // with the divisor's second word so it is at most one high.
            u128 num = (u128(un[j + n]) << 64) | un[j + n - 1];
            u128 qhat = num / vn[n - 1];
            u128 rhat = num - qhat * vn[n - 1];
            while ((qhat >> 64) != 0 ||
                   qhat * vn[n - 2] > ((rhat << 64) | un[j + n - 2])) {
                --qhat;
                rhat += vn[n - 1];
                if ((rhat >> 64) != 0)
                    break;
            }
            // D4: multiply and subtract.
            uint64_t borrow = 0, carry = 0;
            for (size_t i = 0; i < n; ++i) {
                u128 p = qhat * vn[i] + carry;
                carry = static_cast<uint64_t>(p >> 64);
                uint64_t lo = static_cast<uint64_t>(p);
                uint64_t t = un[i + j] - lo;
                uint64_t b1 = un[i + j] < lo;
                un[i + j] = t - borrow;
                borrow = b1 | (t < borrow);
            }
            uint64_t t = un[j + n] - carry;
            uint64_t b1 = un[j + n] < carry;
            un[j + n] = t - borrow;
            bool negative = b1 | (t < borrow);
            // D5/D6: qhat was one too large; add the divisor back.
            if (negative) {
                --qhat;
                u128 sum = 0;
                for (size_t i = 0; i < n; ++i) {
                    sum += u128(un[i + j]) + vn[i];
                    un[i + j] = static_cast<uint64_t>(sum);
                    sum >>= 64;
                }
                un[j + n] += static_cast<uint64_t>(sum);
            }
            qs[j] = static_cast<uint64_t>(qhat);
        }
        // D8: unnormalize the remainder in place.
        for (size_t i = 0; i < n; ++i)
            un[i] = s ? (un[i] >> s) | (un[i + 1] << (64 - s)) : un[i];
    }
    if (q)
        put(q, nq, qs, m - n + 1);
    if (r)
        put(r, nr, un, n);
    return true;
}

} // namespace hwdbg
