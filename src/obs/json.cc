#include "obs/json.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>

#ifndef HWDBG_VERSION
#define HWDBG_VERSION "unknown"
#endif
#ifndef HWDBG_GIT_HASH
#define HWDBG_GIT_HASH "unknown"
#endif
#ifndef HWDBG_BUILD_TYPE
#define HWDBG_BUILD_TYPE "unknown"
#endif

namespace hwdbg::obs
{

namespace
{

/**
 * Length of the well-formed UTF-8 sequence starting at @p at (a byte
 * >= 0x80), or 0 when that byte does not start one (RFC 3629: no
 * overlong forms, no surrogates, nothing above U+10FFFF).
 */
size_t
utf8Length(std::string_view text, size_t at)
{
    auto byte = [&](size_t i) {
        return i < text.size() ? static_cast<unsigned char>(text[i]) : 0u;
    };
    unsigned lead = byte(at);
    size_t len = 0;
    unsigned lo = 0x80, hi = 0xbf; // range of the second byte
    if (lead >= 0xc2 && lead <= 0xdf) {
        len = 2;
    } else if (lead >= 0xe0 && lead <= 0xef) {
        len = 3;
        lo = lead == 0xe0 ? 0xa0 : 0x80;
        hi = lead == 0xed ? 0x9f : 0xbf;
    } else if (lead >= 0xf0 && lead <= 0xf4) {
        len = 4;
        lo = lead == 0xf0 ? 0x90 : 0x80;
        hi = lead == 0xf4 ? 0x8f : 0xbf;
    } else {
        return 0;
    }
    if (byte(at + 1) < lo || byte(at + 1) > hi)
        return 0;
    for (size_t i = 2; i < len; ++i)
        if (byte(at + i) < 0x80 || byte(at + i) > 0xbf)
            return 0;
    return len;
}

void
appendEscaped(std::string &out, std::string_view text)
{
    size_t run = 0; // start of the pending pass-through run
    for (size_t i = 0; i < text.size();) {
        auto c = static_cast<unsigned char>(text[i]);
        if (c >= 0x20 && c != '"' && c != '\\' && c < 0x80) {
            ++i;
            continue;
        }
        if (c >= 0x80) {
            if (size_t len = utf8Length(text, i)) {
                i += len;
                continue;
            }
        }
        out.append(text.data() + run, i - run);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          }
        }
        run = ++i;
    }
    out.append(text.data() + run, text.size() - run);
}

void
appendHexU64(std::string &out, uint64_t value)
{
    char buf[24];
    char *end = std::to_chars(buf, buf + sizeof buf, value, 16).ptr;
    out += "0x";
    out.append(buf, end);
}

} // namespace

void
JsonWriter::lineBreak()
{
    out_ += '\n';
    out_.append(static_cast<size_t>(pending_), ' ');
    pending_ = -1;
}

void
JsonWriter::item()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (!first_)
        out_ += ',';
    if (pending_ >= 0)
        lineBreak();
    else if (!first_ && spaced_)
        out_ += ' ';
    first_ = false;
}

JsonWriter &
JsonWriter::open(char bracket)
{
    item();
    out_ += bracket;
    outer_.push_back(first_);
    first_ = true;
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    if (pending_ >= 0)
        lineBreak();
    out_ += bracket;
    first_ = outer_.back();
    outer_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginObject()
{
    return open('{');
}

JsonWriter &
JsonWriter::endObject()
{
    return close('}');
}

JsonWriter &
JsonWriter::beginArray()
{
    return open('[');
}

JsonWriter &
JsonWriter::endArray()
{
    return close(']');
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    item();
    out_ += '"';
    appendEscaped(out_, name);
    out_ += spaced_ ? "\": " : "\":";
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view text)
{
    item();
    out_ += '"';
    appendEscaped(out_, text);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(bool flag)
{
    item();
    out_ += flag ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::integer(uint64_t magnitude, bool negative)
{
    item();
    char buf[24];
    char *end = std::to_chars(buf, buf + sizeof buf, magnitude).ptr;
    if (negative)
        out_ += '-';
    out_.append(buf, end);
    return *this;
}

JsonWriter &
JsonWriter::value(const BuildInfo &info)
{
    return beginObject()
        .member("tool", "hwdbg")
        .member("version", info.version)
        .member("git", info.git)
        .member("type", info.buildType)
        .endObject();
}

JsonWriter &
JsonWriter::null()
{
    item();
    out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::fixed(double number, int decimals)
{
    item();
    char buf[64];
    int len = std::snprintf(buf, sizeof buf, "%.*f", decimals, number);
    out_.append(buf, static_cast<size_t>(std::clamp(len, 0, 63)));
    return *this;
}

JsonWriter &
JsonWriter::hexU64(uint64_t number)
{
    item();
    out_ += '"';
    appendHexU64(out_, number);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::hexWords(const uint64_t *words, size_t count, uint32_t width)
{
    item();
    uint32_t nibbles = std::max<uint32_t>(1, (width + 3) / 4);
    out_ += "\"0x";
    for (uint32_t n = nibbles; n-- > 0;) {
        uint32_t bit = n * 4;
        uint64_t word = bit / 64 < count ? words[bit / 64] : 0;
        out_ += "0123456789abcdef"[(word >> (bit % 64)) & 0xf];
    }
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view json)
{
    item();
    out_ += json;
    return *this;
}

JsonWriter &
JsonWriter::newline(int indent)
{
    if (pending_ >= 0)
        lineBreak();
    pending_ = indent;
    return *this;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 8);
    appendEscaped(out, text);
    return out;
}

std::string
hexU64(uint64_t value)
{
    std::string out;
    appendHexU64(out, value);
    return out;
}

const BuildInfo &
buildInfo()
{
    static const BuildInfo info{HWDBG_VERSION, HWDBG_GIT_HASH,
                                HWDBG_BUILD_TYPE};
    return info;
}

const std::string &
buildInfoJson()
{
    static const std::string stamp = [] {
        std::string out;
        JsonWriter(out, JsonWriter::Style::Compact).value(buildInfo());
        return out;
    }();
    return stamp;
}

namespace
{

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1;
}

} // namespace

bool
parseHexU64(const std::string &text, uint64_t *out)
{
    if (text.size() < 3 || text.size() > 18 || text.compare(0, 2, "0x"))
        return false;
    uint64_t value = 0;
    for (size_t i = 2; i < text.size(); ++i) {
        int nib = hexDigit(text[i]);
        if (nib < 0)
            return false;
        value = (value << 4) | uint64_t(nib);
    }
    *out = value;
    return true;
}

bool
parseHexWords(const std::string &text, uint32_t width,
              std::vector<uint64_t> *words)
{
    uint32_t nibbles = std::max<uint32_t>(1, (width + 3) / 4);
    if (text.size() != 2 + nibbles || text.compare(0, 2, "0x"))
        return false;
    words->assign(std::max<uint32_t>(1, (width + 63) / 64), 0);
    for (uint32_t n = 0; n < nibbles; ++n) {
        int nib = hexDigit(text[2 + (nibbles - 1 - n)]);
        uint32_t bit = n * 4;
        // Of bits [bit, bit + 4) only those below width may be set.
        uint32_t usable = width > bit ? width - bit : 0;
        if (nib < 0 || (usable < 4 && (nib >> usable) != 0))
            return false;
        (*words)[bit / 64] |= uint64_t(nib) << (bit % 64);
    }
    return true;
}

} // namespace hwdbg::obs
