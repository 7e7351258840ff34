#include "obs/json.hh"

#include <algorithm>
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

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 8);
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

const BuildInfo &
buildInfo()
{
    static const BuildInfo info{HWDBG_VERSION, HWDBG_GIT_HASH,
                                HWDBG_BUILD_TYPE};
    return info;
}

std::string
buildInfoJson()
{
    const BuildInfo &info = buildInfo();
    return "{\"tool\":\"hwdbg\",\"version\":\"" +
           jsonEscape(info.version) + "\",\"git\":\"" +
           jsonEscape(info.git) + "\",\"type\":\"" +
           jsonEscape(info.buildType) + "\"}";
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

std::string
hexU64(uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
hexWords(const uint64_t *words, size_t count, uint32_t width)
{
    uint32_t nibbles = std::max<uint32_t>(1, (width + 3) / 4);
    std::string out = "0x";
    out.reserve(2 + nibbles);
    for (uint32_t n = nibbles; n-- > 0;) {
        uint32_t bit = n * 4;
        uint64_t word = bit / 64 < count ? words[bit / 64] : 0;
        out.push_back("0123456789abcdef"[(word >> (bit % 64)) & 0xf]);
    }
    return out;
}

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
