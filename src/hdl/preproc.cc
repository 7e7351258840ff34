#include "hdl/preproc.hh"

#include <cctype>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/logging.hh"

namespace hwdbg::hdl
{

namespace
{

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '$';
}

/** The identifier starting at @p pos; advances @p pos past it. */
std::string_view
readIdent(std::string_view line, size_t &pos)
{
    size_t start = pos;
    while (pos < line.size() && isIdentChar(line[pos]))
        ++pos;
    return line.substr(start, pos - start);
}

bool
isBlank(char c)
{
    return c == ' ' || c == '\t' || c == '\r';
}

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && isBlank(s.front()))
        s.remove_prefix(1);
    while (!s.empty() && isBlank(s.back()))
        s.remove_suffix(1);
    return s;
}

} // namespace

std::string
preprocess(const std::string &source,
           const std::map<std::string, std::string> &defines,
           const std::string &file)
{
    std::map<std::string, std::string, std::less<>> macros(defines.begin(),
                                                           defines.end());

    // Condition stack: each entry is (currently-active, any-branch-taken).
    std::vector<std::pair<bool, bool>> stack;
    auto active = [&] {
        for (const auto &[on, taken] : stack)
            if (!on)
                return false;
        return true;
    };

    std::string out;
    out.reserve(source.size());
    std::string_view text(source);
    int line_no = 0;

    // One line per pass, without its '\n'; the output keeps every line
    // break, so suppressed and directive lines come out empty.
    for (size_t begin = 0; begin < text.size();) {
        const char *nl = static_cast<const char *>(
            std::memchr(text.data() + begin, '\n', text.size() - begin));
        size_t end = nl ? static_cast<size_t>(nl - text.data())
                        : text.size();
        std::string_view line = text.substr(begin, end - begin);
        begin = end + 1;
        ++line_no;
        if (line_no > 1)
            out.push_back('\n');

        size_t first = 0;
        while (first < line.size() && isBlank(line[first]))
            ++first;
        if (first < line.size() && line[first] == '`') {
            std::string_view stripped = trim(line);
            size_t pos = 1;
            std::string_view directive = readIdent(stripped, pos);
            std::string_view rest = trim(stripped.substr(pos));

            if (directive == "define") {
                if (active()) {
                    size_t rpos = 0;
                    while (rpos < rest.size() && !isIdentChar(rest[rpos]))
                        ++rpos;
                    std::string_view name = readIdent(rest, rpos);
                    if (name.empty())
                        fatal("%s:%d: `define without a name",
                              file.c_str(), line_no);
                    macros[std::string(name)] = trim(rest.substr(rpos));
                }
                continue;
            }
            if (directive == "undef") {
                if (active()) {
                    auto it = macros.find(rest);
                    if (it != macros.end())
                        macros.erase(it);
                }
                continue;
            }
            if (directive == "ifdef" || directive == "ifndef") {
                bool defined = macros.find(rest) != macros.end();
                bool on = directive == "ifdef" ? defined : !defined;
                stack.emplace_back(on, on);
                continue;
            }
            if (directive == "else") {
                if (stack.empty())
                    fatal("%s:%d: `else without `ifdef",
                          file.c_str(), line_no);
                auto &[on, taken] = stack.back();
                on = !taken;
                taken = true;
                continue;
            }
            if (directive == "endif") {
                if (stack.empty())
                    fatal("%s:%d: `endif without `ifdef",
                          file.c_str(), line_no);
                stack.pop_back();
                continue;
            }
            if (directive == "timescale" || directive == "default_nettype")
                continue;
            // Fall through: a line starting with a macro use.
        }

        if (!active())
            continue;

        if (line.find('`') == std::string_view::npos) {
            out.append(line);
            continue;
        }
        // Substitute `NAME macro uses (not inside string literals).
        bool in_string = false;
        for (size_t i = 0; i < line.size(); ++i) {
            char c = line[i];
            if (c == '"' && (i == 0 || line[i - 1] != '\\'))
                in_string = !in_string;
            if (c == '`' && !in_string) {
                size_t pos = i + 1;
                std::string_view name = readIdent(line, pos);
                auto it = macros.find(name);
                if (it == macros.end())
                    fatal("%s:%d: undefined macro `%s", file.c_str(),
                          line_no, std::string(name).c_str());
                out += it->second;
                i = pos - 1;
                continue;
            }
            out.push_back(c);
        }
    }

    if (!stack.empty())
        fatal("%s: unterminated `ifdef", file.c_str());
    if (!source.empty() && source.back() == '\n')
        out.push_back('\n');
    return out;
}

} // namespace hwdbg::hdl
