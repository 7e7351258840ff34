/**
 * @file
 * The one JSON writer behind every hwdbg artifact and protocol line
 * (metrics, traces, fuzz and profile reports, coverage and analyze
 * documents, debug and serve transcripts), and the build-provenance
 * stamp they all carry.
 *
 * JsonWriter appends to a caller's std::string and owns the commas,
 * the brackets and the string escaping, so byte-level layout is
 * decided in one place. Layout has exactly two parts: a separator
 * style fixed per writer, and newline(indent) breaks.
 */

#ifndef HWDBG_OBS_JSON_HH
#define HWDBG_OBS_JSON_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hwdbg::obs
{

/** Compile-time build provenance (CMake stamps the values in). */
struct BuildInfo
{
    std::string version;   ///< hwdbg release version
    std::string git;       ///< short git hash, or "unknown"
    std::string buildType; ///< CMAKE_BUILD_TYPE, or "unknown"
};

const BuildInfo &buildInfo();

class JsonWriter
{
  public:
    /**
     * Compact writes `"k":v` and `,` (the debug/serve JSON-lines
     * protocol); Spaced writes `"k": v` and `, ` (documents).
     */
    enum class Style { Compact, Spaced };

    JsonWriter(std::string &out, Style style)
        : out_(out), spaced_(style == Style::Spaced)
    {
    }

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    /** An object member's key; the next call writes its value. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view text);
    JsonWriter &value(const std::string &text)
    {
        return value(std::string_view(text));
    }
    JsonWriter &value(const char *text)
    {
        return value(std::string_view(text));
    }
    JsonWriter &value(bool flag);
    template <typename T,
              std::enable_if_t<std::is_integral_v<T>, int> = 0>
    JsonWriter &
    value(T number)
    {
        auto magnitude = static_cast<uint64_t>(number);
        if constexpr (std::is_signed_v<T>)
            if (number < 0)
                return integer(0 - magnitude, true);
        return integer(magnitude, false);
    }
    /** The {"tool","version","git","type"} provenance object. */
    JsonWriter &value(const BuildInfo &info);
    JsonWriter &null();
    /** @p number with exactly @p decimals fractional digits. */
    JsonWriter &fixed(double number, int decimals);
    /** "0x" and lowercase digits with no leading zeros, quoted. */
    JsonWriter &hexU64(uint64_t number);
    /**
     * The low @p width bits of @p words (LSB word first) as exactly
     * one digit per 4 bits, at least one, quoted with a "0x" prefix.
     */
    JsonWriter &hexWords(const uint64_t *words, size_t count,
                         uint32_t width);
    /** Pre-rendered JSON, written as one value. */
    JsonWriter &raw(std::string_view json);

    /**
     * Break the line before the next member, element or closing
     * bracket, and indent it by @p indent spaces. The break replaces
     * the style's separator space. A second break before that item is
     * written writes the first at once (an empty line).
     */
    JsonWriter &newline(int indent);

    template <typename T>
    JsonWriter &
    member(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

  private:
    /** Separator, line break and bookkeeping before any item. */
    void item();
    void lineBreak();
    JsonWriter &integer(uint64_t magnitude, bool negative);
    JsonWriter &open(char bracket);
    JsonWriter &close(char bracket);

    std::string &out_;
    bool spaced_;
    /** Nothing written yet in the innermost open container. */
    bool first_ = true;
    /** A key was written; its value takes no separator. */
    bool afterKey_ = false;
    /** Indent of the pending line break; -1 when none. */
    int pending_ = -1;
    /** first_ of each enclosing container. */
    std::vector<bool> outer_;
};

/**
 * Escape @p text for embedding inside a JSON string literal: quotes
 * and backslashes are backslash-escaped, \n/\t/\r use their short
 * forms, other control bytes (< 0x20) become \u00XX, well-formed
 * UTF-8 passes through untouched, and each byte that does not start a
 * well-formed UTF-8 sequence becomes \u00XX, so the output is always
 * valid UTF-8. JsonWriter escapes with the same routine.
 */
std::string jsonEscape(const std::string &text);

/**
 * The compact build stamp: {"tool":"hwdbg","version":...,"git":...,
 * "type":...}. Constant within one build, so double-run byte-diff
 * tests stay valid.
 */
const std::string &buildInfoJson();

/** JsonWriter::hexU64's text, unquoted, for text reports. */
std::string hexU64(uint64_t value);

/**
 * Parsers of JsonWriter::hexU64 and hexWords text (unquoted). Each
 * accepts exactly its writer's output (for parseHexWords: no bit set
 * at or above @p width) and fills @p words LSB first.
 */
bool parseHexU64(const std::string &text, uint64_t *out);
bool parseHexWords(const std::string &text, uint32_t width,
                   std::vector<uint64_t> *words);

} // namespace hwdbg::obs

#endif // HWDBG_OBS_JSON_HH
