/**
 * @file
 * Shared JSON emission helpers: the one string escaper every hwdbg
 * emitter uses, and the build-provenance stamp carried by every JSON
 * artifact (metrics, traces, fuzz reports, debug transcripts, coverage
 * files).
 *
 * Before this header existed, five emitters each carried a hand-rolled
 * escaper with subtly different escape tables; they now all call
 * jsonEscape() so transcripts and reports agree on byte-level escaping.
 */

#ifndef HWDBG_OBS_JSON_HH
#define HWDBG_OBS_JSON_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hwdbg::obs
{

/**
 * Escape @p text for embedding inside a JSON string literal: quotes
 * and backslashes are backslash-escaped, \n/\t/\r use their short
 * forms, other control bytes (< 0x20) become \u00XX, and everything
 * else (including non-ASCII UTF-8 bytes) passes through untouched.
 */
std::string jsonEscape(const std::string &text);

/** Compile-time build provenance (CMake stamps the values in). */
struct BuildInfo
{
    std::string version;   ///< hwdbg release version
    std::string git;       ///< short git hash, or "unknown"
    std::string buildType; ///< CMAKE_BUILD_TYPE, or "unknown"
};

const BuildInfo &buildInfo();

/**
 * The provenance object every JSON artifact embeds under a "build"
 * key: {"tool":"hwdbg","version":...,"git":...,"type":...}. Constant
 * within one build, so double-run byte-diff tests stay valid.
 */
std::string buildInfoJson();

/**
 * Hex text for values JSON numbers cannot carry exactly. hexU64()
 * writes "0x" and lowercase digits with no leading zeros;
 * hexWords() writes the low @p width bits of @p words (LSB word first)
 * as exactly one digit per 4 bits, at least one. Each parser accepts
 * exactly its writer's output (for parseHexWords: no bit set at or
 * above @p width) and fills @p words LSB first.
 */
std::string hexU64(uint64_t value);
std::string hexWords(const uint64_t *words, size_t count, uint32_t width);
bool parseHexU64(const std::string &text, uint64_t *out);
bool parseHexWords(const std::string &text, uint32_t width,
                   std::vector<uint64_t> *words);

} // namespace hwdbg::obs

#endif // HWDBG_OBS_JSON_HH
