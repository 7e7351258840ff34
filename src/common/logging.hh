/**
 * @file
 * Status/error reporting helpers in the gem5 spirit.
 *
 * panic()  -- an internal invariant of hwdbg itself was violated.
 * fatal()  -- the user's input (HDL source, tool configuration, workload)
 *             cannot be processed; raised as HdlError so library users can
 *             catch and report it.
 * warn()/inform() -- advisory messages on stderr.
 */

#ifndef HWDBG_COMMON_LOGGING_HH
#define HWDBG_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace hwdbg
{

/** printf-style formatting into a std::string. */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf-style formatting into a std::string. */
std::string vcsprintf(const char *fmt, va_list args);

/**
 * Error raised for any condition caused by the tool user: malformed HDL,
 * unknown signal names, bad tool configuration, and the like.
 */
class HdlError : public std::runtime_error
{
  public:
    explicit HdlError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Raise an HdlError; never returns. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Abort with a message; used for internal hwdbg bugs. Never returns. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr (prefixed "warn: "). */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message to stderr (prefixed "info: "). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Globally silence warn()/inform() (used by benchmarks). */
void setQuiet(bool quiet);

/** Severity class of a message routed through the log sink. */
enum class LogLevel { Warn, Inform };

/**
 * Destination for warn()/inform() messages. The message has no trailing
 * newline and no "warn: "/"info: " prefix; the sink chooses both. Sinks
 * may be invoked concurrently from fuzz worker threads, but calls are
 * serialized by the logging layer, so a sink needs no locking of its own.
 */
using LogSink = std::function<void(LogLevel, const std::string &)>;

/**
 * Replace the warn()/inform() destination (default: stderr). Passing an
 * empty function restores the default. Returns the previous sink (empty
 * when the default stderr sink was active). Quiet mode still suppresses
 * messages before they reach any sink.
 */
LogSink setLogSink(LogSink sink);

// Input helpers shared by the CLI and the server; each raises an
// HdlError (via fatal) on bad input.

/** Whole file contents; "cannot open 'PATH'" when unreadable. */
std::string readFileOrFatal(const std::string &path);
/** Replace @p path with @p text; "cannot write 'PATH'" on failure. */
void writeFileOrFatal(const std::string &path, const std::string &text);
/** Decimal unsigned integer; @p what names the value in the error. */
uint64_t parseU64(const std::string &text, const char *what);
/** Comma-separated items, empty items dropped. */
std::vector<std::string> splitCsv(const std::string &text);

} // namespace hwdbg

#endif // HWDBG_COMMON_LOGGING_HH
