/**
 * @file
 * `hwdbg serve --connect N --monitor`: a top-style live view.
 *
 * The monitor is an ordinary client of the serve protocol: it polls
 * the `stats` command and renders each hwdbg-serve-stats document as a
 * refreshing table — global request/error/slow counters, cache and
 * snapshot-dedup totals, the per-command latency quantiles, and one
 * row per live session. Frame rendering is a pure function of the
 * stats document (renderTopFrame), so tests drive it without a socket.
 */

#ifndef HWDBG_SERVE_MONITOR_HH
#define HWDBG_SERVE_MONITOR_HH

#include <cstdint>
#include <iosfwd>
#include <string>

namespace hwdbg::obs
{
struct JsonValue;
}

namespace hwdbg::serve
{

struct TopOptions
{
    /** Delay between stats polls. */
    uint64_t intervalMs = 1000;
    /** Frames to render; 0 = until the server goes away. */
    uint64_t iterations = 0;
    /** Prefix each frame with the ANSI home+clear sequence. */
    bool clear = true;
};

/**
 * Render one monitor frame from a parsed hwdbg-serve-stats v1 document
 * (the `stats` payload), checked against serveStatsSchema(). Malformed
 * input renders as an error line rather than failing — a live view
 * should survive a flaky poll.
 */
std::string renderTopFrame(const obs::JsonValue &stats);
/** renderTopFrame() over @p statsJson, parsed first. */
std::string renderTopFrame(const std::string &statsJson);

/**
 * Connect to 127.0.0.1:@p port and poll `stats` per @p opts, writing
 * frames to @p out. Returns 0 on clean exit (iteration budget reached
 * or server closed), 1 when the connection could not be established.
 */
int runTop(uint16_t port, const TopOptions &opts, std::ostream &out);

} // namespace hwdbg::serve

#endif // HWDBG_SERVE_MONITOR_HH
