/**
 * @file
 * The versioned `hwdbg-serve-stats` JSON v1 document.
 *
 * Server::statsJson() renders one line:
 *
 *   {"format":"hwdbg-serve-stats","version":1,"build":{...},
 *    "server":{sessions,opened,channels,channels_active,requests,
 *              errors,slow,slow_threshold_us,dispatched,retired_cmds,
 *              uptime_us},
 *    "cache":{entries,hits,misses,builds,build_us},
 *    "snapshots":{stored,stored_bytes,dedup_hits,dedup_bytes,
 *                 dedup_ratio_pct},
 *    "commands":[{cmd,count,errors,p50_us,p95_us,p99_us,max_us}...],
 *    "sessions":[{session,kind,design,cache,cmds,errors,[cycle,]
 *                 uptime_us}...]}
 *
 * Every wall-clock-derived field ends in `_us`, so one pass of
 * scrubServeTimings() zeroes exactly the nondeterministic numbers:
 * after scrubbing, a stats document is a deterministic function of the
 * request history and byte-diffs across runs (the determinism tests
 * and the cli_serve golden rely on this). checkServeStatsJson() is the
 * schema check behind `hwdbg obscheck`.
 */

#ifndef HWDBG_SERVE_STATS_HH
#define HWDBG_SERVE_STATS_HH

#include <string>

namespace hwdbg::obs
{
struct Schema;
}

namespace hwdbg::serve
{

/**
 * The hwdbg-serve-stats v1 schema: exact field order, quantiles
 * monotone (p50 <= p95 <= p99 <= max) per command, commands sorted by
 * name and sessions by id, cache attribution "hit" or "miss".
 */
const obs::Schema &serveStatsSchema();

/** "" when @p text is a valid stats document, else the first
 *  violation. */
std::string checkServeStatsJson(const std::string &text);

/**
 * Zero every number whose key ends in `_us` (and the values of
 * `latency_us` in spilled request lines), leaving all deterministic
 * fields untouched. Works on any JSON text, one line or many.
 */
std::string scrubServeTimings(const std::string &text);

} // namespace hwdbg::serve

#endif // HWDBG_SERVE_STATS_HH
