#include "serve/monitor.hh"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "obs/jsoncheck.hh"
#include "serve/server.hh"
#include "serve/stats.hh"

namespace hwdbg::serve
{

std::string
renderTopFrame(const std::string &statsJson)
{
    std::string error;
    obs::JsonPtr root = obs::parseJson(statsJson, &error);
    return root ? renderTopFrame(*root) : "stats: " + error + "\n";
}

std::string
renderTopFrame(const obs::JsonValue &stats)
{
    std::string error = obs::checkJson(serveStatsSchema(), stats);
    if (!error.empty())
        return "stats: " + error + "\n";

    const obs::JsonValue &server = stats["server"];
    const obs::JsonValue &cache = stats["cache"];
    const obs::JsonValue &snaps = stats["snapshots"];

    std::ostringstream out;
    char line[256];
    std::snprintf(line, sizeof line,
                  "hwdbg serve — up %.1fs | sessions %.0f (opened %.0f)"
                  " | channels %.0f/%.0f | requests %.0f err %.0f"
                  " slow %.0f\n",
                  server["uptime_us"].number / 1e6,
                  server["sessions"].number, server["opened"].number,
                  server["channels_active"].number,
                  server["channels"].number, server["requests"].number,
                  server["errors"].number, server["slow"].number);
    out << line;
    std::snprintf(line, sizeof line,
                  "cache entries %.0f hits %.0f misses %.0f "
                  "builds %.0f (%.1fms) | snapshots stored %.0f "
                  "dedup %.0f%%\n",
                  cache["entries"].number, cache["hits"].number,
                  cache["misses"].number, cache["builds"].number,
                  cache["build_us"].number / 1e3, snaps["stored"].number,
                  snaps["dedup_ratio_pct"].number);
    out << line;

    const auto &cmds = stats["commands"].elems;
    if (!cmds.empty()) {
        std::snprintf(line, sizeof line,
                      "%-14s %7s %5s %8s %8s %8s %8s\n", "COMMAND",
                      "COUNT", "ERR", "P50us", "P95us", "P99us",
                      "MAXus");
        out << line;
        for (const auto &entry : cmds) {
            std::snprintf(line, sizeof line,
                          "%-14s %7.0f %5.0f %8.0f %8.0f %8.0f %8.0f\n",
                          (*entry)["cmd"].text.c_str(),
                          (*entry)["count"].number,
                          (*entry)["errors"].number,
                          (*entry)["p50_us"].number,
                          (*entry)["p95_us"].number,
                          (*entry)["p99_us"].number,
                          (*entry)["max_us"].number);
            out << line;
        }
    }

    const auto &sessions = stats["sessions"].elems;
    if (!sessions.empty()) {
        std::snprintf(line, sizeof line,
                      "%4s %-8s %-16s %-5s %6s %4s %9s\n", "SID",
                      "KIND", "DESIGN", "CACHE", "CMDS", "ERR",
                      "CYCLE");
        out << line;
        for (const auto &entry : sessions) {
            const auto *cycle = entry->get("cycle");
            std::string cycleText = cycle ? std::to_string(cycle->asUint())
                                          : std::string("-");
            std::snprintf(line, sizeof line,
                          "%4.0f %-8s %-16s %-5s %6.0f %4.0f %9s\n",
                          (*entry)["session"].number,
                          (*entry)["kind"].text.c_str(),
                          (*entry)["design"].text.c_str(),
                          (*entry)["cache"].text.c_str(),
                          (*entry)["cmds"].number,
                          (*entry)["errors"].number,
                          cycleText.c_str());
            out << line;
        }
    }
    return out.str();
}

int
runTop(uint16_t port, const TopOptions &opts, std::ostream &out)
{
    int fd = connectLoopback(port, "monitor");
    FdBuf buf(fd);
    std::istream in(&buf);
    std::ostream req(&buf);
    std::string line;
    if (!std::getline(in, line)) {
        ::close(fd);
        fatal("monitor: server closed before hello");
    }

    for (uint64_t frame = 0;
         opts.iterations == 0 || frame < opts.iterations; ++frame) {
        if (frame && opts.intervalMs)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts.intervalMs));
        if (!(req << "stats\n" << std::flush) || !std::getline(in, line))
            break;
        // The stats document is the response's "payload" member; a
        // line without one renders as the error it is.
        std::string error;
        obs::JsonPtr root = obs::parseJson(line, &error);
        const obs::JsonValue *payload = root ? root->get("payload") : nullptr;
        if (opts.clear)
            out << "\x1b[H\x1b[2J";
        out << (payload && payload->isObject() ? renderTopFrame(*payload)
                                               : renderTopFrame(line))
            << std::flush;
    }
    req << "quit\n" << std::flush;
    ::close(fd);
    return 0;
}

} // namespace hwdbg::serve
