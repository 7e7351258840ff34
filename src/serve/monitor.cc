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
    obs::JsonPtr root =
        obs::parseChecked(serveStatsSchema(), statsJson, &error);
    if (!root)
        return "stats: " + error + "\n";

    const obs::JsonValue &server = (*root)["server"];
    const obs::JsonValue &cache = (*root)["cache"];
    const obs::JsonValue &snaps = (*root)["snapshots"];

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

    const auto &cmds = (*root)["commands"].elems;
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

    const auto &sessions = (*root)["sessions"].elems;
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
        // The stats document is the response's "payload" member;
        // payload is always the last field, so the document is the
        // text between `"payload":` and the response's final brace.
        std::string payload;
        std::string error;
        if (auto root = obs::parseJson(line, &error)) {
            const auto *p = root->get("payload");
            auto at = line.find("\"payload\":");
            if (p && p->isObject() && at != std::string::npos)
                payload = line.substr(at + 10, line.size() - at - 11);
        }
        if (opts.clear)
            out << "\x1b[H\x1b[2J";
        out << renderTopFrame(payload.empty() ? line : payload)
            << std::flush;
    }
    req << "quit\n" << std::flush;
    ::close(fd);
    return 0;
}

} // namespace hwdbg::serve
