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

namespace hwdbg::serve
{

namespace
{

double
num(const obs::JsonValue *obj, const char *key)
{
    if (!obj)
        return 0;
    const auto *v = obj->get(key);
    return v && v->isNumber() ? v->number : 0;
}

std::string
str(const obs::JsonValue *obj, const char *key)
{
    if (!obj)
        return "";
    const auto *v = obj->get(key);
    return v && v->isString() ? v->text : "";
}

} // namespace

std::string
renderTopFrame(const std::string &statsJson)
{
    std::string error;
    obs::JsonPtr root = obs::parseJson(statsJson, &error);
    if (!root || !root->isObject())
        return "stats: " + (error.empty() ? "not an object" : error) +
               "\n";

    const auto *server = root->get("server");
    const auto *cache = root->get("cache");
    const auto *snaps = root->get("snapshots");

    std::ostringstream out;
    char line[256];
    std::snprintf(line, sizeof line,
                  "hwdbg serve — up %.1fs | sessions %.0f (opened %.0f)"
                  " | channels %.0f/%.0f | requests %.0f err %.0f"
                  " slow %.0f\n",
                  num(server, "uptime_us") / 1e6,
                  num(server, "sessions"), num(server, "opened"),
                  num(server, "channels_active"),
                  num(server, "channels"), num(server, "requests"),
                  num(server, "errors"), num(server, "slow"));
    out << line;
    std::snprintf(line, sizeof line,
                  "cache entries %.0f hits %.0f misses %.0f "
                  "builds %.0f (%.1fms) | snapshots stored %.0f "
                  "dedup %.0f%%\n",
                  num(cache, "entries"), num(cache, "hits"),
                  num(cache, "misses"), num(cache, "builds"),
                  num(cache, "build_us") / 1e3, num(snaps, "stored"),
                  num(snaps, "dedup_ratio_pct"));
    out << line;

    const auto *cmds = root->get("commands");
    if (cmds && cmds->isArray() && !cmds->elems.empty()) {
        std::snprintf(line, sizeof line,
                      "%-14s %7s %5s %8s %8s %8s %8s\n", "COMMAND",
                      "COUNT", "ERR", "P50us", "P95us", "P99us",
                      "MAXus");
        out << line;
        for (const auto &entry : cmds->elems) {
            std::snprintf(line, sizeof line,
                          "%-14s %7.0f %5.0f %8.0f %8.0f %8.0f %8.0f\n",
                          str(entry.get(), "cmd").c_str(),
                          num(entry.get(), "count"),
                          num(entry.get(), "errors"),
                          num(entry.get(), "p50_us"),
                          num(entry.get(), "p95_us"),
                          num(entry.get(), "p99_us"),
                          num(entry.get(), "max_us"));
            out << line;
        }
    }

    const auto *sessions = root->get("sessions");
    if (sessions && sessions->isArray() && !sessions->elems.empty()) {
        std::snprintf(line, sizeof line,
                      "%4s %-8s %-16s %-5s %6s %4s %9s\n", "SID",
                      "KIND", "DESIGN", "CACHE", "CMDS", "ERR",
                      "CYCLE");
        out << line;
        for (const auto &entry : sessions->elems) {
            const auto *cycle = entry->get("cycle");
            std::string cycleText =
                cycle && cycle->isNumber()
                    ? std::to_string(
                          static_cast<uint64_t>(cycle->number))
                    : std::string("-");
            std::snprintf(line, sizeof line,
                          "%4.0f %-8s %-16s %-5s %6.0f %4.0f %9s\n",
                          num(entry.get(), "session"),
                          str(entry.get(), "kind").c_str(),
                          str(entry.get(), "design").c_str(),
                          str(entry.get(), "cache").c_str(),
                          num(entry.get(), "cmds"),
                          num(entry.get(), "errors"),
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
