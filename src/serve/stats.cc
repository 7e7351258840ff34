#include "serve/stats.hh"

#include <cctype>

#include "common/logging.hh"
#include "obs/jsoncheck.hh"

namespace hwdbg::serve
{

namespace
{

std::string
monotoneQuantiles(const obs::JsonValue &row)
{
    if (row["p50_us"].number <= row["p95_us"].number &&
        row["p95_us"].number <= row["p99_us"].number &&
        row["p99_us"].number <= row["max_us"].number)
        return "";
    return "quantiles not monotone (" + row["cmd"].text + ")";
}

std::string
sortedByCmd(const obs::JsonValue &rows)
{
    for (size_t i = 1; i < rows.elems.size(); ++i)
        if ((*rows.elems[i])["cmd"].text <= (*rows.elems[i - 1])["cmd"].text)
            return csprintf("[%zu]: not sorted by cmd", i);
    return "";
}

std::string
sortedById(const obs::JsonValue &rows)
{
    for (size_t i = 1; i < rows.elems.size(); ++i)
        if ((*rows.elems[i])["session"].number <=
            (*rows.elems[i - 1])["session"].number)
            return csprintf("[%zu]: not sorted by id", i);
    return "";
}

} // namespace

const obs::Schema &
serveStatsSchema()
{
    using obs::number;
    static const obs::Schema schema = obs::ordered({
        {"format", obs::oneOf({"hwdbg-serve-stats"})},
        {"version", obs::exactly(1)},
        {"build", obs::buildSchema()},
        {"server", obs::ordered({{"sessions", number()},
                                 {"opened", number()},
                                 {"channels", number()},
                                 {"channels_active", number()},
                                 {"requests", number()},
                                 {"errors", number()},
                                 {"slow", number()},
                                 {"slow_threshold_us", number()},
                                 {"dispatched", number()},
                                 {"retired_cmds", number()},
                                 {"uptime_us", number()}})},
        {"cache", obs::ordered({{"entries", number()},
                                {"hits", number()},
                                {"misses", number()},
                                {"builds", number()},
                                {"build_us", number()}})},
        {"snapshots", obs::ordered({{"stored", number()},
                                    {"stored_bytes", number()},
                                    {"dedup_hits", number()},
                                    {"dedup_bytes", number()},
                                    {"dedup_ratio_pct", number()}})},
        {"commands", obs::arrayOf(obs::ordered({{"cmd", obs::string()},
                                                {"count", number()},
                                                {"errors", number()},
                                                {"p50_us", number()},
                                                {"p95_us", number()},
                                                {"p99_us", number()},
                                                {"max_us", number()}},
                                               monotoneQuantiles),
                                  sortedByCmd)},
        {"sessions",
         obs::arrayOf(obs::ordered({{"session", number()},
                                    {"kind", obs::string()},
                                    {"design", obs::string()},
                                    {"cache", obs::oneOf({"hit", "miss"})},
                                    {"cmds", number()},
                                    {"errors", number()},
                                    {"cycle", obs::integer(0), false},
                                    {"uptime_us", number()}}),
                      sortedById)},
    });
    return schema;
}

std::string
checkServeStatsJson(const std::string &text)
{
    return obs::checkJson(serveStatsSchema(), text);
}

std::string
scrubServeTimings(const std::string &text)
{
    // Replace the digit run in every `_us":<spaces?>NNN` with 0. A
    // hand-rolled scan (no <regex>) keeps this cheap enough to run on
    // every transcript line in the determinism tests.
    std::string out;
    out.reserve(text.size());
    size_t i = 0;
    const std::string marker = "_us\":";
    while (i < text.size()) {
        size_t at = text.find(marker, i);
        if (at == std::string::npos) {
            out.append(text, i, std::string::npos);
            break;
        }
        size_t end = at + marker.size();
        out.append(text, i, end - i);
        while (end < text.size() && text[end] == ' ') {
            out += ' ';
            ++end;
        }
        if (end < text.size() &&
            std::isdigit(static_cast<unsigned char>(text[end]))) {
            out += '0';
            while (end < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[end])))
                ++end;
        }
        i = end;
    }
    return out;
}

} // namespace hwdbg::serve
