#include "trace/json.hh"

#include <sstream>

#include "obs/json.hh"
#include "obs/jsoncheck.hh"

namespace hwdbg::trace
{

using obs::hexU64;
using obs::jsonEscape;

namespace
{

/**
 * Window geometry adds up, a fired trigger was armed, at least one
 * signal is declared, and the rows fit the window with strictly
 * increasing seq and one fixed-width hex value per declared signal.
 */
std::string
dumpRule(const obs::JsonValue &root)
{
    const obs::JsonValue &window = root["window"];
    if (window["pre_depth"].asUint() + window["post_depth"].asUint() !=
        window["depth"].asUint())
        return ".window: pre_depth + post_depth != depth";
    if (root["trigger"]["fired"].boolean && !root["trigger"]["armed"].boolean)
        return ".trigger: fired without being armed";
    const auto &signals = root["signals"].elems;
    if (signals.empty())
        return ".signals: a trace must declare at least one signal";
    const auto &rows = root["rows"].elems;
    if (rows.size() > window["depth"].asUint())
        return ".rows: more rows than the window depth allows";
    uint64_t prevSeq = 0;
    std::vector<uint64_t> words;
    for (size_t r = 0; r < rows.size(); ++r) {
        const obs::JsonValue &row = *rows[r];
        std::string at = ".rows[" + std::to_string(r) + "]";
        uint64_t seq = 0;
        obs::parseHexU64(row["seq"].text, &seq);
        if (r && seq <= prevSeq)
            return at + ".seq: must be strictly increasing";
        prevSeq = seq;
        const auto &values = row["values"].elems;
        if (values.size() != signals.size())
            return at + ".values: must match the signal list";
        for (size_t v = 0; v < values.size(); ++v) {
            auto width =
                static_cast<uint32_t>((*signals[v])["width"].asUint());
            if (!obs::parseHexWords(values[v]->text, width, &words))
                return at + ".values[" + std::to_string(v) +
                       "]: must be " + std::to_string((width + 3) / 4) +
                       "-digit hex";
        }
    }
    return "";
}

const obs::Schema &
traceDumpSchema()
{
    using obs::integer;
    static const obs::Schema schema = obs::ordered(
        {
            {"format", obs::oneOf({"hwdbg-trace"})},
            {"version", obs::exactly(1)},
            {"build", obs::buildSchema()},
            {"design", obs::ordered({{"top", obs::string()}})},
            {"workload", obs::string()},
            {"backend", obs::string()},
            {"config",
             obs::ordered({{"signals", obs::arrayOf(obs::string())},
                           {"trigger", obs::string()},
                           {"budget_bytes", integer(0)},
                           {"pre_pct", integer(0, 100)}})},
            {"window", obs::ordered({{"row_bytes", integer(0)},
                                     {"depth", integer(0)},
                                     {"pre_depth", integer(0)},
                                     {"post_depth", integer(0)}})},
            {"trigger", obs::ordered({{"armed", obs::boolean()},
                                      {"fired", obs::boolean()},
                                      {"seq", obs::hexU64Schema()},
                                      {"cycle", obs::hexU64Schema()},
                                      {"fires", integer(0)}})},
            {"stats", obs::ordered({{"samples", integer(0)},
                                    {"drops", integer(0)}})},
            {"signals",
             obs::arrayOf(obs::ordered({{"name", obs::string()},
                                        {"width", integer(1, 1u << 24)},
                                        {"loc", obs::string()}}))},
            {"rows",
             obs::arrayOf(obs::ordered(
                 {{"seq", obs::hexU64Schema()},
                  {"cycle", obs::hexU64Schema()},
                  {"values", obs::arrayOf(obs::string())}}))},
        },
        dumpRule);
    return schema;
}

} // namespace

std::string
toJson(const TraceDump &dump)
{
    const obs::BuildInfo &build = obs::buildInfo();
    std::ostringstream out;
    out << "{\"format\": \"hwdbg-trace\", \"version\": 1,\n";
    out << "\"build\": {\"tool\": \"hwdbg\", \"version\": \""
        << jsonEscape(build.version) << "\", \"git\": \""
        << jsonEscape(build.git) << "\", \"type\": \""
        << jsonEscape(build.buildType) << "\"},\n";
    out << "\"design\": {\"top\": \"" << jsonEscape(dump.top)
        << "\"},\n";
    out << "\"workload\": \"" << jsonEscape(dump.workload) << "\",\n";
    out << "\"backend\": \"" << jsonEscape(dump.backend) << "\",\n";

    out << "\"config\": {\"signals\": [";
    for (size_t i = 0; i < dump.config.signals.size(); ++i)
        out << (i ? ", " : "") << "\""
            << jsonEscape(dump.config.signals[i]) << "\"";
    out << "], \"trigger\": \"" << jsonEscape(dump.config.trigger)
        << "\", \"budget_bytes\": " << dump.config.budgetBytes
        << ", \"pre_pct\": " << dump.config.prePct << "},\n";

    out << "\"window\": {\"row_bytes\": " << dump.rowBytes
        << ", \"depth\": " << dump.depth
        << ", \"pre_depth\": " << dump.preDepth
        << ", \"post_depth\": " << dump.postDepth << "},\n";

    out << "\"trigger\": {\"armed\": " << (dump.armed ? "true" : "false")
        << ", \"fired\": " << (dump.fired ? "true" : "false")
        << ", \"seq\": \"" << hexU64(dump.triggerSeq)
        << "\", \"cycle\": \"" << hexU64(dump.triggerCycle)
        << "\", \"fires\": " << dump.triggerFires << "},\n";

    out << "\"stats\": {\"samples\": " << dump.samples
        << ", \"drops\": " << dump.drops << "},\n";

    out << "\"signals\": [";
    for (size_t i = 0; i < dump.signals.size(); ++i) {
        const auto &sig = dump.signals[i];
        out << (i ? ",\n " : "\n ") << "{\"name\": \""
            << jsonEscape(sig.name) << "\", \"width\": " << sig.width
            << ", \"loc\": \"" << jsonEscape(sig.loc) << "\"}";
    }
    out << "],\n";

    out << "\"rows\": [";
    for (size_t i = 0; i < dump.rows.size(); ++i) {
        const auto &row = dump.rows[i];
        out << (i ? ",\n " : "\n ") << "{\"seq\": \""
            << hexU64(row.seq) << "\", \"cycle\": \""
            << hexU64(row.cycle) << "\", \"values\": [";
        for (size_t v = 0; v < row.values.size(); ++v)
            out << (v ? ", " : "") << "\""
                << obs::hexWords(row.values[v].rawWords(),
                                 row.values[v].numWords(),
                                 row.values[v].width())
                << "\"";
        out << "]}";
    }
    out << "]\n}\n";
    return out.str();
}

bool
parseTraceDump(const std::string &text, TraceDump *out,
               std::string *error)
{
    obs::JsonPtr root = obs::parseChecked(traceDumpSchema(), text, error);
    if (!root)
        return false;
    const obs::JsonValue &config = (*root)["config"];
    const obs::JsonValue &window = (*root)["window"];
    const obs::JsonValue &trigger = (*root)["trigger"];
    const obs::JsonValue &stats = (*root)["stats"];

    *out = TraceDump{};
    out->top = (*root)["design"]["top"].text;
    out->workload = (*root)["workload"].text;
    out->backend = (*root)["backend"].text;
    for (const auto &glob : config["signals"].elems)
        out->config.signals.push_back(glob->text);
    out->config.trigger = config["trigger"].text;
    out->config.budgetBytes = config["budget_bytes"].asUint();
    out->config.prePct = static_cast<uint32_t>(config["pre_pct"].asUint());
    out->rowBytes = window["row_bytes"].asUint();
    out->depth = window["depth"].asUint();
    out->preDepth = window["pre_depth"].asUint();
    out->postDepth = window["post_depth"].asUint();
    out->armed = trigger["armed"].boolean;
    out->fired = trigger["fired"].boolean;
    obs::parseHexU64(trigger["seq"].text, &out->triggerSeq);
    obs::parseHexU64(trigger["cycle"].text, &out->triggerCycle);
    out->triggerFires = trigger["fires"].asUint();
    out->samples = stats["samples"].asUint();
    out->drops = stats["drops"].asUint();

    for (const auto &elem : (*root)["signals"].elems) {
        TracedSignal sig;
        sig.name = (*elem)["name"].text;
        sig.width = static_cast<uint32_t>((*elem)["width"].asUint());
        sig.loc = (*elem)["loc"].text;
        out->signals.push_back(std::move(sig));
    }
    std::vector<uint64_t> words;
    for (const auto &elem : (*root)["rows"].elems) {
        TraceDump::Row row;
        obs::parseHexU64((*elem)["seq"].text, &row.seq);
        obs::parseHexU64((*elem)["cycle"].text, &row.cycle);
        const auto &values = (*elem)["values"].elems;
        for (size_t v = 0; v < values.size(); ++v) {
            uint32_t width = out->signals[v].width;
            obs::parseHexWords(values[v]->text, width, &words);
            row.values.push_back(
                Bits::fromWords(width, words.data(), words.size()));
        }
        out->rows.push_back(std::move(row));
    }
    return true;
}

std::string
checkTraceDumpJson(const std::string &text)
{
    return obs::checkJson(traceDumpSchema(), text);
}

} // namespace hwdbg::trace
