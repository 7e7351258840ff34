#include "trace/json.hh"

#include "obs/json.hh"
#include "obs/jsoncheck.hh"

namespace hwdbg::trace
{

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
    std::string out;
    obs::JsonWriter w(out, obs::JsonWriter::Style::Spaced);
    w.beginObject().member("format", "hwdbg-trace").member("version", 1);
    w.newline(0).member("build", obs::buildInfo());
    w.newline(0).key("design").beginObject().member("top", dump.top)
        .endObject();
    w.newline(0).member("workload", dump.workload);
    w.newline(0).member("backend", dump.backend);

    w.newline(0).key("config").beginObject().key("signals").beginArray();
    for (const auto &glob : dump.config.signals)
        w.value(glob);
    w.endArray()
        .member("trigger", dump.config.trigger)
        .member("budget_bytes", dump.config.budgetBytes)
        .member("pre_pct", dump.config.prePct)
        .endObject();

    w.newline(0).key("window").beginObject()
        .member("row_bytes", dump.rowBytes)
        .member("depth", dump.depth)
        .member("pre_depth", dump.preDepth)
        .member("post_depth", dump.postDepth)
        .endObject();

    w.newline(0).key("trigger").beginObject()
        .member("armed", dump.armed)
        .member("fired", dump.fired)
        .key("seq").hexU64(dump.triggerSeq)
        .key("cycle").hexU64(dump.triggerCycle)
        .member("fires", dump.triggerFires)
        .endObject();

    w.newline(0).key("stats").beginObject()
        .member("samples", dump.samples)
        .member("drops", dump.drops)
        .endObject();

    w.newline(0).key("signals").beginArray();
    for (const auto &sig : dump.signals)
        w.newline(1).beginObject()
            .member("name", sig.name)
            .member("width", sig.width)
            .member("loc", sig.loc)
            .endObject();
    w.endArray();

    w.newline(0).key("rows").beginArray();
    for (const auto &row : dump.rows) {
        w.newline(1).beginObject()
            .key("seq").hexU64(row.seq)
            .key("cycle").hexU64(row.cycle)
            .key("values").beginArray();
        for (const auto &value : row.values)
            w.hexWords(value.rawWords(), value.numWords(), value.width());
        w.endArray().endObject();
    }
    w.endArray().newline(0).endObject();
    out += '\n';
    return out;
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
