/**
 * @file
 * The JSON parser and the schema engine behind `hwdbg obscheck`. A
 * checker that accepts garbage would turn the CI validation step into
 * a rubber stamp, so the rejection cases matter as much as the
 * acceptance ones: for each of the eight obscheck kinds a real
 * artifact emitted from a testbed bug must pass, and dropping a
 * required member, changing a member's type, swapping two ordered
 * members, breaking the kind's cross-field rule or corrupting its
 * build provenance must each be rejected with a path-qualified
 * message.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>

#include "analyze/analyze.hh"
#include "bugbase/testbed.hh"
#include "cover/run.hh"
#include "cover/snapshot.hh"
#include "debug/engine.hh"
#include "debug/protocol.hh"
#include "debug/repl.hh"
#include "debug/workload.hh"
#include "obs/json.hh"
#include "obs/jsoncheck.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/server.hh"
#include "serve/stats.hh"
#include "trace/json.hh"
#include "trace/run.hh"

namespace hwdbg::obs
{
namespace
{

JsonPtr
parseOk(const std::string &text)
{
    std::string error;
    JsonPtr root = parseJson(text, &error);
    EXPECT_EQ(error, "") << text;
    return root;
}

TEST(JsonCheck, ParsesScalarsAndNesting)
{
    JsonPtr root = parseOk(
        "{\"a\": [1, -2.5, 1e3], \"b\": {\"c\": true, \"d\": null}, "
        "\"s\": \"x\\n\\\"y\\\"\\u0041\"}");
    ASSERT_TRUE(root && root->isObject());
    const JsonValue *a = root->get("a");
    ASSERT_TRUE(a && a->isArray());
    ASSERT_EQ(a->elems.size(), 3u);
    EXPECT_DOUBLE_EQ(a->elems[0]->number, 1);
    EXPECT_DOUBLE_EQ(a->elems[1]->number, -2.5);
    EXPECT_DOUBLE_EQ(a->elems[2]->number, 1000);
    const JsonValue *b = root->get("b");
    ASSERT_TRUE(b && b->isObject());
    EXPECT_TRUE(b->get("c")->boolean);
    EXPECT_EQ(b->get("d")->kind, JsonValue::Kind::Null);
    EXPECT_EQ(root->get("s")->text, "x\n\"y\"A");
    EXPECT_EQ(root->get("missing"), nullptr);
}

TEST(JsonCheck, RejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru",
          "\"unterminated", "{\"a\":1} trailing", "[1 2]"}) {
        std::string error;
        EXPECT_EQ(parseJson(bad, &error), nullptr) << bad;
        EXPECT_NE(error, "") << bad;
    }
}

std::string
repeat(const std::string &unit, size_t n)
{
    std::string out;
    out.reserve(unit.size() * n);
    for (size_t i = 0; i < n; ++i)
        out += unit;
    return out;
}

TEST(JsonCheck, RefusesHostileNestingWithoutRecursingAway)
{
    std::string limit = "nesting deeper than " +
                        std::to_string(kMaxJsonDepth);
    for (const std::string &unit : {std::string("["),
                                    std::string("{\"a\":")}) {
        std::string error;
        EXPECT_EQ(parseJson(repeat(unit, 200000), &error), nullptr);
        EXPECT_NE(error.find(limit), std::string::npos) << error;
        EXPECT_EQ(error.rfind("offset ", 0), 0u) << error;
    }
    // The limit itself still parses; one level more does not.
    std::string error;
    std::string atLimit = repeat("[", kMaxJsonDepth) +
                          repeat("]", kMaxJsonDepth);
    EXPECT_NE(parseJson(atLimit, &error), nullptr) << error;
    std::string over = "[" + atLimit + "]";
    EXPECT_EQ(parseJson(over, &error), nullptr);
    EXPECT_NE(error.find(limit), std::string::npos) << error;
}

TEST(JsonCheck, IntegerNodesRejectNonIntegralAndUnsafeValues)
{
    Schema id = integer();
    for (const char *bad : {"1e300", "-1e300", "1.5", "9007199254740994",
                            "\"7\"", "null"}) {
        std::string verdict = checkJson(id, std::string(bad));
        EXPECT_NE(verdict, "") << bad;
    }
    for (const char *good : {"0", "-3", "9007199254740991",
                             "-9007199254740991", "2e3"})
        EXPECT_EQ(checkJson(id, std::string(good)), "") << good;
    EXPECT_EQ(checkJson(nullable(integer()), std::string("null")), "");
    EXPECT_NE(checkJson(integer(0, 100), std::string("101")), "");
    EXPECT_NE(checkJson(integer(0), std::string("-1")), "");
    EXPECT_EQ(checkJson(exactly(1), std::string("2")), "expected 1");
}

TEST(JsonCheck, MessagesCarryThePath)
{
    Schema rows = object({
        {"commands", arrayOf(ordered({{"cmd", string()},
                                      {"p95_us", number()}}))},
    });
    EXPECT_EQ(checkJson(rows, std::string("{\"commands\":[]}")), "");
    EXPECT_EQ(checkJson(rows, std::string(
                                  "{\"commands\":[{\"cmd\":\"a\","
                                  "\"p95_us\":1},{\"cmd\":\"b\","
                                  "\"p95_us\":\"x\"}]}")),
              "commands[1].p95_us: expected number");
    EXPECT_EQ(checkJson(rows, std::string("{\"commands\":[{\"cmd\":\"a\"}"
                                          "]}")),
              "commands[0].p95_us: missing");
    EXPECT_EQ(checkJson(rows, std::string("{\"commands\":[{\"p95_us\":1,"
                                          "\"cmd\":\"a\"}]}")),
              "commands[0].cmd: out of order");
    EXPECT_EQ(checkJson(rows, std::string("{\"commands\":[{\"cmd\":\"a\","
                                          "\"p95_us\":1,\"x\":0}]}")),
              "commands[0].x: unexpected member");
    EXPECT_EQ(checkJson(rows, std::string("[]")), "expected object");
    // Unordered objects ignore members they do not declare.
    EXPECT_EQ(checkJson(rows, std::string("{\"commands\":[],\"x\":0}")),
              "");
}

// A build member for the hand-written trace and metrics documents.
const std::string kBuild =
    "\"build\": {\"tool\": \"hwdbg\", \"version\": \"0\", "
    "\"git\": \"unknown\", \"type\": \"Debug\"}, ";

TEST(JsonCheck, AcceptsMinimalValidTrace)
{
    std::string good =
        "{" + kBuild + "\"traceEvents\": ["
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"tid\": 1, \"args\": {\"name\": \"main\"}},"
        "{\"name\": \"parse\", \"cat\": \"hwdbg\", \"ph\": \"B\", "
        "\"ts\": 10, \"pid\": 1, \"tid\": 1},"
        "{\"name\": \"\", \"ph\": \"E\", \"ts\": 20, \"pid\": 1, "
        "\"tid\": 1}"
        "]}";
    EXPECT_EQ(checkTraceJson(good), "");
}

TEST(JsonCheck, RejectsBrokenTraces)
{
    // Unbalanced: B without E.
    std::string unbalanced =
        "{" + kBuild + "\"traceEvents\": [{\"name\": \"x\", "
        "\"ph\": \"B\", \"ts\": 1, \"pid\": 1, \"tid\": 1}]}";
    EXPECT_NE(checkTraceJson(unbalanced).find("unbalanced"),
              std::string::npos);

    // E before any B on its tid.
    std::string inverted =
        "{" + kBuild + "\"traceEvents\": [{\"name\": \"\", "
        "\"ph\": \"E\", \"ts\": 1, \"pid\": 1, \"tid\": 1}]}";
    EXPECT_NE(checkTraceJson(inverted).find("without a matching B"),
              std::string::npos);

    // Timestamps running backwards on one tid.
    std::string backwards =
        "{" + kBuild + "\"traceEvents\": ["
        "{\"name\": \"a\", \"ph\": \"B\", \"ts\": 9, \"pid\": 1, "
        "\"tid\": 1},"
        "{\"name\": \"\", \"ph\": \"E\", \"ts\": 5, \"pid\": 1, "
        "\"tid\": 1}]}";
    EXPECT_NE(checkTraceJson(backwards).find("not monotonic"),
              std::string::npos);

    // Not a trace at all.
    EXPECT_NE(checkTraceJson("{}"), "");
    EXPECT_NE(checkTraceJson("{\"traceEvents\": 3}"), "");
}

TEST(JsonCheck, AcceptsMinimalValidMetrics)
{
    std::string good =
        "{" + kBuild + "\"counters\": {\"sim.cycles\": 100}, "
        "\"gauges\": {\"sim.max_settle_iters\": 3}, "
        "\"histograms\": {\"sim.settle_iters\": "
        "{\"buckets\": [[1, 2], [2, 1], [null, 0]], "
        "\"count\": 3, \"sum\": 4, \"min\": 1, \"max\": 2}}}";
    EXPECT_EQ(checkMetricsJson(good), "");
}

TEST(JsonCheck, RejectsBrokenMetrics)
{
    // Bucket counts that do not sum to the histogram count.
    std::string bad_sum =
        "{" + kBuild + "\"counters\": {}, \"gauges\": {}, "
        "\"histograms\": {\"h\": {\"buckets\": [[1, 2], [null, 0]], "
        "\"count\": 3, \"sum\": 2, \"min\": 1, \"max\": 1}}}";
    EXPECT_NE(checkMetricsJson(bad_sum).find("do not sum"),
              std::string::npos);

    // Non-increasing bucket bounds.
    std::string bad_bounds =
        "{" + kBuild + "\"counters\": {}, \"gauges\": {}, "
        "\"histograms\": {\"h\": {\"buckets\": [[4, 1], [2, 0], "
        "[null, 0]], \"count\": 1, \"sum\": 3, \"min\": 3, \"max\": 3}}}";
    EXPECT_NE(checkMetricsJson(bad_bounds).find("not increasing"),
              std::string::npos);

    // A counter that is not a number.
    std::string bad_counter =
        "{" + kBuild + "\"counters\": {\"x\": \"ten\"}, \"gauges\": {}, "
        "\"histograms\": {}}";
    EXPECT_EQ(checkMetricsJson(bad_counter),
              "counters.x: expected number");

    EXPECT_NE(checkMetricsJson("[]"), "");
}

// ------------------------------------------------ the eight obscheck kinds

/** Re-render a parsed tree: the mutations edit trees, not text. */
std::string
render(const JsonValue &value)
{
    switch (value.kind) {
      case JsonValue::Kind::Null: return "null";
      case JsonValue::Kind::Bool: return value.boolean ? "true" : "false";
      case JsonValue::Kind::Number: {
        std::ostringstream out;
        out.precision(17);
        out << value.number;
        return out.str();
      }
      case JsonValue::Kind::String:
        return "\"" + jsonEscape(value.text) + "\"";
      case JsonValue::Kind::Array: {
        std::string out = "[";
        for (size_t i = 0; i < value.elems.size(); ++i)
            out += (i ? "," : "") + render(*value.elems[i]);
        return out + "]";
      }
      case JsonValue::Kind::Object: {
        std::string out = "{";
        for (size_t i = 0; i < value.members.size(); ++i)
            out += (i ? ",\"" : "\"") + jsonEscape(value.members[i].first) +
                   "\":" + render(*value.members[i].second);
        return out + "}";
      }
    }
    return "";
}

/** Node at @p path: member keys, or decimal indexes into arrays. */
JsonValue &
at(JsonValue &root, const std::vector<std::string> &path)
{
    JsonValue *node = &root;
    for (const auto &step : path) {
        if (node->isArray()) {
            node = node->elems.at(std::stoul(step)).get();
            continue;
        }
        JsonValue *next = nullptr;
        for (auto &[key, member] : node->members)
            if (key == step)
                next = member.get();
        if (!next)
            throw std::runtime_error("no member " + step);
        node = next;
    }
    return *node;
}

using Edit = std::function<void(JsonValue &)>;

Edit
drop(const std::string &key)
{
    return [key](JsonValue &obj) {
        auto &m = obj.members;
        auto it = std::find_if(m.begin(), m.end(),
                               [&](const auto &kv) { return kv.first == key; });
        ASSERT_NE(it, m.end()) << key;
        m.erase(it);
    };
}

Edit
retype(const std::string &key)
{
    return [key](JsonValue &obj) {
        JsonValue &member = at(obj, {key});
        bool wasString = member.isString();
        member = JsonValue();
        member.kind = wasString ? JsonValue::Kind::Number
                                : JsonValue::Kind::String;
        member.text = "x";
        member.number = 7;
    };
}

Edit
swap(const std::string &a, const std::string &b)
{
    return [a, b](JsonValue &obj) {
        size_t ia = obj.members.size(), ib = ia;
        for (size_t i = 0; i < obj.members.size(); ++i) {
            ia = obj.members[i].first == a ? i : ia;
            ib = obj.members[i].first == b ? i : ib;
        }
        ASSERT_LT(std::max(ia, ib), obj.members.size());
        std::swap(obj.members[ia], obj.members[ib]);
    };
}

Edit
setNumber(const std::string &key, double value)
{
    return [key, value](JsonValue &obj) { at(obj, {key}).number = value; };
}

struct Mutation
{
    const char *what;
    /** The object the edit applies to. */
    std::vector<std::string> path;
    Edit edit;
    /** Substring of the rejection: the path and the reason. */
    std::string expect;
};

struct Kind
{
    const char *label;
    std::string (*check)(const std::string &text);
    /** JSON-lines: mutations edit line 2 (the first response) and the
     *  build corruption edits line 1 (the hello). */
    bool lines;
    std::string artifact;
    std::vector<Mutation> mutations;
};

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

std::string
mutate(const Kind &kind, size_t line, const std::vector<std::string> &path,
       const Edit &edit)
{
    std::vector<std::string> parts =
        kind.lines ? splitLines(kind.artifact)
                   : std::vector<std::string>{kind.artifact};
    std::string &target = parts.at(kind.lines ? line : 0);
    std::string error;
    JsonPtr root = parseJson(target, &error);
    EXPECT_TRUE(root) << error;
    if (!root)
        return "";
    edit(at(*root, path));
    target = render(*root);
    std::string out;
    for (const auto &part : parts)
        out += part + (kind.lines ? "\n" : "");
    return out;
}

/** A debug session machine transcript on testbed bug D4. */
std::string
debugTranscript()
{
    debug::WorkloadSpec spec;
    spec.bug = "D4";
    spec.instrument = true;
    debug::Workload w = debug::buildWorkload(spec);
    debug::EngineOptions eopts;
    eopts.constants = w.constants;
    debug::Engine engine(w.instrumented, w.instrumentedFacts, w.tape,
                         eopts);
    std::istringstream in("step 3\nrun\nquit\n");
    std::ostringstream out;
    debug::SessionOptions sopts;
    sopts.machine = true;
    debug::runSession(engine, in, out, sopts);
    return out.str();
}

const std::vector<Kind> &
kinds()
{
    static const std::vector<Kind> table = [] {
        const bugs::TestbedBug &c1 = bugs::bugById("C1");
        const bugs::TestbedBug &d3 = bugs::bugById("D3");

        startTrace();
        enableMetrics();
        resetMetrics();
        trace::TraceConfig cfg;
        cfg.trigger = "cmd_valid";
        std::string signalTrace =
            trace::toJson(trace::traceBugWorkload(c1, true, cfg));
        std::string coverage =
            cover::toJson(cover::coverBugWorkload(d3, true));
        std::string metrics = metricsJson();
        enableMetrics(false);
        std::string chromeTrace = stopTrace();

        debug::WorkloadSpec spec;
        spec.bug = "C1";
        std::string report = analyze::renderAnalyzeJson(
            analyze::selectedPasses({}),
            analyze::runAnalyze(*debug::buildWorkload(spec).base));

        serve::Server server;
        std::istringstream script("open debug bug=D4\n@1 step 3\n"
                                  "open cover bug=D4\nstats\n");
        std::ostringstream serveOut;
        server.runChannel(script, serveOut);
        std::string stats = server.statsJson();

        Edit badBalance = [](JsonValue &events) { events.elems.pop_back(); };
        Edit badCount = [](JsonValue &hist) {
            at(hist, {"count"}).number += 1;
        };
        Edit badArm = setNumber("stmt", 1e6);
        Edit badPass = [](JsonValue &passes) {
            passes.elems.at(0)->text = "nosuch";
        };
        Edit badWindow = [](JsonValue &window) {
            at(window, {"pre_depth"}).number += 1;
        };
        Edit badQuantiles = [](JsonValue &row) {
            at(row, {"p50_us"}).number = at(row, {"max_us"}).number + 1;
        };
        Edit failedWithoutError = [](JsonValue &resp) {
            at(resp, {"ok"}).boolean = false;
        };

        return std::vector<Kind>{
            {"trace", checkTraceJson, false, chromeTrace,
             {{"drop", {"traceEvents", "0"}, drop("name"),
               "traceEvents[0].name: missing"},
              {"retype", {"traceEvents", "0"}, retype("ph"),
               "traceEvents[0].ph: expected string"},
              {"swap", {}, swap("build", "traceEvents"),
               "build: out of order"},
              {"rule", {"traceEvents"}, badBalance,
               "traceEvents: unbalanced spans"}}},
            {"metrics", checkMetricsJson, false, metrics,
             {{"drop", {}, drop("gauges"), "gauges: missing"},
              {"retype", {"histograms", "sim.settle_iters"},
               retype("count"),
               "histograms.sim.settle_iters.count: expected number"},
              {"swap", {}, swap("counters", "gauges"),
               "counters: out of order"},
              {"rule", {"histograms", "sim.settle_iters"}, badCount,
               "histograms.sim.settle_iters.count: bucket counts do not "
               "sum"}}},
            {"coverage", cover::checkCoverageJson, false, coverage,
             {{"drop", {"design"}, drop("fingerprint"),
               "design.fingerprint: missing"},
              {"retype", {"statements", "0"}, retype("hit"),
               "statements[0].hit: expected boolean"},
              {"swap", {}, swap("signals", "statements"),
               "signals: out of order"},
              {"rule", {"arms", "0"}, badArm,
               "arms[0].stmt: refers past the"}}},
            {"analyze report", analyze::checkAnalyzeJson, false, report,
             {{"drop", {}, drop("passes"), "passes: missing"},
              {"retype", {"diagnostics", "0"}, retype("line"),
               "diagnostics[0].line: expected number"},
              {"swap", {}, swap("format", "version"),
               "format: out of order"},
              {"rule", {"passes"}, badPass,
               "passes[0]: unknown pass \"nosuch\""}}},
            {"signal trace", trace::checkTraceDumpJson, false, signalTrace,
             {{"drop", {"window"}, drop("depth"), "window.depth: missing"},
              {"retype", {"trigger"}, retype("fired"),
               "trigger.fired: expected boolean"},
              {"swap", {}, swap("workload", "backend"),
               "workload: out of order"},
              {"rule", {"window"}, badWindow,
               "window: pre_depth + post_depth != depth"}}},
            {"serve stats", serve::checkServeStatsJson, false, stats,
             {{"drop", {"server"}, drop("requests"),
               "server.requests: missing"},
              {"retype", {"commands", "0"}, retype("p95_us"),
               "commands[0].p95_us: expected number"},
              {"swap", {}, swap("format", "version"),
               "format: out of order"},
              {"rule", {"commands", "0"}, badQuantiles,
               "commands[0]: quantiles not monotone"}}},
            {"debug transcript", debug::checkDebugTranscript, true,
             debugTranscript(),
             {{"drop", {}, drop("cmd"), "line 2: cmd: missing"},
              {"retype", {}, retype("ok"), "line 2: ok: expected boolean"},
              {"swap", {}, swap("id", "ok"), "line 2: id: out of order"},
              {"rule", {}, failedWithoutError,
               "line 2: error: failed responses must carry"}}},
            {"serve transcript", serve::checkServeTranscript, true,
             serveOut.str(),
             {{"drop", {}, drop("session"), "line 2: session: missing"},
              {"retype", {}, retype("id"),
               "line 2: id: expected integer or null"},
              {"swap", {}, swap("session", "id"),
               "line 2: session: out of order"},
              {"rule", {}, failedWithoutError,
               "line 2: error: failed responses must carry"}}},
        };
    }();
    return table;
}

TEST(SchemaTable, RealArtifactsFromTestbedBugsPass)
{
    ASSERT_EQ(kinds().size(), 8u);
    for (const Kind &kind : kinds())
        EXPECT_EQ(kind.check(kind.artifact), "")
            << kind.label << ":\n"
            << kind.artifact.substr(0, 400);
}

TEST(SchemaTable, EveryMutationIsRejectedWithItsPath)
{
    for (const Kind &kind : kinds()) {
        ASSERT_EQ(kind.mutations.size(), 4u) << kind.label;
        for (const Mutation &m : kind.mutations) {
            std::string verdict =
                kind.check(mutate(kind, 1, m.path, m.edit));
            EXPECT_NE(verdict.find(m.expect), std::string::npos)
                << kind.label << " " << m.what << ": got \"" << verdict
                << "\", want \"" << m.expect << "\"";
        }
    }
}

TEST(SchemaTable, EveryKindValidatesItsBuildProvenance)
{
    Edit badTool = [](JsonValue &build) { at(build, {"tool"}).text = "x"; };
    for (const Kind &kind : kinds()) {
        std::string verdict =
            kind.check(mutate(kind, 0, {"build"}, badTool));
        std::string want = std::string(kind.lines ? "line 1: " : "") +
                           "build.tool: expected \"hwdbg\"";
        EXPECT_EQ(verdict, want) << kind.label;
    }
    // Coverage files from before build stamps still merge.
    const Kind &coverage = kinds()[2];
    ASSERT_STREQ(coverage.label, "coverage");
    EXPECT_EQ(coverage.check(mutate(coverage, 0, {}, drop("build"))), "");
}

} // namespace
} // namespace hwdbg::obs
