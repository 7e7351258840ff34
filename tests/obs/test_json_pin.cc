/**
 * @file
 * Byte pin of every JSON artifact and protocol line hwdbg writes.
 *
 * Each emitter renders fixed inputs, and the output must match the
 * bytes (or FNV-1a digest) recorded here. Two things vary between
 * builds and runs, and are normalised first:
 *  - the build stamp, in its compact and its spaced spelling, becomes
 *    the constant BUILD;
 *  - wall-clock numbers ("wall_ms", "ms", "ts", and every "*_us"
 *    through serve::scrubServeTimings) become 0.
 *
 * Cover, trace and analyze documents are pinned on all 40 testbed
 * variants; the other emitters run on D1 and on hand-built inputs whose
 * strings carry every byte class the escaper treats differently.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analyze/analyze.hh"
#include "bugbase/testbed.hh"
#include "cover/run.hh"
#include "cover/snapshot.hh"
#include "debug/engine.hh"
#include "debug/repl.hh"
#include "debug/workload.hh"
#include "fuzz/runner.hh"
#include "lint/lint.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/reqlog.hh"
#include "obs/trace.hh"
#include "serve/server.hh"
#include "serve/stats.hh"
#include "sim/profiler.hh"
#include "trace/json.hh"
#include "trace/run.hh"

using namespace hwdbg;

namespace
{

/** Quote, backslash, \n, \t, \r, 0x01, 0x7f and two UTF-8 sequences. */
const std::string kOdd = "q\" b\\ n\n t\t r\r c\x01 d\x7f u\xc3\xa9\xe2\x82\xac";

uint64_t
fnv1a(const std::string &text)
{
    uint64_t hash = 14695981039346656037ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

void
replaceAll(std::string &text, const std::string &from, const std::string &to)
{
    for (size_t at = text.find(from); at != std::string::npos;
         at = text.find(from, at + to.size()))
        text.replace(at, from.size(), to);
}

/** Replace the number after every `"key": ` / `"key":` with 0. */
void
zeroNumbers(std::string &text, const std::string &key)
{
    std::string marker = "\"" + key + "\":";
    for (size_t at = text.find(marker); at != std::string::npos;
         at = text.find(marker, at + 1)) {
        size_t begin = at + marker.size();
        while (begin < text.size() && text[begin] == ' ')
            ++begin;
        size_t end = begin;
        while (end < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[end])) ||
                text[end] == '.'))
            ++end;
        if (end > begin)
            text.replace(begin, end - begin, "0");
    }
}

/** The normalised form every pin compares. */
std::string
pin(std::string text)
{
    const obs::BuildInfo &info = obs::buildInfo();
    replaceAll(text, obs::buildInfoJson(), "BUILD");
    replaceAll(text,
               "{\"tool\": \"hwdbg\", \"version\": \"" + info.version +
                   "\", \"git\": \"" + info.git + "\", \"type\": \"" +
                   info.buildType + "\"}",
               "BUILD");
    for (const char *key : {"wall_ms", "ms", "ts"})
        zeroNumbers(text, key);
    return serve::scrubServeTimings(text);
}

/** @p text as a C++ string literal, one source line per text line. */
std::string
cLiteral(const std::string &text)
{
    std::string out = "\"";
    for (unsigned char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += char(c);
        } else if (c == '\n') {
            out += "\\n\"\n\"";
        } else if (c < 0x20 || c >= 0x7f) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\x%02x\"\"", c);
            out += buf;
        } else {
            out += char(c);
        }
    }
    return out + "\"";
}

#define EXPECT_PINNED(actual, expected)                                 \
    do {                                                                \
        std::string pinned_ = pin(actual);                              \
        EXPECT_EQ(pinned_, expected) << "\n--- actual ---\n"           \
                                     << cLiteral(pinned_)               \
                                     << "\n--- end ---";                \
    } while (0)

#define EXPECT_DIGEST(actual, expected)                                 \
    do {                                                                \
        std::string pinned_ = pin(actual);                              \
        char hex_[24];                                                  \
        std::snprintf(hex_, sizeof hex_, "0x%016llx",                   \
                      static_cast<unsigned long long>(fnv1a(pinned_))); \
        EXPECT_EQ(fnv1a(pinned_), uint64_t(expected))                   \
            << "\n--- actual digest " << hex_ << " ---\n" << pinned_;    \
    } while (0)

struct VariantDigests
{
    const char *variant;
    uint64_t cover, trace, analyze;
};

// clang-format off
const VariantDigests kTestbed[] = {
    {"D1 buggy", 0x62e130be75759b22ull, 0x34e20820a8882b86ull, 0xdbe3b9e9c0e46097ull},
    {"D1 fixed", 0x11e6e66a1605f3ebull, 0xd8f9e4d85317c937ull, 0xdbe3b9e9c0e46097ull},
    {"D2 buggy", 0xb908b407d361c986ull, 0xa49875c7be4d05beull, 0x28a971196898fe00ull},
    {"D2 fixed", 0xbd5fb0c9d30329a1ull, 0xb9cdde64a2c366ceull, 0xdbe3b9e9c0e46097ull},
    {"D3 buggy", 0xa73af6716a941ac9ull, 0x977a3894172ce728ull, 0x13efc9cade00345cull},
    {"D3 fixed", 0x242752174df52f7aull, 0x8632c840642ef396ull, 0x5a0950e165ff494cull},
    {"D4 buggy", 0x63b06d83bc3d9042ull, 0xf10724e72e5b0dfcull, 0xca36eda0db3adec4ull},
    {"D4 fixed", 0x6d62ec1654980156ull, 0x01bc7431cae86fa8ull, 0xdbe3b9e9c0e46097ull},
    {"D5 buggy", 0x6dcd3c048d2b204full, 0xb22fc22fc488bdd1ull, 0xdbe3b9e9c0e46097ull},
    {"D5 fixed", 0x5270bf2a274caa41ull, 0x48b7493eb9b56c12ull, 0xdbe3b9e9c0e46097ull},
    {"D6 buggy", 0xc61b6028582154a9ull, 0x3527ea7920b291d6ull, 0xdbe3b9e9c0e46097ull},
    {"D6 fixed", 0x6f54c3a04a51532dull, 0xd6b09292d00fbf16ull, 0xdbe3b9e9c0e46097ull},
    {"D7 buggy", 0xb691a534ebff2baeull, 0x846bb07eb28ae24cull, 0xcd39960709129bc9ull},
    {"D7 fixed", 0xc5e05d02ce82bfe7ull, 0x1a21a9e726eac408ull, 0xcd39960709129bc9ull},
    {"D8 buggy", 0x6e50af06ac06107dull, 0xf10381dce2bef04cull, 0xdbe3b9e9c0e46097ull},
    {"D8 fixed", 0x24eb68eb23718157ull, 0xc95d19426f3de156ull, 0xdbe3b9e9c0e46097ull},
    {"D9 buggy", 0x1d6cbb1ae6b42b42ull, 0xdec3bebc168c79b2ull, 0xdbe3b9e9c0e46097ull},
    {"D9 fixed", 0x4e00b6fc17fb7826ull, 0xc125107363af483eull, 0xdbe3b9e9c0e46097ull},
    {"D10 buggy", 0xf2f3abc93683b739ull, 0x009f2f554ec1004cull, 0xdbe3b9e9c0e46097ull},
    {"D10 fixed", 0xb77a9a72b0a0571eull, 0x1da190958a7f37e9ull, 0xdbe3b9e9c0e46097ull},
    {"D11 buggy", 0x1c9b880629c31a3bull, 0x3920fac4d8797a04ull, 0xdbe3b9e9c0e46097ull},
    {"D11 fixed", 0x2372828b7ae0700bull, 0xdbc939d08d6b94fcull, 0xdbe3b9e9c0e46097ull},
    {"D12 buggy", 0xf9b0eb11d2e84a10ull, 0x1dbd3281a722dbefull, 0xdbe3b9e9c0e46097ull},
    {"D12 fixed", 0xa4a8fcc4c2f025e6ull, 0xac1eccee23ec75f0ull, 0xdbe3b9e9c0e46097ull},
    {"D13 buggy", 0xeac346220443dbb6ull, 0x3b963f089401fc56ull, 0xdbe3b9e9c0e46097ull},
    {"D13 fixed", 0x9211e48e2fac739bull, 0x3be8940bbd01e5d8ull, 0xdbe3b9e9c0e46097ull},
    {"C1 buggy", 0x66e13170241f01caull, 0x46b598e5dbb0b7c9ull, 0x99c5af8527756a14ull},
    {"C1 fixed", 0x0c3498d962ac4331ull, 0x48e0926f0d3d5eedull, 0xdbe3b9e9c0e46097ull},
    {"C2 buggy", 0x2b7b30d30124f501ull, 0x57bfd445a2f1cb9bull, 0x5a0950e165ff494cull},
    {"C2 fixed", 0x9532d9e9ba31d0eaull, 0x5ffd361d50f84529ull, 0x5a0950e165ff494cull},
    {"C3 buggy", 0xbdad878a6bca4637ull, 0x28e08a9d0310e4dbull, 0xdbe3b9e9c0e46097ull},
    {"C3 fixed", 0xd93241fa748752bfull, 0x8ef8d84b4696ba63ull, 0xdbe3b9e9c0e46097ull},
    {"C4 buggy", 0xa41366643b875a9aull, 0x58cc7c35a9cc7ee7ull, 0xdbe3b9e9c0e46097ull},
    {"C4 fixed", 0xb8c5ceb1a47781cbull, 0x844e4505fa156593ull, 0xdbe3b9e9c0e46097ull},
    {"S1 buggy", 0x6f7807ea0b8755f8ull, 0xb4e4189548a05c41ull, 0xdbe3b9e9c0e46097ull},
    {"S1 fixed", 0x9a19405de3cf3b25ull, 0x1afa7a03c793c622ull, 0xdbe3b9e9c0e46097ull},
    {"S2 buggy", 0x3d0636c05aa2dc31ull, 0x30b0de88cc5ab3ceull, 0xdbe3b9e9c0e46097ull},
    {"S2 fixed", 0xc4296a942a75ce39ull, 0xd217ebfa1d4f2c8bull, 0xdbe3b9e9c0e46097ull},
    {"S3 buggy", 0xf40d4edc3e61618eull, 0xb5ff16f29d1e84d3ull, 0xdbe3b9e9c0e46097ull},
    {"S3 fixed", 0x074f59206927675aull, 0x1e128af7f515a154ull, 0xdbe3b9e9c0e46097ull},
};
// clang-format on

} // namespace

TEST(JsonPin, CoverTraceAnalyzeOnEveryTestbedVariant)
{
    std::string table;
    size_t row = 0;
    for (const auto &bug : bugs::testbedBugs()) {
        for (bool buggy : {true, false}) {
            std::string variant = bug.id + (buggy ? " buggy" : " fixed");
            auto cover = pin(cover::toJson(cover::coverBugWorkload(bug, buggy)));
            auto trace = pin(
                trace::toJson(trace::traceBugWorkload(bug, buggy, {})));
            auto mod = bugs::buildDesign(bug, buggy).mod;
            auto analyze = pin(analyze::renderAnalyzeJson(
                analyze::selectedPasses({}), analyze::runAnalyze(*mod)));
            char line[160];
            std::snprintf(line, sizeof line,
                          "    {\"%s\", 0x%016llxull, 0x%016llxull, "
                          "0x%016llxull},\n",
                          variant.c_str(),
                          static_cast<unsigned long long>(fnv1a(cover)),
                          static_cast<unsigned long long>(fnv1a(trace)),
                          static_cast<unsigned long long>(fnv1a(analyze)));
            table += line;
            bool match = row < std::size(kTestbed) &&
                         kTestbed[row].variant == variant &&
                         kTestbed[row].cover == fnv1a(cover) &&
                         kTestbed[row].trace == fnv1a(trace) &&
                         kTestbed[row].analyze == fnv1a(analyze);
            EXPECT_TRUE(match) << variant;
            ++row;
        }
    }
    EXPECT_EQ(row, std::size(kTestbed));
    if (::testing::Test::HasFailure())
        std::printf("actual table:\n%s", table.c_str());
}

TEST(JsonPin, CoverDocumentOfHandBuiltSnapshot)
{
    cover::Snapshot snap;
    snap.top = "top" + kOdd;
    snap.fingerprint = 0x0123456789abcdefull;
    snap.workloads = {"bug:" + kOdd, "seed:7"};
    snap.signals = {{"a" + kOdd, 3, "s" + kOdd, {0x5}, {0x2}},
                    {"wide", 70, "", {~0ull, 0x3f}, {0x1, 0}}};
    snap.statements = {{"if", "f.v:1:2" + kOdd, "s" + kOdd, true},
                       {"assign", "", "", false}};
    snap.arms = {{0, "then" + kOdd, true}, {1, "else", false}};
    cover::Snapshot::Fsm fsm;
    fsm.stateVar = "st" + kOdd;
    fsm.states = {0, 1, 0xff};
    fsm.seen = {true, false, true};
    fsm.transitions = {{false, 0, 1, true}, {true, 1, 0xff, false}};
    fsm.unexpectedStates = {7};
    fsm.unexpectedTransitions = {{1, 7}, {7, 0}};
    snap.fsms.push_back(fsm);
    snap.fsms.push_back(cover::Snapshot::Fsm{"empty", {}, {}, {}, {}, {}});
    EXPECT_PINNED(cover::toJson(snap),
        "{\"format\": \"hwdbg-cover\", \"version\": 1,\n"
        "\"build\": {\"tool\": \"hwdbg\", \"version\": \"\", \"git\": \"\", \"type\": \"\"},\n"
        "\"design\": {\"top\": \"topq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"fingerprint\": \"0x0123456789abcdef\"},\n"
        "\"workloads\": [\"bug:q\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"seed:7\"],\n"
        "\"signals\": [\n"
        " {\"name\": \"aq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"width\": 3, \"scope\": \"sq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"rise\": \"0x5\", \"fall\": \"0x2\"},\n"
        " {\"name\": \"wide\", \"width\": 70, \"scope\": \"\", \"rise\": \"0x3fffffffffffffffff\", \"fall\": \"0x000000000000000001\"}],\n"
        "\"statements\": [\n"
        " {\"kind\": \"if\", \"loc\": \"f.v:1:2q\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"scope\": \"sq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"hit\": true},\n"
        " {\"kind\": \"assign\", \"loc\": \"\", \"scope\": \"\", \"hit\": false}],\n"
        "\"arms\": [\n"
        " {\"stmt\": 0, \"label\": \"thenq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"taken\": true},\n"
        " {\"stmt\": 1, \"label\": \"else\", \"taken\": false}],\n"
        "\"fsms\": [\n"
        " {\"state_var\": \"stq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"states\": [\"0x0\", \"0x1\", \"0xff\"], \"seen\": [true, false, true], \"transitions\": [{\"to\": \"0x1\", \"seen\": true}, {\"from\": \"0x1\", \"to\": \"0xff\", \"seen\": false}], \"unexpected_states\": [\"0x7\"], \"unexpected_transitions\": [[\"0x1\", \"0x7\"], [\"0x7\", \"0x0\"]]},\n"
        " {\"state_var\": \"empty\", \"states\": [], \"seen\": [], \"transitions\": [], \"unexpected_states\": [], \"unexpected_transitions\": []}],\n"
        "\"summary\": {\n"
        "  \"statements\": {\"covered\": 1, \"total\": 2, \"pct\": 50.0},\n"
        "  \"branches\": {\"covered\": 1, \"total\": 2, \"pct\": 50.0},\n"
        "  \"toggles\": {\"covered\": 74, \"total\": 146, \"pct\": 50.7},\n"
        "  \"fsm_states\": {\"covered\": 2, \"total\": 3, \"pct\": 66.7},\n"
        "  \"fsm_transitions\": {\"covered\": 1, \"total\": 2, \"pct\": 50.0},\n"
        "  \"overall\": {\"covered\": 79, \"total\": 155, \"pct\": 51.0},\n"
        "  \"modules\": [\n"
        "   {\"scope\": \"\", \"covered\": 71, \"total\": 142, \"pct\": 50.0},\n"
        "   {\"scope\": \"(top)\", \"covered\": 3, \"total\": 5, \"pct\": 60.0},\n"
        "   {\"scope\": \"sq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"covered\": 5, \"total\": 8, \"pct\": 62.5}]\n"
        "}\n"
        "}\n");

    EXPECT_PINNED(cover::toJson(cover::Snapshot{}),
        "{\"format\": \"hwdbg-cover\", \"version\": 1,\n"
        "\"build\": {\"tool\": \"hwdbg\", \"version\": \"\", \"git\": \"\", \"type\": \"\"},\n"
        "\"design\": {\"top\": \"\", \"fingerprint\": \"0x0000000000000000\"},\n"
        "\"workloads\": [],\n"
        "\"signals\": [],\n"
        "\"statements\": [],\n"
        "\"arms\": [],\n"
        "\"fsms\": [],\n"
        "\"summary\": {\n"
        "  \"statements\": {\"covered\": 0, \"total\": 0, \"pct\": 0.0},\n"
        "  \"branches\": {\"covered\": 0, \"total\": 0, \"pct\": 0.0},\n"
        "  \"toggles\": {\"covered\": 0, \"total\": 0, \"pct\": 0.0},\n"
        "  \"fsm_states\": {\"covered\": 0, \"total\": 0, \"pct\": 0.0},\n"
        "  \"fsm_transitions\": {\"covered\": 0, \"total\": 0, \"pct\": 0.0},\n"
        "  \"overall\": {\"covered\": 0, \"total\": 0, \"pct\": 0.0},\n"
        "  \"modules\": []\n"
        "}\n"
        "}\n");
}

TEST(JsonPin, TraceDocumentOfHandBuiltDump)
{
    trace::TraceDump dump;
    dump.top = "top" + kOdd;
    dump.workload = "w" + kOdd;
    dump.backend = "b" + kOdd;
    dump.config.signals = {"s*" + kOdd, "x"};
    dump.config.trigger = "t == 1" + kOdd;
    dump.config.budgetBytes = 64;
    dump.config.prePct = 25;
    dump.rowBytes = 16;
    dump.depth = 4;
    dump.preDepth = 1;
    dump.postDepth = 3;
    dump.armed = true;
    dump.fired = true;
    dump.triggerSeq = 0x1f;
    dump.triggerCycle = 9;
    dump.triggerFires = 2;
    dump.samples = 11;
    dump.drops = 7;
    dump.signals = {{0, -1, "n" + kOdd, 5, "l" + kOdd},
                    {1, 2, "mem[2]", 70, ""}};
    dump.rows.push_back({3, 1, {Bits(5, 0x11), Bits(70, 0x123)}});
    dump.rows.push_back({4, 2, {Bits(5, 0), Bits(70, ~0ull)}});
    EXPECT_PINNED(trace::toJson(dump),
        "{\"format\": \"hwdbg-trace\", \"version\": 1,\n"
        "\"build\": BUILD,\n"
        "\"design\": {\"top\": \"topq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\"},\n"
        "\"workload\": \"wq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\",\n"
        "\"backend\": \"bq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\",\n"
        "\"config\": {\"signals\": [\"s*q\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"x\"], \"trigger\": \"t == 1q\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"budget_bytes\": 64, \"pre_pct\": 25},\n"
        "\"window\": {\"row_bytes\": 16, \"depth\": 4, \"pre_depth\": 1, \"post_depth\": 3},\n"
        "\"trigger\": {\"armed\": true, \"fired\": true, \"seq\": \"0x1f\", \"cycle\": \"0x9\", \"fires\": 2},\n"
        "\"stats\": {\"samples\": 11, \"drops\": 7},\n"
        "\"signals\": [\n"
        " {\"name\": \"nq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"width\": 5, \"loc\": \"lq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\"},\n"
        " {\"name\": \"mem[2]\", \"width\": 70, \"loc\": \"\"}],\n"
        "\"rows\": [\n"
        " {\"seq\": \"0x3\", \"cycle\": \"0x1\", \"values\": [\"0x11\", \"0x000000000000000123\"]},\n"
        " {\"seq\": \"0x4\", \"cycle\": \"0x2\", \"values\": [\"0x00\", \"0x00ffffffffffffffff\"]}]\n"
        "}\n");

    EXPECT_PINNED(trace::toJson(trace::TraceDump{}),
        "{\"format\": \"hwdbg-trace\", \"version\": 1,\n"
        "\"build\": BUILD,\n"
        "\"design\": {\"top\": \"\"},\n"
        "\"workload\": \"\",\n"
        "\"backend\": \"\",\n"
        "\"config\": {\"signals\": [], \"trigger\": \"\", \"budget_bytes\": 4096, \"pre_pct\": 50},\n"
        "\"window\": {\"row_bytes\": 0, \"depth\": 0, \"pre_depth\": 0, \"post_depth\": 0},\n"
        "\"trigger\": {\"armed\": false, \"fired\": false, \"seq\": \"0x0\", \"cycle\": \"0x0\", \"fires\": 0},\n"
        "\"stats\": {\"samples\": 0, \"drops\": 0},\n"
        "\"signals\": [],\n"
        "\"rows\": []\n"
        "}\n");
}

TEST(JsonPin, DiagnosticsAndAnalyzeReports)
{
    analyze::Diagnostic diag;
    diag.rule = "r" + kOdd;
    diag.severity = analyze::Severity::Error;
    diag.subclass = "sub" + kOdd;
    diag.loc.file = "f" + kOdd + ".v";
    diag.loc.line = 12;
    diag.loc.col = 3;
    diag.message = "m" + kOdd;
    diag.signals = {"a" + kOdd, "b"};
    analyze::Diagnostic plain;
    plain.rule = "plain";
    std::vector<analyze::Diagnostic> diags = {diag, plain};

    EXPECT_PINNED(analyze::renderJson(diags),
        "[\n"
        "  {\"rule\": \"rq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"severity\": \"error\", \"subclass\": \"subq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"file\": \"fq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac"".v\", \"line\": 12, \"col\": 3, \"message\": \"mq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"signals\": [\"aq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"b\"]},\n"
        "  {\"rule\": \"plain\", \"severity\": \"warning\", \"subclass\": \"\", \"file\": \"\", \"line\": 0, \"col\": 0, \"message\": \"\", \"signals\": []}\n"
        "]\n");
    EXPECT_PINNED(analyze::renderJson({}),
        "[\n"
        "]\n");
    EXPECT_PINNED(analyze::renderAnalyzeJson({"const", "p" + kOdd}, diags),
        "{\"format\": \"hwdbg-analyze\", \"version\": 1,\n"
        "\"build\": BUILD,\n"
        "\"passes\": [\"const\", \"pq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\"],\n"
        "\"diagnostics\": [\n"
        "  {\"rule\": \"rq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"severity\": \"error\", \"subclass\": \"subq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"file\": \"fq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac"".v\", \"line\": 12, \"col\": 3, \"message\": \"mq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"signals\": [\"aq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"b\"]},\n"
        "  {\"rule\": \"plain\", \"severity\": \"warning\", \"subclass\": \"\", \"file\": \"\", \"line\": 0, \"col\": 0, \"message\": \"\", \"signals\": []}\n"
        "]}\n");
    EXPECT_PINNED(analyze::renderAnalyzeJson({}, {}),
        "{\"format\": \"hwdbg-analyze\", \"version\": 1,\n"
        "\"build\": BUILD,\n"
        "\"passes\": [],\n"
        "\"diagnostics\": [\n"
        "]}\n");

    auto mod = bugs::buildDesign(bugs::bugById("D1"), true).mod;
    EXPECT_DIGEST(lint::renderJson(lint::runLint(*mod)),
        0x957bcb65661cdaa7ull);
}

TEST(JsonPin, ProfileReports)
{
    sim::ProfileReport report;
    report.top = "top" + kOdd;
    report.seed = 3;
    report.cyclesRequested = 10;
    report.cyclesRun = 9;
    report.finished = true;
    report.wallMs = 1.23456;
    report.settleCalls = 4;
    report.maxSettleDepth = 2;
    report.settleHist = {0, 3, 1};
    report.rows = {{"seq", "always" + kOdd, "f.v:1:1" + kOdd, 5, 0.0005,
                    50},
                   {"comb", "c", "", 0, 2.5, 50}};
    report.signals = {{"s" + kOdd, 4}, {"t", 1}};
    sim::ProfileOptions opts;
    EXPECT_PINNED(sim::renderProfileJson(report, opts),
        "{\n"
        "  \"top\": \"topq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\",\n"
        "  \"seed\": 3,\n"
        "  \"cycles_requested\": 10,\n"
        "  \"cycles_run\": 9,\n"
        "  \"finished\": true,\n"
        "  \"wall_ms\": 0,\n"
        "  \"rank\": \"time\",\n"
        "  \"settle\": {\"calls\": 4, \"max_depth\": 2, \"by_depth\": [0, 3, 1]},\n"
        "  \"constructs\": [\n"
        "    {\"rank\": 1, \"kind\": \"seq\", \"label\": \"alwaysq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"loc\": \"f.v:1:1q\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"evals\": 5, \"ms\": 0},\n"
        "    {\"rank\": 2, \"kind\": \"comb\", \"label\": \"c\", \"loc\": \"\", \"evals\": 0, \"ms\": 0}\n"
        "  ],\n"
        "  \"signals\": [\n"
        "    {\"name\": \"sq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"toggles\": 4},\n"
        "    {\"name\": \"t\", \"toggles\": 1}\n"
        "  ]\n"
        "}\n");
    opts.rank = sim::ProfileOptions::Rank::Evals;
    EXPECT_PINNED(sim::renderProfileJson(sim::ProfileReport{}, opts),
        "{\n"
        "  \"top\": \"\",\n"
        "  \"seed\": 0,\n"
        "  \"cycles_requested\": 0,\n"
        "  \"cycles_run\": 0,\n"
        "  \"finished\": false,\n"
        "  \"wall_ms\": 0,\n"
        "  \"rank\": \"evals\",\n"
        "  \"settle\": {\"calls\": 0, \"max_depth\": 0, \"by_depth\": []},\n"
        "  \"constructs\": [\n"
        "  ],\n"
        "  \"signals\": [\n"
        "  ]\n"
        "}\n");

    auto mod = bugs::buildDesign(bugs::bugById("D1"), true).mod;
    EXPECT_DIGEST(sim::renderProfileJson(sim::profileDesign(mod, opts), opts),
        0xb2109fdcf97688dbull);
}

TEST(JsonPin, FuzzReports)
{
    fuzz::FuzzConfig config;
    config.json = true;
    config.seeds = 5;
    EXPECT_PINNED(fuzz::renderReport(fuzz::runFuzz(config), config),
        "{\n"
        "  \"mode\": \"fuzz\",\n"
        "  \"build\": BUILD,\n"
        "  \"start\": 0,\n"
        "  \"seeds\": 5,\n"
        "  \"cycles\": 24,\n"
        "  \"oracles\": [\"roundtrip\", \"differential\", \"lint\", \"instrument\"],\n"
        "  \"failures\": [\n"
        "  ],\n"
        "  \"ok\": true\n"
        "}\n");

    fuzz::FuzzReport report;
    report.seedsRun = 3;
    report.failures.push_back(
        {4, fuzz::Oracle::Differential, "d" + kOdd, "", 0, 0, 0});
    report.failures.push_back({5, fuzz::Oracle::Roundtrip, "e",
                               "module m" + kOdd, 9, 2, 31});
    report.order.flagged = 1;
    report.order.confirmed = 2;
    report.order.unrefuted = 3;
    report.coverage = {{1, 10, 10}, {2, 12, 2}};
    report.coverKeys = 12;
    report.coverPlateaued = true;
    report.coverPlateauSeed = 2;
    fuzz::FuzzConfig wide = config;
    wide.mask = 0xFFFFFFFF;
    wide.cover = true;
    wide.coverPlateau = 8;
    EXPECT_PINNED(fuzz::renderReport(report, wide),
        "{\n"
        "  \"mode\": \"fuzz\",\n"
        "  \"build\": BUILD,\n"
        "  \"start\": 0,\n"
        "  \"seeds\": 3,\n"
        "  \"cycles\": 24,\n"
        "  \"oracles\": [\"roundtrip\", \"differential\", \"lint\", \"instrument\", \"order\", \"xbackend\", \"xtrace\"],\n"
        "  \"failures\": [\n"
        "    {\"seed\": 4, \"oracle\": \"differential\", \"detail\": \"dq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\"},\n"
        "    {\"seed\": 5, \"oracle\": \"roundtrip\", \"detail\": \"e\", \"items_before\": 9, \"items_after\": 2, \"shrink_attempts\": 31, \"reproducer\": \"module mq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\"}\n"
        "  ],\n"
        "  \"order\": {\"flagged\": 1, \"confirmed\": 2, \"unrefuted\": 3},\n"
        "  \"coverage\": {\n"
        "    \"keys\": 12,\n"
        "    \"plateau_window\": 8,\n"
        "    \"plateaued\": true,\n"
        "    \"plateau_seed\": 2,\n"
        "    \"seeds\": [\n"
        "      {\"seed\": 1, \"keys\": 10, \"new\": 10},\n"
        "      {\"seed\": 2, \"keys\": 12, \"new\": 2}\n"
        "    ]\n"
        "  },\n"
        "  \"ok\": false\n"
        "}\n");
    report.coverPlateaued = false;
    fuzz::FuzzConfig replay = wide;
    replay.replay = true;
    replay.replaySeed = 42;
    EXPECT_PINNED(fuzz::renderReport(report, replay),
        "{\n"
        "  \"mode\": \"replay\",\n"
        "  \"build\": BUILD,\n"
        "  \"start\": 42,\n"
        "  \"seeds\": 3,\n"
        "  \"cycles\": 24,\n"
        "  \"oracles\": [\"roundtrip\", \"differential\", \"lint\", \"instrument\", \"order\", \"xbackend\", \"xtrace\"],\n"
        "  \"failures\": [\n"
        "    {\"seed\": 4, \"oracle\": \"differential\", \"detail\": \"dq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\"},\n"
        "    {\"seed\": 5, \"oracle\": \"roundtrip\", \"detail\": \"e\", \"items_before\": 9, \"items_after\": 2, \"shrink_attempts\": 31, \"reproducer\": \"module mq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\"}\n"
        "  ],\n"
        "  \"order\": {\"flagged\": 1, \"confirmed\": 2, \"unrefuted\": 3},\n"
        "  \"coverage\": {\n"
        "    \"keys\": 12,\n"
        "    \"plateau_window\": 8,\n"
        "    \"plateaued\": false,\n"
        "    \"seeds\": [\n"
        "      {\"seed\": 1, \"keys\": 10, \"new\": 10},\n"
        "      {\"seed\": 2, \"keys\": 12, \"new\": 2}\n"
        "    ]\n"
        "  },\n"
        "  \"ok\": false\n"
        "}\n");

    fuzz::FuzzReport self;
    self.selfCheck = true;
    self.seedsRun = 2;
    self.mutations.push_back({1, "flip" + kOdd, "xbackend" + kOdd, true, 6,
                              "differential", "det" + kOdd, "rep" + kOdd,
                              7});
    self.mutations.push_back({2, "none", "lint", false, 0, "", "", "", 9});
    EXPECT_PINNED(fuzz::renderReport(self, config),
        "{\n"
        "  \"mode\": \"self-check\",\n"
        "  \"build\": BUILD,\n"
        "  \"start\": 0,\n"
        "  \"seeds\": 2,\n"
        "  \"cycles\": 24,\n"
        "  \"oracles\": [\"roundtrip\", \"differential\", \"lint\", \"instrument\"],\n"
        "  \"mutations\": [\n"
        "    {\"id\": 1, \"description\": \"flipq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"expected_oracle\": \"xbackendq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"caught\": true, \"seed\": 6, \"caught_by\": \"differential\", \"detail\": \"detq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"reproducer\": \"repq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"seeds_tried\": 7},\n"
        "    {\"id\": 2, \"description\": \"none\", \"expected_oracle\": \"lint\", \"caught\": false, \"seeds_tried\": 9}\n"
        "  ],\n"
        "  \"caught\": 1,\n"
        "  \"total\": 2,\n"
        "  \"ok\": false\n"
        "}\n");
    EXPECT_PINNED(fuzz::renderReport(fuzz::FuzzReport{}, config),
        "{\n"
        "  \"mode\": \"fuzz\",\n"
        "  \"build\": BUILD,\n"
        "  \"start\": 0,\n"
        "  \"seeds\": 0,\n"
        "  \"cycles\": 24,\n"
        "  \"oracles\": [\"roundtrip\", \"differential\", \"lint\", \"instrument\"],\n"
        "  \"failures\": [\n"
        "  ],\n"
        "  \"ok\": true\n"
        "}\n");
}

TEST(JsonPin, MetricsDocument)
{
    obs::enableMetrics(true);
    obs::resetMetrics();
    obs::counter("pin.counter.a").inc(3);
    obs::counter("pin.counter.b");
    obs::gauge("pin.gauge").set(77);
    obs::Histogram &ladder = obs::histogram("pin.hist.ladder");
    for (uint64_t v : {0, 1, 3, 70000})
        ladder.record(v);
    obs::histogram("pin.hist.custom", {10, 100}).record(50);
    obs::histogram("pin.hist.empty", {5});
    std::string json = obs::metricsJson();
    obs::enableMetrics(false);
    EXPECT_PINNED(json,
        "{\n"
        "  \"build\": BUILD,\n"
        "  \"counters\": {\n"
        "    \"pin.counter.a\": 3,\n"
        "    \"pin.counter.b\": 0\n"
        "  },\n"
        "  \"gauges\": {\n"
        "    \"pin.gauge\": 77\n"
        "  },\n"
        "  \"histograms\": {\n"
        "    \"pin.hist.custom\": {\"buckets\": [[10, 0], [100, 1], [null, 0]], \"count\": 1, \"sum\": 50, \"min\": 50, \"max\": 50},\n"
        "    \"pin.hist.empty\": {\"buckets\": [[5, 0], [null, 0]], \"count\": 0, \"sum\": 0, \"min\": 0, \"max\": 0},\n"
        "    \"pin.hist.ladder\": {\"buckets\": [[1, 2], [2, 0], [4, 1], [8, 0], [16, 0], [32, 0], [64, 0], [128, 0], [256, 0], [512, 0], [1024, 0], [2048, 0], [4096, 0], [8192, 0], [16384, 0], [32768, 0], [65536, 0], [null, 1]], \"count\": 4, \"sum\": 70004, \"min\": 0, \"max\": 70000}\n"
        "  }\n"
        "}\n");
}

TEST(JsonPin, ChromeTraceDocument)
{
    obs::startTrace();
    {
        obs::ObsSpan outer("outer" + kOdd);
        obs::ObsSpan inner("inner");
    }
    uint32_t track = obs::traceRegisterTrack("track" + kOdd);
    {
        obs::ObsSpan onTrack("on-track", track);
    }
    std::thread worker([] {
        obs::setTraceThreadName("worker" + kOdd);
        obs::ObsSpan span("worker-span");
    });
    worker.join();
    EXPECT_PINNED(obs::stopTrace(),
        "{\"build\": BUILD,\n"
        "\"traceEvents\": [\n"
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"args\": {\"name\": \"main\"}},\n"
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 2, \"args\": {\"name\": \"trackq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\"}},\n"
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 3, \"args\": {\"name\": \"workerq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\"}},\n"
        "{\"name\": \"outerq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"cat\": \"hwdbg\", \"ph\": \"B\", \"ts\": 0, \"pid\": 1, \"tid\": 1},\n"
        "{\"name\": \"inner\", \"cat\": \"hwdbg\", \"ph\": \"B\", \"ts\": 0, \"pid\": 1, \"tid\": 1},\n"
        "{\"name\": \"\", \"cat\": \"hwdbg\", \"ph\": \"E\", \"ts\": 0, \"pid\": 1, \"tid\": 1},\n"
        "{\"name\": \"\", \"cat\": \"hwdbg\", \"ph\": \"E\", \"ts\": 0, \"pid\": 1, \"tid\": 1},\n"
        "{\"name\": \"on-track\", \"cat\": \"hwdbg\", \"ph\": \"B\", \"ts\": 0, \"pid\": 1, \"tid\": 2},\n"
        "{\"name\": \"\", \"cat\": \"hwdbg\", \"ph\": \"E\", \"ts\": 0, \"pid\": 1, \"tid\": 2},\n"
        "{\"name\": \"worker-span\", \"cat\": \"hwdbg\", \"ph\": \"B\", \"ts\": 0, \"pid\": 1, \"tid\": 3},\n"
        "{\"name\": \"\", \"cat\": \"hwdbg\", \"ph\": \"E\", \"ts\": 0, \"pid\": 1, \"tid\": 3}\n"
        "], \"displayTimeUnit\": \"ms\"}\n");
}

TEST(JsonPin, RequestEventsAndBuildStamp)
{
    EXPECT_PINNED(obs::RequestLog::eventJson({12, 3, "cmd" + kOdd, false,
                                              456}),
        "{\"request\": 12, \"session\": 3, \"cmd\": \"cmdq\\\" b\\\\ n\\n t\\t r\\r c\\u0001 d\x7f u\xc3\xa9\xe2\x82\xac""\", \"ok\": false, \"latency_us\": 0}");
    EXPECT_PINNED(obs::RequestLog::eventJson({1, 0, "open", true, 0}),
        "{\"request\": 1, \"session\": 0, \"cmd\": \"open\", \"ok\": true, \"latency_us\": 0}");
    EXPECT_EQ(pin(obs::buildInfoJson()), "BUILD");
    const obs::BuildInfo &info = obs::buildInfo();
    EXPECT_EQ(obs::buildInfoJson(),
              "{\"tool\":\"hwdbg\",\"version\":\"" + info.version +
                  "\",\"git\":\"" + info.git + "\",\"type\":\"" +
                  info.buildType + "\"}");
}

TEST(JsonPin, DebugMachineTranscriptOnD1)
{
    debug::WorkloadSpec spec;
    spec.bug = "D1";
    spec.instrument = true;
    debug::Workload w = debug::buildWorkload(spec);
    debug::EngineOptions eopts;
    eopts.constants = w.constants;
    debug::Engine engine(w.instrumented, w.instrumentedFacts, w.tape, eopts);

    std::string dumpPath = ::testing::TempDir() + "hwdbg_json_pin.json";
    std::string script =
        "help\n"
        "help step\n"
        "break state == 2\n"
        "watch acc\n"
        "break event fsm:state\n"
        "break at rsd.v:30 if rst == 0\n"
        "info breakpoints\n"
        "disable 2\n"
        "enable 2\n"
        "delete 2\n"
        "record start trigger=state==2 budget=512 pre=25\n"
        "record status\n"
        "run\n"
        "step 3\n"
        "run-until wr_idx == 0\n"
        "print acc + 1\n"
        "backtrace acc 2\n"
        "reverse-step 2\n"
        "goto-cycle 5\n"
        "events\n"
        "cover\n"
        "log 3\n"
        "record stop\n"
        "record dump " + dumpPath + "\n"
        "info checkpoints\n"
        "{\"id\":4,\"cmd\":\"print\",\"args\":[\"state\"]}\n"
        "{\"id\":5,\"cmd\":\"help\",\"args\":[\"a\\\"b\\\\c\\u0001\\u007f\xc3\xa9\"]}\n"
        "{\"id\":6,\"cmd\":\"x\\ty\\nz\\r\\\"\\\\\\u0001\\u007f\xe2\x82\xac\"}\n"
        "{\"id\":7,\"cmd\":\"step\",\"args\":[1]}\n"
        "bogus\n"
        "print no_such_signal\n"
        "record status\n"
        "quit\n";
    std::istringstream in(script);
    std::ostringstream out;
    debug::SessionOptions sopts;
    sopts.machine = true;
    debug::runSession(engine, in, out, sopts);
    std::remove(dumpPath.c_str());
    EXPECT_DIGEST(out.str(),
        0x48c4cb619c2ba788ull);
    EXPECT_EQ(debug::checkDebugTranscript(out.str()), "");
}

TEST(JsonPin, ServeTranscriptOnD1)
{
    serve::ServerOptions opts;
    opts.slowThresholdUs = 0; // every request is slow: a fixed ring
    serve::Server server(opts);
    std::string script =
        "help\n"
        "open debug bug=D1\n"
        "@1 step 3\n"
        "{\"session\":1,\"id\":2,\"cmd\":\"print\",\"args\":[\"state\"]}\n"
        "open cover bug=D1\n"
        "open trace bug=D1 signals=state,acc trigger=state==1\n"
        "open analyze bug=D1 fixed\n"
        "sessions\n"
        "health\n"
        "slow\n"
        "stats\n"
        "@2 step\n"
        "@9 step\n"
        "{\"id\":3,\"cmd\":\"open\",\"args\":[\"nope" "\\u0001\"]}\n"
        "{\"cmd\":\n"
        "close 1\n"
        "close 1\n"
        "quit\n";
    std::istringstream in(script);
    std::ostringstream out;
    server.runChannel(in, out);
    EXPECT_DIGEST(out.str(),
        0x02b90b42ca3c604dull);
    EXPECT_EQ(serve::checkServeTranscript(out.str()), "");
    EXPECT_PINNED(server.helloJson(),
        "{\"proto\":\"hwdbg-serve\",\"version\":1,\"build\":BUILD}");
}
