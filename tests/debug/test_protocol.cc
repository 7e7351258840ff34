/**
 * @file
 * Machine-protocol unit tests: request parsing (JSON and bare text),
 * ordered JSON rendering, and transcript schema validation.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "debug/engine.hh"
#include "debug/protocol.hh"
#include "debug/repl.hh"
#include "debug/workload.hh"

using namespace hwdbg::debug;

TEST(ProtocolTest, ParsesBareCommandLines)
{
    Request req = parseRequestLine("break count == 3");
    EXPECT_TRUE(req.error.empty());
    EXPECT_FALSE(req.hasId);
    EXPECT_EQ(req.cmd, "break");
    ASSERT_EQ(req.args.size(), 3u);
    EXPECT_EQ(req.args[0], "count");
    EXPECT_EQ(req.args[2], "3");
}

TEST(ProtocolTest, ParsesJsonRequests)
{
    Request req = parseRequestLine(
        "{\"id\":7,\"cmd\":\"break\",\"args\":[\"count == 3\"]}");
    EXPECT_TRUE(req.error.empty());
    EXPECT_TRUE(req.hasId);
    EXPECT_EQ(req.id, 7);
    EXPECT_EQ(req.cmd, "break");
    // Multi-word argument strings re-tokenize to the bare-line stream.
    ASSERT_EQ(req.args.size(), 3u);
    EXPECT_EQ(req.args[1], "==");
}

TEST(ProtocolTest, SkipsCommentsAndBlanks)
{
    EXPECT_TRUE(parseRequestLine("").cmd.empty());
    EXPECT_TRUE(parseRequestLine("   \t").cmd.empty());
    EXPECT_TRUE(parseRequestLine("# a comment").cmd.empty());
    EXPECT_TRUE(parseRequestLine("# a comment").error.empty());
}

TEST(ProtocolTest, RejectsMalformedRequests)
{
    EXPECT_FALSE(parseRequestLine("{not json").error.empty());
    EXPECT_FALSE(parseRequestLine("{\"id\":1}").error.empty());
    EXPECT_FALSE(
        parseRequestLine("{\"cmd\":\"run\",\"args\":\"x\"}").error.empty());
    EXPECT_FALSE(
        parseRequestLine("{\"cmd\":\"run\",\"args\":[1]}").error.empty());
}

TEST(ProtocolTest, RejectsIdsAndSessionsThatAreNotExactIntegers)
{
    // Each would otherwise cast to a different id than the client
    // sent, so the reply would match the wrong request.
    for (const char *bad :
         {"1e300", "-1e300", "1.5", "9007199254740994", "\"7\""}) {
        for (const char *key : {"id", "session"}) {
            std::string line = std::string("{\"") + key + "\":" + bad +
                               ",\"cmd\":\"sessions\"}";
            Request req = parseRequestLine(line);
            EXPECT_NE(req.error.find(key), std::string::npos)
                << line << " -> " << req.error;
            EXPECT_FALSE(req.hasId) << line;
            EXPECT_FALSE(req.hasSession) << line;
        }
    }
    Request req = parseRequestLine(
        "{\"id\":9007199254740991,\"session\":-2,\"cmd\":\"run\"}");
    EXPECT_EQ(req.error, "");
    EXPECT_EQ(req.id, 9007199254740991);
    EXPECT_EQ(req.session, -2);
    EXPECT_FALSE(parseRequestLine("@1234567890123456 run").error.empty());
    EXPECT_EQ(parseRequestLine("@123456789012345 run").session,
              123456789012345);
}

TEST(ProtocolTest, MalformedRequestStillEchoesItsValidIdAndSession)
{
    // A client multiplexing requests must still learn which one failed.
    Request req = parseRequestLine(
        "{\"id\":3,\"session\":2,\"cmd\":\"run\",\"args\":[1]}");
    EXPECT_EQ(req.error, "bad JSON request: args[0]: expected string");
    EXPECT_TRUE(req.hasId && req.hasSession);
    EXPECT_EQ(req.id, 3);
    EXPECT_EQ(req.session, 2);
    EXPECT_EQ(req.cmd, "run");

    req = parseRequestLine("{\"id\":4,\"session\":1}");
    EXPECT_EQ(req.error, "bad JSON request: cmd: missing");
    EXPECT_TRUE(req.hasId && req.hasSession);
    EXPECT_EQ(req.id, 4);

    // A bad id is not echoed, but it does not hide a valid session.
    req = parseRequestLine("{\"id\":1.5,\"session\":2,\"cmd\":\"run\"}");
    EXPECT_NE(req.error.find("id"), std::string::npos) << req.error;
    EXPECT_FALSE(req.hasId);
    EXPECT_TRUE(req.hasSession);
    EXPECT_EQ(req.session, 2);
}

TEST(ProtocolTest, RejectsHostileNestingAsAnError)
{
    std::string deep = "{\"cmd\":\"run\",\"args\":";
    for (int i = 0; i < 200000; ++i)
        deep += '[';
    Request req = parseRequestLine(deep);
    EXPECT_NE(req.error.find("nesting deeper than"), std::string::npos)
        << req.error.substr(0, 200);
}

TEST(ProtocolTest, MachineSessionAnswersHostileLinesAndKeepsServing)
{
    WorkloadSpec spec;
    spec.bug = "D4";
    spec.instrument = true;
    Workload w = buildWorkload(spec);
    EngineOptions eopts;
    eopts.constants = w.constants;
    Engine engine(w.instrumented, w.instrumentedFacts, w.tape, eopts);

    std::string script;
    for (int i = 0; i < 200000; ++i)
        script += "{\"a\":";
    script += "\n{\"id\":1e300,\"cmd\":\"step\"}\n"
              "{\"id\":8,\"cmd\":\"step\",\"args\":[1]}\n"
              "{\"id\":7,\"cmd\":\"step\"}\n";
    std::istringstream in(script);
    std::ostringstream out;
    SessionOptions sopts;
    sopts.machine = true;
    EXPECT_NE(runSession(engine, in, out, sopts), 0);

    std::string transcript = out.str();
    EXPECT_EQ(checkDebugTranscript(transcript), "");
    std::istringstream lines(transcript);
    std::string hello, deep, huge, badArgs, step;
    ASSERT_TRUE(std::getline(lines, hello) && std::getline(lines, deep) &&
                std::getline(lines, huge) && std::getline(lines, badArgs) &&
                std::getline(lines, step));
    EXPECT_EQ(deep.rfind("{\"id\":null,\"ok\":false,", 0), 0u) << deep;
    EXPECT_NE(deep.find("nesting deeper than"), std::string::npos);
    EXPECT_EQ(huge.rfind("{\"id\":null,\"ok\":false,", 0), 0u) << huge;
    EXPECT_EQ(badArgs.rfind("{\"id\":8,\"ok\":false,", 0), 0u) << badArgs;
    EXPECT_NE(badArgs.find("\"cmd\":\"step\""), std::string::npos);
    EXPECT_EQ(step.rfind("{\"id\":7,\"ok\":true,", 0), 0u) << step;
}

TEST(ProtocolTest, CompactObjectPreservesFieldOrderAndEscapes)
{
    std::string obj = compactObject([](hwdbg::obs::JsonWriter &w) {
        w.member("id", int64_t(3))
            .member("ok", true)
            .member("cmd", "print")
            .key("payload")
            .raw("{\"x\":1}")
            .member("note", "a\"b\nc")
            .key("empty")
            .beginArray()
            .endArray()
            .key("list")
            .beginArray()
            .value(1)
            .value("a")
            .endArray();
    });
    EXPECT_EQ(obj, "{\"id\":3,\"ok\":true,\"cmd\":\"print\","
                   "\"payload\":{\"x\":1},\"note\":\"a\\\"b\\nc\","
                   "\"empty\":[],\"list\":[1,\"a\"]}");
}

namespace
{

const char *kHello =
    "{\"proto\":\"hwdbg-debug\",\"version\":1,\"design\":\"m\","
    "\"steps\":4,\"signals\":2,\"build\":{\"tool\":\"hwdbg\","
    "\"version\":\"0\",\"git\":\"unknown\",\"type\":\"Debug\"}}\n";

std::string
goodResponse()
{
    return "{\"id\":1,\"ok\":true,\"cmd\":\"run\","
           "\"state\":{\"cycle\":4,\"step\":8,\"finished\":false,"
           "\"end\":true}}\n";
}

} // namespace

TEST(ProtocolTest, AcceptsWellFormedTranscript)
{
    std::string text = std::string(kHello) + goodResponse() +
                       "{\"id\":null,\"ok\":false,\"error\":\"no\","
                       "\"cmd\":\"print\",\"state\":{\"cycle\":4,"
                       "\"step\":8,\"finished\":false,\"end\":true}}\n";
    EXPECT_EQ(checkDebugTranscript(text), "");
}

TEST(ProtocolTest, RejectsBadTranscripts)
{
    EXPECT_NE(checkDebugTranscript(""), "");
    // Missing hello.
    EXPECT_NE(checkDebugTranscript(goodResponse()), "");
    // ok:true carrying an error field.
    std::string bad = std::string(kHello) +
                      "{\"id\":1,\"ok\":true,\"error\":\"x\","
                      "\"cmd\":\"run\",\"state\":{\"cycle\":0,"
                      "\"step\":0,\"finished\":false,\"end\":false}}\n";
    EXPECT_NE(checkDebugTranscript(bad), "");
    // ok:false without an error field.
    bad = std::string(kHello) +
          "{\"id\":1,\"ok\":false,\"cmd\":\"run\",\"state\":{"
          "\"cycle\":0,\"step\":0,\"finished\":false,\"end\":false}}\n";
    EXPECT_NE(checkDebugTranscript(bad), "");
    // Wrong field order (cmd before ok).
    bad = std::string(kHello) +
          "{\"id\":1,\"cmd\":\"run\",\"ok\":true,\"state\":{"
          "\"cycle\":0,\"step\":0,\"finished\":false,\"end\":false}}\n";
    EXPECT_NE(checkDebugTranscript(bad), "");
    // Incomplete state object.
    bad = std::string(kHello) +
          "{\"id\":1,\"ok\":true,\"cmd\":\"run\",\"state\":{"
          "\"cycle\":0,\"step\":0}}\n";
    EXPECT_NE(checkDebugTranscript(bad), "");
    // Trailing field after state.
    bad = std::string(kHello) +
          "{\"id\":1,\"ok\":true,\"cmd\":\"run\",\"state\":{"
          "\"cycle\":0,\"step\":0,\"finished\":false,\"end\":false},"
          "\"extra\":1}\n";
    EXPECT_NE(checkDebugTranscript(bad), "");
}
