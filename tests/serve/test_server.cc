/**
 * @file
 * The serve server: scripted channels are byte-deterministic, many
 * concurrent sessions share one design build and dedupe checkpoint
 * snapshots, per-session response streams are byte-identical under
 * both stdio multiplexing and concurrent TCP clients, and routing
 * errors surface as protocol errors rather than channel death.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bugbase/testbed.hh"
#include "common/logging.hh"
#include "cover/run.hh"
#include "obs/json.hh"
#include "obs/jsoncheck.hh"
#include "serve/server.hh"
#include "serve/stats.hh"
#include "trace/json.hh"
#include "trace/run.hh"

using namespace hwdbg;
using namespace hwdbg::serve;

namespace
{

std::string
runScript(Server &server, const std::string &script)
{
    std::istringstream in(script);
    std::ostringstream out;
    server.runChannel(in, out);
    return out.str();
}

/** Split a transcript into lines (no trailing empty line). */
std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

/** Bucket routed response lines by session id, stripped of the
 *  `{"session":N,` prefix so streams can be compared byte-for-byte. */
void
routedStreams(const std::string &transcript,
              std::map<int64_t, std::vector<std::string>> *buckets)
{
    for (const auto &line : lines(transcript)) {
        std::string error;
        auto root = obs::parseJson(line, &error);
        if (!root || !root->isObject() || root->members.empty() ||
            root->members[0].first != "session")
            continue;
        auto sid =
            static_cast<int64_t>(root->members[0].second->number);
        if (sid == 0)
            continue;
        auto comma = line.find(',');
        ASSERT_NE(comma, std::string::npos);
        (*buckets)[sid].push_back(line.substr(comma + 1));
    }
}

// readLine/writeAll: minimal line framing over a test client socket.
bool
readLine(int fd, std::string *out)
{
    out->clear();
    char ch;
    while (true) {
        ssize_t n = ::read(fd, &ch, 1);
        if (n <= 0)
            return !out->empty();
        if (ch == '\n')
            return true;
        out->push_back(ch);
    }
}

void
writeAll(int fd, const std::string &text)
{
    size_t off = 0;
    while (off < text.size()) {
        ssize_t n = ::write(fd, text.data() + off, text.size() - off);
        ASSERT_GT(n, 0);
        off += static_cast<size_t>(n);
    }
}

int
connectLoopback(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

TEST(ServeServerTest, ScriptedChannelIsByteDeterministic)
{
    const std::string script = "open debug bug=D4\n"
                               "open cover bug=D4\n"
                               "@1 step 3\n"
                               "@1 cover\n"
                               "sessions\n"
                               "stats\n"
                               "quit\n";
    // A huge slow threshold keeps the stats "slow" counter at 0 no
    // matter how slow the machine is; the remaining wall-clock fields
    // all carry the `_us` suffix and scrub to zero.
    ServerOptions opts;
    opts.slowThresholdUs = 600000000;
    Server serverA(opts), serverB(opts);
    std::string runA = runScript(serverA, script);
    std::string runB = runScript(serverB, script);
    EXPECT_EQ(scrubServeTimings(runA), scrubServeTimings(runB));
    EXPECT_EQ(checkServeTranscript(runA), "");
}

TEST(ServeServerTest, EightSessionsShareOneBuildAndDedup)
{
    std::string script;
    for (int i = 0; i < 8; ++i)
        script += "open debug bug=D4\n";
    for (int sid = 1; sid <= 8; ++sid) {
        std::string at = '@' + std::to_string(sid);
        script += at + " step 2\n";
        script += at + " info breakpoints\n";
        script += at + " cover\n";
    }
    script += "quit\n";

    Server server;
    std::string transcript = runScript(server, script);
    EXPECT_EQ(checkServeTranscript(transcript), "");

    // One real build; the seven other attaches were cache hits.
    auto cache = server.cache().stats();
    EXPECT_EQ(cache.builds, 1u);
    EXPECT_EQ(cache.hits, 7u);

    // The eight initial checkpoints are one interned snapshot.
    auto snaps = server.snapshots().stats();
    EXPECT_GE(snaps.dedupHits, 7u);
    EXPECT_GT(snaps.dedupBytes, 0u);

    // Identical command streams on identical designs produce
    // byte-identical per-session response streams.
    std::map<int64_t, std::vector<std::string>> buckets;
    routedStreams(transcript, &buckets);
    ASSERT_EQ(buckets.size(), 8u);
    for (int sid = 2; sid <= 8; ++sid)
        EXPECT_EQ(buckets.at(sid), buckets.at(1)) << "session " << sid;
}

TEST(ServeServerTest, RoutingErrorsAreProtocolErrors)
{
    const std::string script = "open cover bug=D4\n"
                               "@99 step\n"
                               "@1 step\n"
                               "@x step\n"
                               "bogus\n"
                               "quit\n";
    Server server;
    std::string transcript = runScript(server, script);
    EXPECT_EQ(checkServeTranscript(transcript), "");
    auto all = lines(transcript);
    ASSERT_EQ(all.size(), 7u); // hello + 6 responses
    EXPECT_NE(all[2].find("no session 99"), std::string::npos);
    EXPECT_NE(all[3].find("not interactive"), std::string::npos);
    EXPECT_NE(all[4].find("bad session prefix"), std::string::npos);
    EXPECT_NE(all[5].find("unknown server command"), std::string::npos);
}

TEST(ServeServerTest, RoutedQuitRetiresTheSessionNotTheChannel)
{
    const std::string script = "open debug bug=D4\n"
                               "@1 quit\n"
                               "sessions\n"
                               "quit\n";
    Server server;
    std::string transcript = runScript(server, script);
    EXPECT_EQ(checkServeTranscript(transcript), "");
    EXPECT_NE(transcript.find("\"count\":0"), std::string::npos);
    EXPECT_EQ(server.sessions().count(), 0u);
}

TEST(ServeServerTest, HostileDesignFailsItsOpenNotTheServer)
{
    // A replication count that folds to 2^32-1 fails elaboration: the
    // open that names it fails, and the other session keeps serving.
    std::string stem = ::testing::TempDir() + "hwdbg_hostile_rep";
    writeFileOrFatal(stem + ".v",
                     "module m(input wire clk, output wire [7:0] z);\n"
                     "assign z = {(8/0){1'b1}};\nendmodule\n");
    writeFileOrFatal(stem + ".stim", "clk=0\nclk=1\n");
    Server server;
    std::string transcript = runScript(
        server, "open debug bug=D4\n"
                "open cover file=" + stem + ".v stimulus=" + stem +
                    ".stim\n"
                    "@1 step\n"
                    "quit\n");
    EXPECT_EQ(checkServeTranscript(transcript), "");
    auto all = lines(transcript);
    ASSERT_EQ(all.size(), 5u); // hello + 4 responses
    EXPECT_NE(all[1].find("\"ok\":true"), std::string::npos) << all[1];
    EXPECT_NE(all[2].find("\"ok\":false"), std::string::npos) << all[2];
    EXPECT_NE(all[2].find("replication count 4294967295 is larger than "
                          "65536"),
              std::string::npos)
        << all[2];
    EXPECT_NE(all[3].find("\"ok\":true"), std::string::npos) << all[3];
    std::remove((stem + ".v").c_str());
    std::remove((stem + ".stim").c_str());
}

TEST(ServeServerTest, ConcurrentTcpClientsGetByteIdenticalSessions)
{
    Server server;
    uint16_t port = 0;
    try {
        port = server.listenTcp(0);
    } catch (const HdlError &e) {
        GTEST_SKIP() << "no loopback TCP in this environment: "
                     << e.what();
    }
    std::thread acceptor([&server] { server.acceptLoop(); });

    constexpr int kClients = 8;
    std::vector<std::thread> clients;
    std::vector<std::vector<std::string>> streams(kClients);
    std::atomic<int> failures{0};
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            int fd = connectLoopback(port);
            if (fd < 0) {
                ++failures;
                return;
            }
            std::string line;
            readLine(fd, &line); // hello
            writeAll(fd, "open debug bug=D4\n");
            readLine(fd, &line);
            std::string error;
            auto root = obs::parseJson(line, &error);
            if (!root || !root->get("payload") ||
                !root->get("payload")->get("session")) {
                ++failures;
                ::close(fd);
                return;
            }
            auto sid = static_cast<int64_t>(
                root->get("payload")->get("session")->number);
            std::string at = '@' + std::to_string(sid) + ' ';
            for (const char *cmd :
                 {"step 3", "info checkpoints", "cover", "step 2"}) {
                writeAll(fd, at + cmd + "\n");
                readLine(fd, &line);
                // Strip the `{"session":N,` prefix: the rest must be
                // byte-identical across every client.
                auto comma = line.find(',');
                streams[c].push_back(line.substr(comma + 1));
            }
            writeAll(fd, "quit\n");
            readLine(fd, &line);
            ::close(fd);
        });
    }
    for (auto &client : clients)
        client.join();
    ASSERT_EQ(failures.load(), 0);
    for (int c = 1; c < kClients; ++c)
        EXPECT_EQ(streams[c], streams[0]) << "client " << c;

    // Shared-state accounting across all eight concurrent attaches.
    EXPECT_EQ(server.cache().stats().builds, 1u);
    EXPECT_GE(server.snapshots().stats().dedupHits, 7u);

    int fd = connectLoopback(port);
    ASSERT_GE(fd, 0);
    std::string line;
    readLine(fd, &line);
    writeAll(fd, "shutdown\n");
    readLine(fd, &line);
    ::close(fd);
    acceptor.join();
}

TEST(ServeServerTest, HostileLineOnOneChannelLeavesOtherSessionsServing)
{
    Server server;
    uint16_t port = 0;
    try {
        port = server.listenTcp(0);
    } catch (const HdlError &e) {
        GTEST_SKIP() << "no loopback TCP in this environment: "
                     << e.what();
    }
    std::thread acceptor([&server] { server.acceptLoop(); });

    // Two clients, each with its own debug session.
    int fds[2];
    std::string at[2];
    std::string line;
    for (int c = 0; c < 2; ++c) {
        fds[c] = connectLoopback(port);
        ASSERT_GE(fds[c], 0);
        readLine(fds[c], &line); // hello
        writeAll(fds[c], "open debug bug=D4\n");
        readLine(fds[c], &line);
        std::string error;
        auto root = obs::parseJson(line, &error);
        ASSERT_TRUE(root && root->get("payload")) << line;
        at[c] = '@' +
                std::to_string(static_cast<int64_t>(
                    (*root)["payload"]["session"].number)) +
                ' ';
    }

    // Client 0 sends a line nested far past the parser's limit and an
    // id no double holds exactly: both are ok:false errors.
    std::string deep = "{\"session\":1,\"cmd\":";
    for (int i = 0; i < 200000; ++i)
        deep += '[';
    writeAll(fds[0], deep + "\n");
    readLine(fds[0], &line);
    EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(line.find("nesting deeper than"), std::string::npos)
        << line.substr(0, 200);
    writeAll(fds[0], "{\"id\":1e300,\"cmd\":\"sessions\"}\n");
    readLine(fds[0], &line);
    EXPECT_NE(line.find("\"id\":null,\"ok\":false"), std::string::npos)
        << line;

    // The other session's next request, and the hostile channel's own,
    // are served as usual.
    for (int c : {1, 0}) {
        writeAll(fds[c], at[c] + "step 2\n");
        readLine(fds[c], &line);
        EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
        EXPECT_EQ(checkServeTranscript(
                      "{\"proto\":\"hwdbg-serve\",\"version\":1,"
                      "\"build\":" + obs::buildInfoJson() + "}\n" +
                      line + "\n"),
                  "");
    }

    writeAll(fds[1], "shutdown\n");
    readLine(fds[1], &line);
    for (int fd : fds)
        ::close(fd);
    acceptor.join();
}

TEST(ServeServerTest, BackendIsNotPartOfTheCacheKey)
{
    // Both engines replay one cached build, so the bytecode session
    // attaches warm and answers exactly like the interpreter session.
    const std::string script = "open debug bug=D3\n"
                               "open debug bug=D3 backend=bytecode\n"
                               "@1 goto-cycle 12\n"
                               "@2 goto-cycle 12\n"
                               "@1 print bus_state\n"
                               "@2 print bus_state\n"
                               "stats\n"
                               "quit\n";
    Server server;
    std::string transcript = runScript(server, script);
    EXPECT_EQ(checkServeTranscript(transcript), "");
    auto all = lines(transcript);
    ASSERT_EQ(all.size(), 9u); // hello + 8 responses
    EXPECT_NE(all[1].find("\"cache\":\"miss\""), std::string::npos);
    EXPECT_NE(all[2].find("\"cache\":\"hit\""), std::string::npos);
    EXPECT_NE(all[7].find("\"builds\":1"), std::string::npos);
    EXPECT_EQ(server.cache().stats().builds, 1u);

    std::map<int64_t, std::vector<std::string>> buckets;
    routedStreams(transcript, &buckets);
    ASSERT_EQ(buckets.size(), 2u);
    ASSERT_EQ(buckets.at(1).size(), 2u);
    EXPECT_EQ(buckets.at(1), buckets.at(2));
}

/** One-shot serve sessions answer exactly like the library drivers the
 *  CLI's --bug runs use, on every bug and both variants. */
class ServeOneShotTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(ServeOneShotTest, MatchesTheBugWorkloadDrivers)
{
    const auto &[id, buggy] = GetParam();
    const bugs::TestbedBug &bug = bugs::bugById(id);
    std::string stem = ::testing::TempDir() + "hwdbg_oneshot_" + id +
                       (buggy ? "_buggy" : "_fixed");
    std::string variant = buggy ? "" : " fixed";
    Server server;
    std::string transcript = runScript(
        server, "open cover bug=" + id + variant + " out=" + stem +
                    ".cover.json\n"
                    "open trace bug=" + id + variant + " out=" + stem +
                    ".trace.json\n"
                    "quit\n");
    EXPECT_EQ(transcript.find("\"ok\":false"), std::string::npos)
        << transcript;
    EXPECT_EQ(readFileOrFatal(stem + ".cover.json"),
              cover::toJson(cover::coverBugWorkload(bug, buggy)));
    EXPECT_EQ(readFileOrFatal(stem + ".trace.json"),
              trace::toJson(
                  trace::traceBugWorkload(bug, buggy, trace::TraceConfig{})));
    std::remove((stem + ".cover.json").c_str());
    std::remove((stem + ".trace.json").c_str());
}

std::vector<std::tuple<std::string, bool>>
allVariants()
{
    std::vector<std::tuple<std::string, bool>> out;
    for (const auto &bug : bugs::testbedBugs()) {
        out.emplace_back(bug.id, true);
        out.emplace_back(bug.id, false);
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllBugs, ServeOneShotTest, ::testing::ValuesIn(allVariants()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>
           &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_buggy" : "_fixed");
    });
