/**
 * @file
 * Serve telemetry: the hwdbg-serve-stats v1 document validates and
 * reconciles, deterministic fields survive a double run byte-identical
 * under concurrent TCP load, stats requests never observe themselves,
 * the slow ring and JSON-lines spill capture what they claim, a loaded
 * server emits one named Perfetto track per session, and the monitor
 * renders a parsed stats document as it renders the document's text.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "obs/jsoncheck.hh"
#include "obs/trace.hh"
#include "serve/monitor.hh"
#include "serve/server.hh"
#include "serve/stats.hh"

using namespace hwdbg;
using namespace hwdbg::serve;

namespace
{

/** A slow threshold no test machine will ever cross. */
constexpr uint64_t kNeverSlowUs = 600000000;

ServerOptions
quietOptions()
{
    ServerOptions opts;
    opts.slowThresholdUs = kNeverSlowUs;
    return opts;
}

std::string
runScript(Server &server, const std::string &script)
{
    std::istringstream in(script);
    std::ostringstream out;
    server.runChannel(in, out);
    return out.str();
}

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

bool
writeAll(int fd, const std::string &text)
{
    size_t off = 0;
    while (off < text.size()) {
        ssize_t n = ::write(fd, text.data() + off, text.size() - off);
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
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

double
docNumber(const obs::JsonValue &root, const char *section,
          const char *key)
{
    const auto *obj = root.get(section);
    if (!obj)
        return -1;
    const auto *v = obj->get(key);
    return v && v->isNumber() ? v->number : -1;
}

/**
 * Drive one server through a fixed concurrent-TCP workload and return
 * its stats document after full quiesce. Opens are serialized so the
 * cache hit/miss attribution in the sessions rows is deterministic;
 * the command phase runs fully concurrently. Returns "" on socket
 * failure (caller skips).
 */
std::string
loadedServerStats(Server &server, int clients, int steps)
{
    uint16_t port = 0;
    try {
        port = server.listenTcp(0);
    } catch (const HdlError &) {
        return "";
    }
    std::thread acceptor([&server] { server.acceptLoop(); });

    std::vector<int> fds;
    std::vector<int64_t> sids;
    for (int c = 0; c < clients; ++c) {
        int fd = connectLoopback(port);
        if (fd < 0)
            break;
        std::string line;
        readLine(fd, &line); // hello
        writeAll(fd, "open debug bug=D4\n");
        readLine(fd, &line);
        std::string error;
        auto root = obs::parseJson(line, &error);
        const obs::JsonValue *payload =
            root ? root->get("payload") : nullptr;
        const obs::JsonValue *sid =
            payload ? payload->get("session") : nullptr;
        if (!sid) {
            ::close(fd);
            break;
        }
        fds.push_back(fd);
        sids.push_back(static_cast<int64_t>(sid->number));
    }

    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (size_t c = 0; c < fds.size(); ++c)
        workers.emplace_back([&, c] {
            std::string at = '@' + std::to_string(sids[c]) + ' ';
            std::string line;
            for (int i = 0; i < steps; ++i) {
                if (!writeAll(fds[c], at + "step 2\n") ||
                    !readLine(fds[c], &line)) {
                    ++failures;
                    return;
                }
            }
            if (!writeAll(fds[c], at + "info checkpoints\n") ||
                !readLine(fds[c], &line))
                ++failures;
        });
    for (auto &worker : workers)
        worker.join();
    for (int fd : fds)
        ::close(fd);

    // Sessions stay open (their rows must appear in the stats doc);
    // a control client stops the accept loop, and joining it means
    // every channel worker has retired too.
    int ctl = connectLoopback(port);
    if (ctl >= 0) {
        std::string line;
        readLine(ctl, &line);
        writeAll(ctl, "shutdown\n");
        readLine(ctl, &line);
        ::close(ctl);
    } else {
        server.shutdown();
    }
    acceptor.join();
    if (failures.load() || fds.size() != static_cast<size_t>(clients))
        return "";
    return server.statsJson();
}

} // namespace

TEST(ServeTelemetryTest, StatsDocumentValidatesAndCountsRequests)
{
    Server server(quietOptions());
    std::string transcript = runScript(server,
                                       "open debug bug=D4\n"
                                       "open cover bug=D4\n"
                                       "@1 step 3\n"
                                       "@1 info breakpoints\n"
                                       "bogus\n"
                                       "quit\n");
    EXPECT_EQ(checkServeTranscript(transcript), "");

    std::string doc = server.statsJson();
    EXPECT_EQ(checkServeStatsJson(doc), "") << doc;

    std::string error;
    auto root = obs::parseJson(doc, &error);
    ASSERT_TRUE(root) << error;
    EXPECT_EQ(docNumber(*root, "server", "requests"), 6);
    EXPECT_EQ(docNumber(*root, "server", "errors"), 1); // bogus
    EXPECT_EQ(docNumber(*root, "server", "slow"), 0);
    EXPECT_EQ(docNumber(*root, "server", "opened"), 2);
    EXPECT_EQ(docNumber(*root, "server", "dispatched"), 2);
    EXPECT_EQ(docNumber(*root, "cache", "builds"), 1);
    EXPECT_EQ(docNumber(*root, "cache", "hits"), 1);

    // Per-command rows exist for everything that ran, including the
    // failed command under its "?"-free name.
    const auto *cmds = root->get("commands");
    ASSERT_TRUE(cmds && cmds->isArray());
    bool sawOpen = false, sawStep = false, sawBogus = false;
    for (const auto &entry : cmds->elems) {
        const std::string &name = entry->get("cmd")->text;
        if (name == "open") {
            sawOpen = true;
            EXPECT_EQ(entry->get("count")->number, 2);
        }
        if (name == "step")
            sawStep = true;
        if (name == "bogus") {
            sawBogus = true;
            EXPECT_EQ(entry->get("errors")->number, 1);
        }
    }
    EXPECT_TRUE(sawOpen);
    EXPECT_TRUE(sawStep);
    EXPECT_TRUE(sawBogus);

    // Satellite: build provenance is embedded in the stats document.
    const auto *build = root->get("build");
    ASSERT_TRUE(build && build->isObject());
    EXPECT_TRUE(build->get("version"));
}

TEST(ServeTelemetryTest, StatsRequestDoesNotObserveItself)
{
    Server server(quietOptions());
    std::string transcript = runScript(server, "stats\nquit\n");
    EXPECT_EQ(checkServeTranscript(transcript), "");
    // The first stats document of the run must show an untouched
    // server: zero requests, no command rows (recording happens only
    // after the response is rendered).
    EXPECT_NE(transcript.find("\"requests\":0"), std::string::npos)
        << transcript;
    EXPECT_NE(transcript.find("\"commands\":[]"), std::string::npos);
    // ...but the log itself did record both the stats and the quit.
    EXPECT_EQ(server.requestLog().requests(), 2u);
}

TEST(ServeTelemetryTest, TotalsReconcileAcrossRetiredSessions)
{
    Server server(quietOptions());
    std::string transcript = runScript(server,
                                       "open debug bug=D4\n"
                                       "open debug bug=D4\n"
                                       "@1 step 2\n"
                                       "@2 step 5\n"
                                       "@2 step 1\n"
                                       "@1 quit\n"
                                       "quit\n");
    EXPECT_EQ(checkServeTranscript(transcript), "");

    std::string doc = server.statsJson();
    EXPECT_EQ(checkServeStatsJson(doc), "") << doc;
    std::string error;
    auto root = obs::parseJson(doc, &error);
    ASSERT_TRUE(root) << error;

    // Session 1 retired via routed quit; its dispatch counts must have
    // folded into the retired totals so the global invariant holds:
    // sum(live session cmds) + retired == dispatched.
    double retired = docNumber(*root, "server", "retired_cmds");
    double dispatched = docNumber(*root, "server", "dispatched");
    EXPECT_EQ(retired, 2);    // @1 step + @1 quit
    EXPECT_EQ(dispatched, 4); // all routed commands
    const auto *sessions = root->get("sessions");
    ASSERT_TRUE(sessions && sessions->isArray());
    ASSERT_EQ(sessions->elems.size(), 1u); // only session 2 lives
    double live = sessions->elems[0]->get("cmds")->number;
    EXPECT_EQ(live + retired, dispatched);
}

TEST(ServeTelemetryTest, LoadedStatsAreByteDeterministicAndReconcile)
{
    constexpr int kClients = 4;
    constexpr int kSteps = 5;

    Server serverA(quietOptions());
    std::string docA = loadedServerStats(serverA, kClients, kSteps);
    if (docA.empty())
        GTEST_SKIP() << "no loopback TCP in this environment";
    Server serverB(quietOptions());
    std::string docB = loadedServerStats(serverB, kClients, kSteps);
    ASSERT_FALSE(docB.empty());

    EXPECT_EQ(checkServeStatsJson(docA), "") << docA;
    // Identical workloads must agree on every deterministic field;
    // only wall-clock `_us` values may differ between the runs.
    EXPECT_EQ(scrubServeTimings(docA), scrubServeTimings(docB));

    std::string error;
    auto root = obs::parseJson(docA, &error);
    ASSERT_TRUE(root) << error;
    // 4 opens + 4*(steps+1) routed + 1 shutdown, across 5 channels.
    EXPECT_EQ(docNumber(*root, "server", "requests"),
              kClients * (kSteps + 2) + 1);
    EXPECT_EQ(docNumber(*root, "server", "channels"), kClients + 1);
    EXPECT_EQ(docNumber(*root, "server", "channels_active"), 0);
    EXPECT_EQ(docNumber(*root, "server", "errors"), 0);
    EXPECT_EQ(docNumber(*root, "cache", "builds"), 1);

    // Totals reconcile: no session was closed, so the live per-session
    // counts alone must sum to the dispatch total.
    const auto *sessions = root->get("sessions");
    ASSERT_TRUE(sessions && sessions->isArray());
    ASSERT_EQ(sessions->elems.size(), size_t(kClients));
    double liveSum = 0;
    for (const auto &entry : sessions->elems)
        liveSum += entry->get("cmds")->number;
    EXPECT_EQ(liveSum + docNumber(*root, "server", "retired_cmds"),
              docNumber(*root, "server", "dispatched"));
}

TEST(ServeTelemetryTest, SlowRingAndHealthAndSlowCommands)
{
    ServerOptions opts;
    opts.slowThresholdUs = 0; // everything is slow, deterministically
    Server server(opts);
    std::string transcript = runScript(server,
                                       "open cover bug=D4\n"
                                       "sessions\n"
                                       "health\n"
                                       "slow\n"
                                       "quit\n");
    EXPECT_EQ(checkServeTranscript(transcript), "");
    // health is a cheap liveness probe with its own fields.
    EXPECT_NE(transcript.find("\"status\":\"ok\""), std::string::npos);
    // The slow response was rendered before recording itself, so it
    // reported the three prior requests.
    EXPECT_NE(transcript.find("\"threshold_us\":0"), std::string::npos);
    EXPECT_NE(transcript.find("\"count\":3"), std::string::npos)
        << transcript;
    EXPECT_NE(transcript.find("\"cmd\": \"open\""), std::string::npos);
    // After the full run all five requests crossed the 0 threshold.
    EXPECT_EQ(server.requestLog().slowCount(), 5u);
    ASSERT_EQ(server.requestLog().slow().size(), 5u);
    EXPECT_EQ(server.requestLog().slow().back().cmd, "quit");
}

TEST(ServeTelemetryTest, ReqlogSpillWritesJsonLines)
{
    std::string path = ::testing::TempDir() + "hwdbg_reqlog_spill.jsonl";
    std::remove(path.c_str());
    {
        ServerOptions opts;
        opts.slowThresholdUs = kNeverSlowUs;
        opts.reqlogPath = path;
        Server server(opts);
        runScript(server, "open cover bug=D4\nsessions\nquit\n");
    } // destructor flushes + closes the spill

    std::ifstream in(path);
    ASSERT_TRUE(in) << "spill file missing: " << path;
    std::string line;
    std::vector<std::string> cmds;
    while (std::getline(in, line)) {
        std::string error;
        auto root = obs::parseJson(line, &error);
        ASSERT_TRUE(root && root->isObject())
            << error << " in: " << line;
        ASSERT_TRUE(root->get("request"));
        ASSERT_TRUE(root->get("latency_us"));
        cmds.push_back(root->get("cmd")->text);
    }
    ASSERT_EQ(cmds.size(), 3u);
    EXPECT_EQ(cmds[0], "open");
    EXPECT_EQ(cmds[1], "sessions");
    EXPECT_EQ(cmds[2], "quit");
    std::remove(path.c_str());
}

TEST(ServeTelemetryTest, TelemetryCanBeDisabled)
{
    ServerOptions opts;
    opts.telemetry = false;
    Server server(opts);
    std::string transcript =
        runScript(server, "open cover bug=D4\nsessions\nquit\n");
    EXPECT_EQ(checkServeTranscript(transcript), "");
    // No events recorded, but the stats document stays well-formed.
    EXPECT_EQ(server.requestLog().requests(), 0u);
    EXPECT_TRUE(server.requestLog().commands().empty());
    EXPECT_EQ(checkServeStatsJson(server.statsJson()), "");
}

TEST(ServeTelemetryTest, SessionsGetNamedPerfettoTracks)
{
    obs::startTrace();
    {
        Server server(quietOptions());
        std::string transcript = runScript(server,
                                           "open debug bug=D4\n"
                                           "open cover bug=D4\n"
                                           "@1 step 3\n"
                                           "@1 info breakpoints\n"
                                           "quit\n");
        EXPECT_EQ(checkServeTranscript(transcript), "");
    }
    std::string json = obs::stopTrace();
    EXPECT_EQ(obs::checkTraceJson(json), "");
    // One named track per session, carrying the attach span and every
    // routed command span; the snapshot store contributes its own
    // spans from whatever thread interned.
    EXPECT_NE(json.find("serve.session.1:debug:D4"), std::string::npos)
        << json.substr(0, 512);
    EXPECT_NE(json.find("serve.session.2:cover:D4"), std::string::npos);
    EXPECT_NE(json.find("serve.attach:debug:D4"), std::string::npos);
    EXPECT_NE(json.find("debug.cmd:step"), std::string::npos);
    EXPECT_NE(json.find("serve.snapshot.intern"), std::string::npos);
}

TEST(ServeTelemetryTest, MonitorFrameFromTheParsedDocument)
{
    // The monitor renders the response's parsed "payload" member: the
    // frame equals the one rendered from the document's text, and a
    // document off the schema renders as its first violation.
    Server server(quietOptions());
    runScript(server, "open debug bug=D4\n");
    std::string doc = server.statsJson();
    std::string error;
    obs::JsonPtr root = obs::parseJson(doc, &error);
    ASSERT_TRUE(root) << error;
    std::string frame = renderTopFrame(*root);
    EXPECT_EQ(frame, renderTopFrame(doc));
    EXPECT_EQ(frame.rfind("hwdbg serve — up ", 0), 0u) << frame;
    EXPECT_NE(frame.find(" debug "), std::string::npos) << frame;

    ASSERT_EQ(root->members.back().first, "sessions");
    root->members.pop_back();
    EXPECT_EQ(renderTopFrame(*root), "stats: sessions: missing\n");
    EXPECT_EQ(renderTopFrame("[1"),
              "stats: offset 2: expected ',' or ']' in array\n");
}

TEST(ServeTelemetryTest, CheckerRejectsMalformedStatsDocuments)
{
    // Real documents pass (covered above); surgical violations of the
    // schema's ordering and monotonicity rules must each be caught.
    auto doc = [](const std::string &version,
                  const std::string &commands,
                  const std::string &sessions) {
        std::string out = "{\"format\":\"hwdbg-serve-stats\","
                          "\"version\":";
        out += version;
        out += ",\"build\":{\"tool\":\"hwdbg\",\"version\":\"0\","
               "\"git\":\"unknown\",\"type\":\"Debug\"},"
               "\"server\":{\"sessions\":0,"
               "\"opened\":0,\"channels\":0,\"channels_active\":0,"
               "\"requests\":0,\"errors\":0,\"slow\":0,"
               "\"slow_threshold_us\":0,\"dispatched\":0,"
               "\"retired_cmds\":0,\"uptime_us\":0},\"cache\":{"
               "\"entries\":0,\"hits\":0,\"misses\":0,\"builds\":0,"
               "\"build_us\":0},\"snapshots\":{\"stored\":0,"
               "\"stored_bytes\":0,\"dedup_hits\":0,\"dedup_bytes\":0,"
               "\"dedup_ratio_pct\":0},\"commands\":";
        out += commands;
        out += ",\"sessions\":";
        out += sessions;
        out += "}";
        return out;
    };
    auto cmdRow = [](const char *cmd, int p50, int p95, int p99,
                     int max) {
        std::string out = "{\"cmd\":\"";
        out += cmd;
        out += "\",\"count\":1,\"errors\":0,\"p50_us\":";
        out += std::to_string(p50);
        out += ",\"p95_us\":";
        out += std::to_string(p95);
        out += ",\"p99_us\":";
        out += std::to_string(p99);
        out += ",\"max_us\":";
        out += std::to_string(max);
        out += "}";
        return out;
    };

    EXPECT_EQ(checkServeStatsJson(doc("1", "[]", "[]")), "");
    EXPECT_NE(checkServeStatsJson(doc("2", "[]", "[]")), "");
    EXPECT_NE(checkServeStatsJson("{\"version\":1}"), "");

    // Quantiles must be monotone p50 <= p95 <= p99 <= max.
    std::string bad = doc("1", '[' + cmdRow("run", 9, 5, 9, 9) + ']',
                          "[]");
    EXPECT_NE(checkServeStatsJson(bad).find("not monotone"),
              std::string::npos);

    // Command rows must be strictly sorted by name.
    std::string unsorted =
        doc("1",
            '[' + cmdRow("run", 1, 1, 1, 1) + ',' +
                cmdRow("open", 1, 1, 1, 1) + ']',
            "[]");
    EXPECT_NE(checkServeStatsJson(unsorted).find("not sorted"),
              std::string::npos);

    // Session rows must carry a hit/miss cache attribution.
    std::string badSession =
        doc("1", "[]",
            "[{\"session\":1,\"kind\":\"debug\",\"design\":\"D4\","
            "\"cache\":\"warm\",\"cmds\":0,\"errors\":0,"
            "\"uptime_us\":0}]");
    EXPECT_NE(checkServeStatsJson(badSession).find("hit"),
              std::string::npos);
}

TEST(ServeTelemetryTest, ScrubZeroesOnlyTimingFields)
{
    EXPECT_EQ(scrubServeTimings("{\"p50_us\":123,\"count\":123,"
                                "\"uptime_us\": 9,\"max_us\":0}"),
              "{\"p50_us\":0,\"count\":123,"
              "\"uptime_us\": 0,\"max_us\":0}");
    // Idempotent and inert on timing-free text.
    EXPECT_EQ(scrubServeTimings("{\"requests\":42}"),
              "{\"requests\":42}");
    EXPECT_EQ(scrubServeTimings(scrubServeTimings("\"build_us\":77")),
              "\"build_us\":0");
}
