/**
 * @file
 * serve_debug: concurrent interactive debugging against one server.
 *
 * One in-process serve::Server listens on loopback TCP. Three closed-
 * loop clients (each sends its next request only after the reply)
 * cycle over the 20 testbed bugs. Per bug a client opens a debug
 * session, half of them on the default backend and half with
 * backend=bytecode, sends kRequestsPerSession requests, and closes it.
 * Each request is one of seven kinds, drawn uniformly:
 *
 *   time travel   goto-cycle to a random cycle of the bug's tape,
 *                 reverse-step n
 *   forward       step n; break at <file>:<line> followed by run
 *   reads         print <signal>, events, info checkpoints
 *
 * No recording of how debugging users divide their requests exists, so
 * the uniform draw is an assumption, not a measured mix. The session
 * length follows the repo's scripted sessions (tests/debug/scripts/),
 * which send 7 or 8 commands each.
 *
 * One operation is one request, timed by the client from send to
 * reply. Set-up is server start plus the first open of every (bug,
 * backend) pair: the design cache's cold builds. Every reply must be
 * ok, every goto-cycle and reverse-step must land on the cycle asked
 * for, and each client's transcript must pass
 * serve::checkServeTranscript (checked in pieces as it arrives).
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "bugbase/testbed.hh"
#include "bugbase/workloads.hh"
#include "cover/run.hh"
#include "obs/jsoncheck.hh"
#include "obs/trace.hh"
#include "serve/server.hh"
#include "serve/stats.hh"
#include "sim/simulator.hh"

namespace perfbench
{
namespace
{

using namespace hwdbg;

constexpr int kClients = 3;
constexpr int kRequestsPerSession = 8;
constexpr uint64_t kKinds = 7;

/** A blocking line-oriented client on one loopback connection. */
class Client
{
  public:
    explicit Client(uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("client socket failed");
        int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) < 0) {
            ::close(fd_);
            throw std::runtime_error("client connect failed");
        }
        hello_ = readLine() + "\n";
    }
    ~Client() { ::close(fd_); }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Send one request line and return the reply line. */
    std::string request(const std::string &line)
    {
        std::string out = line + "\n";
        for (size_t sent = 0; sent < out.size();) {
            ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
            if (n <= 0)
                throw std::runtime_error("client send failed");
            sent += size_t(n);
        }
        std::string reply = readLine();
        replies_ += reply + "\n";
        ++pendingReplies_;
        return reply;
    }

    /** Replies received since the last checkTranscript(). */
    size_t pendingReplies() const { return pendingReplies_; }

    /**
     * Validate the hello and the replies received since the last call
     * as a serve transcript (what `hwdbg serve --connect` echoes), then
     * drop those replies so a long run holds none of them.
     */
    std::string checkTranscript()
    {
        std::string verdict = serve::checkServeTranscript(hello_ + replies_);
        replies_.clear();
        pendingReplies_ = 0;
        return verdict;
    }

  private:
    std::string readLine()
    {
        for (;;) {
            size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            char chunk[65536];
            ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n <= 0)
                throw std::runtime_error("server closed the connection");
            buf_.append(chunk, size_t(n));
        }
    }

    int fd_ = -1;
    std::string buf_;
    std::string hello_;
    std::string replies_;
    size_t pendingReplies_ = 0;
};

/** A parsed reply: ok, the error if not, and the session state. */
struct Reply
{
    bool ok = false;
    std::string error;
    obs::JsonPtr root;
    const obs::JsonValue *payload = nullptr;
    /** The session's cycle after a routed request. */
    uint64_t cycle = 0;
};

Reply
parseReply(const std::string &line)
{
    Reply reply;
    std::string error;
    reply.root = obs::parseJson(line, &error);
    if (!reply.root || !reply.root->isObject()) {
        reply.error = "unparsable reply: " + error;
        return reply;
    }
    const obs::JsonValue *ok = reply.root->get("ok");
    reply.ok = ok && ok->kind == obs::JsonValue::Kind::Bool && ok->boolean;
    if (const obs::JsonValue *err = reply.root->get("error"))
        reply.error = err->text;
    reply.payload = reply.root->get("payload");
    if (const obs::JsonValue *state = reply.root->get("state")) {
        if (const obs::JsonValue *cycle = state->get("cycle"))
            reply.cycle = uint64_t(cycle->number);
    }
    return reply;
}

double
numberAt(const obs::JsonValue *obj, const std::string &key)
{
    const obs::JsonValue *value = obj ? obj->get(key) : nullptr;
    return value && value->isNumber() ? value->number : 0;
}

/** What a client may ask about one bug, found before the server runs. */
struct BugInputs
{
    std::string id;
    /** Cycle count at the end of the bug's recorded workload. */
    uint64_t endCycle = 0;
    /** file:line of statements the workload executes. */
    std::vector<std::string> lines;
    /** Plain top-level signal names for `print`. */
    std::vector<std::string> signals;
};

bool
plainName(const std::string &name)
{
    if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0])))
        return false;
    for (char ch : name)
        if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_')
            return false;
    return true;
}

BugInputs
scout(const bugs::TestbedBug &bug)
{
    BugInputs in;
    in.id = bug.id;
    auto elaborated = bugs::buildDesign(bug, true);
    sim::Simulator sim(elaborated.mod);
    bugs::runWorkload(bug, sim);
    in.endCycle = sim.cycle();
    for (size_t i = 0; i < sim.design().numSignals(); ++i) {
        const sim::SignalInfo &info = sim.design().info(int(i));
        if (info.arraySize == 0 && plainName(info.name) &&
            in.signals.size() < 16)
            in.signals.push_back(info.name);
    }
    std::set<std::string> lines;
    for (const auto &stmt : cover::coverBugWorkload(bug, true).statements) {
        if (!stmt.hit || stmt.loc.empty())
            continue;
        size_t colon = stmt.loc.find(':');
        size_t end = stmt.loc.find(':', colon + 1);
        lines.insert(stmt.loc.substr(0, end));
    }
    in.lines.assign(lines.begin(), lines.end());
    if (in.signals.empty() || in.lines.empty() || in.endCycle == 0)
        throw std::runtime_error("bug " + bug.id +
                                 " has nothing to debug");
    return in;
}

class ServeDebug : public Workload
{
  public:
    explicit ServeDebug(const Options &opts) : opts_(opts)
    {
        for (const auto &bug : bugs::testbedBugs())
            bugs_.push_back(scout(bug));
    }

    ~ServeDebug() override { stopServer(); }

    void setup(Report &rep) override
    {
        for (int rep_i = 0; rep_i < 21; ++rep_i) {
            stopServer();
            auto t0 = Clock::now();
            server_ = std::make_unique<serve::Server>();
            port_ = server_->listenTcp(0);
            acceptor_ = std::thread([this] { server_->acceptLoop(); });
            Client client(port_);
            std::vector<std::string> sessions;
            for (const auto &bug : bugs_) {
                for (const char *backend : {"", " backend=bytecode"}) {
                    Reply reply = parseReply(client.request(
                        "open debug bug=" + bug.id + backend));
                    rep.check(reply.ok, "open " + bug.id + ": " +
                                            reply.error);
                    if (reply.ok)
                        sessions.push_back(std::to_string(
                            int64_t(numberAt(reply.payload, "session"))));
                }
            }
            lastSetupS_ = secondsSince(t0);
            rep.setupS.push_back(lastSetupS_);
            for (const auto &sid : sessions) {
                Reply reply = parseReply(client.request("close " + sid));
                rep.check(reply.ok, "close " + sid + ": " + reply.error);
            }
        }
    }

    void measure(double seconds, bool traced, Report &rep) override
    {
        // p99 with ten samples beyond it needs 1000 requests.
        const size_t minPerClient = traced ? 0 : 1000 / kClients + 1;
        Shared shared{rep, {}};
        std::vector<std::thread> clients;
        uint64_t phase = phase_++;
        auto t0 = Clock::now();
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                try {
                    runClient(c, phase, seconds, minPerClient, shared);
                } catch (const std::exception &err) {
                    std::lock_guard<std::mutex> lock(shared.mu);
                    rep.check(false, "client " + std::to_string(c) + ": " +
                                         err.what());
                }
            });
        }
        for (auto &thread : clients)
            thread.join();
        rep.measureS += secondsSince(t0);
    }

    void finish(Report &rep) override
    {
        std::string stats = server_->statsJson();
        std::string verdict = serve::checkServeStatsJson(stats);
        rep.check(verdict.empty(), "stats: " + verdict);
        std::string error;
        obs::JsonPtr root = obs::parseJson(stats, &error);
        if (!root)
            return;
        const obs::JsonValue *cache = root->get("cache");
        const obs::JsonValue *snaps = root->get("snapshots");
        rep.values["serve.cache_builds"] = numberAt(cache, "builds");
        rep.values["serve.cache_build_ms"] =
            numberAt(cache, "build_us") / 1000;
        rep.values["serve.cache_hits"] = numberAt(cache, "hits");
        rep.values["serve.cache_misses"] = numberAt(cache, "misses");
        rep.values["serve.snap_stored_bytes"] =
            numberAt(snaps, "stored_bytes");
        rep.values["serve.sessions_opened"] =
            numberAt(root->get("server"), "opened");
        rep.values["serve.snap_dedup_pct"] =
            numberAt(snaps, "dedup_ratio_pct");
        rep.values["setup_last_s"] = lastSetupS_;
        if (const obs::JsonValue *cmds = root->get("commands")) {
            for (const auto &row : cmds->elems) {
                const obs::JsonValue *cmd = row->get("cmd");
                if (!cmd)
                    continue;
                for (const char *key : {"count", "p50_us", "p99_us"})
                    rep.values["server." + std::string(key) + "." +
                               cmd->text] = numberAt(row.get(), key);
            }
        }
    }

  private:
    /** The run's report, written by every client under mu. */
    struct Shared
    {
        Report &rep;
        std::mutex mu;
    };

    void stopServer()
    {
        if (!server_)
            return;
        server_->shutdown();
        acceptor_.join();
        server_.reset();
    }

    /** One closed-loop client: sessions until the deadline passes and
     *  the client has sent at least @p minRequests. Each measure()
     *  call (@p phase) draws a fresh request mix. */
    void runClient(int index, uint64_t phase, double seconds,
                   size_t minRequests, Shared &shared)
    {
        auto check = [&](bool ok, const std::string &error) {
            std::lock_guard<std::mutex> lock(shared.mu);
            shared.rep.check(ok, error);
        };
        Client client(port_);
        Rng rng(opts_.seed * 0x9E3779B97F4A7C15ULL + uint64_t(index) +
                1000 * phase);
        size_t bugIndex = size_t(index) * 7 % bugs_.size();
        uint64_t sessions = 0;
        size_t requests = 0;
        auto t0 = Clock::now();

        auto send = [&](const std::string &cmd, const std::string &line) {
            auto start = Clock::now();
            std::string text;
            {
                obs::ObsSpan span("bench:op");
                text = client.request(line);
            }
            double us = microsSince(start);
            ++requests;
            Reply reply = parseReply(text);
            std::lock_guard<std::mutex> lock(shared.mu);
            shared.rep.samples["op"].add(us);
            shared.rep.samples[cmd].add(us);
            shared.rep.check(reply.ok, reply.ok ? std::string()
                                                : line + ": " + reply.error);
            return reply;
        };

        while (secondsSince(t0) < seconds || requests < minRequests) {
            const BugInputs &bug = bugs_[bugIndex];
            bugIndex = (bugIndex + 1) % bugs_.size();
            bool bytecode = (sessions++ + uint64_t(index)) % 2 == 1;
            Reply open = send("open", "open debug bug=" + bug.id +
                                          (bytecode ? " backend=bytecode"
                                                    : ""));
            if (!open.ok)
                continue;
            std::string sid =
                std::to_string(int64_t(numberAt(open.payload, "session")));
            std::string at = "@" + sid + " ";
            uint64_t cycle = 0;
            for (int k = 0; k < kRequestsPerSession; ++k) {
                uint64_t kind = rng.below(kKinds);
                Reply reply;
                if (kind == 0) {
                    uint64_t target = rng.below(bug.endCycle + 1);
                    reply = send("goto-cycle", at + "goto-cycle " +
                                                   std::to_string(target));
                    if (reply.ok)
                        check(reply.cycle == target,
                                  bug.id + ": goto-cycle " +
                                      std::to_string(target) +
                                      " landed elsewhere");
                } else if (kind == 1) {
                    uint64_t n = 1 + rng.below(8);
                    uint64_t target = cycle > n ? cycle - n : 0;
                    reply = send("reverse-step",
                                 at + "reverse-step " + std::to_string(n));
                    if (reply.ok)
                        check(reply.cycle == target,
                                  bug.id + ": reverse-step landed "
                                           "elsewhere");
                } else if (kind == 2) {
                    reply = send("step", at + "step " +
                                             std::to_string(
                                                 1 + rng.below(8)));
                } else if (kind == 3) {
                    const std::string &line =
                        bug.lines[rng.below(bug.lines.size())];
                    send("break", at + "break at " + line);
                    reply = send("run", at + "run");
                } else if (kind == 4) {
                    reply = send("print",
                                 at + "print " +
                                     bug.signals[rng.below(
                                         bug.signals.size())]);
                } else if (kind == 5) {
                    reply = send("events", at + "events");
                } else {
                    reply = send("info", at + "info checkpoints");
                }
                if (reply.ok)
                    cycle = reply.cycle;
            }
            Reply info = send("info", at + "info checkpoints");
            {
                std::lock_guard<std::mutex> lock(shared.mu);
                shared.rep.values["debug.replayed_steps"] +=
                    numberAt(info.payload, "replayed_steps");
            }
            send("close", "close " + sid);
            if (client.pendingReplies() >= 1000) {
                std::string verdict = client.checkTranscript();
                check(verdict.empty(), "transcript: " + verdict);
            }
        }
        std::string verdict = client.checkTranscript();
        check(verdict.empty(), "transcript: " + verdict);
    }

    Options opts_;
    std::vector<BugInputs> bugs_;
    std::unique_ptr<serve::Server> server_;
    uint16_t port_ = 0;
    double lastSetupS_ = 0;
    uint64_t phase_ = 0;
    std::thread acceptor_;
};

} // namespace

std::unique_ptr<Workload>
makeServeDebug(const Options &opts)
{
    return std::make_unique<ServeDebug>(opts);
}

} // namespace perfbench
