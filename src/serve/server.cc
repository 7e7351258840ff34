#include "serve/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "analyze/analyze.hh"
#include "common/logging.hh"
#include "compile/backend.hh"
#include "cover/run.hh"
#include "cover/snapshot.hh"
#include "debug/protocol.hh"
#include "debug/workload.hh"
#include "obs/json.hh"
#include "obs/jsoncheck.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/stats.hh"
#include "trace/json.hh"
#include "trace/run.hh"
#include "trace/vcd.hh"

namespace hwdbg::serve
{

namespace
{

/** key=value / bare-flag argument list for `open`. */
struct OpenArgs
{
    std::map<std::string, std::string> kv;
    std::set<std::string> flags;

    std::string opt(const std::string &key,
                    const std::string &dflt = "") const
    {
        auto it = kv.find(key);
        return it == kv.end() ? dflt : it->second;
    }
    bool flag(const std::string &name) const
    {
        return flags.count(name) != 0;
    }
};

OpenArgs
parseOpenArgs(const std::vector<std::string> &args)
{
    OpenArgs out;
    for (size_t i = 1; i < args.size(); ++i) {
        auto eq = args[i].find('=');
        if (eq == std::string::npos)
            out.flags.insert(args[i]);
        else
            out.kv[args[i].substr(0, eq)] = args[i].substr(eq + 1);
    }
    return out;
}

} // namespace

FdBuf::FdBuf(int fd) : fd_(fd)
{
    setg(ibuf_, ibuf_, ibuf_);
    setp(obuf_, obuf_ + sizeof(obuf_));
}

FdBuf::int_type
FdBuf::underflow()
{
    ssize_t n = ::read(fd_, ibuf_, sizeof(ibuf_));
    if (n <= 0)
        return traits_type::eof();
    setg(ibuf_, ibuf_, ibuf_ + n);
    return traits_type::to_int_type(ibuf_[0]);
}

FdBuf::int_type
FdBuf::overflow(int_type ch)
{
    if (sync() != 0)
        return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
        obuf_[0] = traits_type::to_char_type(ch);
        pbump(1);
    }
    return traits_type::not_eof(ch);
}

int
FdBuf::sync()
{
    const char *p = pbase();
    size_t len = static_cast<size_t>(pptr() - pbase());
    while (len) {
        ssize_t n = ::write(fd_, p, len);
        if (n <= 0)
            return -1;
        p += n;
        len -= static_cast<size_t>(n);
    }
    setp(obuf_, obuf_ + sizeof(obuf_));
    return 0;
}

int
connectLoopback(uint16_t port, const char *who)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("%s: socket: %s", who, std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        int err = errno;
        ::close(fd);
        fatal("%s: connect 127.0.0.1:%u: %s", who, unsigned(port),
              std::strerror(err));
    }
    return fd;
}

Server::Server(ServerOptions opts)
    : opts_(opts),
      reqlog_(opts.reqlogCapacity, opts.slowCapacity),
      start_(std::chrono::steady_clock::now())
{
    reqlog_.setEnabled(opts_.telemetry);
    reqlog_.setSlowThresholdUs(opts_.slowThresholdUs);
    if (!opts_.reqlogPath.empty()) {
        spill_ = std::make_unique<std::ofstream>(opts_.reqlogPath,
                                                 std::ios::binary);
        if (!*spill_)
            fatal("serve: cannot write request log '%s'",
                  opts_.reqlogPath.c_str());
        reqlog_.setSpill(spill_.get());
    }
}

Server::~Server()
{
    reqlog_.setSpill(nullptr);
}

uint64_t
Server::uptimeUs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
}

std::string
Server::helloJson() const
{
    return debug::compactObject([](obs::JsonWriter &w) {
        w.member("proto", "hwdbg-serve")
            .member("version", 1)
            .key("build")
            .raw(obs::buildInfoJson());
    });
}

std::string
Server::openSession(const std::vector<std::string> &args)
{
    if (args.empty())
        fatal("usage: open <debug|cover|trace|analyze> bug=ID|file=PATH "
              "[key=value...]");
    const std::string &kind = args[0];
    if (kind != "debug" && kind != "cover" && kind != "trace" &&
        kind != "analyze")
        fatal("unknown session kind '%s' "
              "(expected debug, cover, trace, or analyze)",
              kind.c_str());

    OpenArgs oa = parseOpenArgs(args);
    std::string bugId = oa.opt("bug");
    std::string file = oa.opt("file");
    std::string stimulus = oa.opt("stimulus");
    std::string backendName = oa.opt("backend", "interp");
    bool buggy = !oa.flag("fixed");
    if (bugId.empty() == file.empty())
        fatal("open needs exactly one of bug=ID or file=PATH");
    if (bugId.empty() && stimulus.empty() && kind != "analyze")
        fatal("%s sessions on file= designs need stimulus=FILE",
              kind.c_str());
    // Validate eagerly so a bad name fails before a cache slot exists.
    sim::BackendFactory backend = compile::backendByName(backendName);

    debug::WorkloadSpec spec;
    spec.instrument = true;
    std::string key;
    if (!bugId.empty()) {
        spec.bug = bugId;
        spec.buggy = buggy;
        key = "bug:" + bugId + (buggy ? ":buggy" : ":fixed");
    } else {
        spec.file = file;
        spec.top = oa.opt("top");
        spec.stimulus = stimulus;
        key = "file:" + file + ":top:" + spec.top + ":stim:" + stimulus;
    }
    auto builder = [&spec] { return debug::buildWorkload(spec); };

    DesignCache::Attach attach = cache_.getOrBuild(key, builder);
    const auto &design = attach.design;
    std::string label = bugId.empty() ? file : bugId;

    auto sess = registry_.create(kind);
    sess->design = design;
    sess->cacheHit = attach.hit;
    sess->openedUs = uptimeUs();
    // One named Perfetto track per session, minted lazily so an
    // untraced long-lived server never grows the track registry.
    if (obs::traceEnabled())
        sess->track = obs::traceRegisterTrack(
            "serve.session." + std::to_string(sess->id) + ":" + kind +
            ":" + label);
    obs::ObsSpan attachSpan("serve.attach:" + kind + ":" + label,
                            sess->track);

    // One-shot kinds put their result in the open payload and keep it
    // as the session's summary; debug sessions report their tape.
    std::function<void(obs::JsonWriter &)> summary;
    uint64_t steps = 0, signals = 0;
    try {
        if (kind == "debug") {
            debug::EngineOptions eopts;
            eopts.checkpointInterval = opts_.checkpointInterval;
            eopts.checkpointCapacity = opts_.checkpointCapacity;
            eopts.constants = design->constants;
            eopts.backend = backend;
            eopts.snapshots = &snapshots_;
            sess->engine = std::make_unique<debug::Engine>(
                hdl::cloneModule(*design->instrumented),
                design->instrumentedFacts, design->tape, eopts);
            sess->handler = std::make_unique<debug::ProtocolHandler>(
                *sess->engine);
            sess->handler->setTraceTrack(sess->track);
            steps = sess->engine->tapeSize();
            signals = sess->engine->sim().design().numSignals();
        } else if (kind == "cover") {
            auto snap = cover::coverDesign(hdl::cloneModule(*design->base),
                                           *design->baseFacts,
                                           *design->stimulus, backend);
            auto totals = snap.totals();
            if (!oa.opt("out").empty())
                writeFileOrFatal(oa.opt("out"), cover::toJson(snap));
            summary = [totals](obs::JsonWriter &w) {
                w.member("covered", totals.covered())
                    .member("total", totals.total());
            };
        } else if (kind == "trace") {
            trace::TraceConfig cfg;
            cfg.signals = splitCsv(oa.opt("signals"));
            cfg.trigger = oa.opt("trigger");
            if (!oa.opt("budget").empty())
                cfg.budgetBytes =
                    parseU64(oa.opt("budget"), "budget");
            auto dump = trace::traceDesign(hdl::cloneModule(*design->base),
                                           *design->stimulus, cfg, backend);
            if (!oa.opt("out").empty())
                writeFileOrFatal(oa.opt("out"), trace::toJson(dump));
            if (!oa.opt("vcd").empty())
                writeFileOrFatal(oa.opt("vcd"), trace::renderVcd(dump));
            summary = [rows = dump.rows.size(), samples = dump.samples,
                       drops = dump.drops,
                       fired = dump.fired](obs::JsonWriter &w) {
                w.member("rows", rows)
                    .member("samples", samples)
                    .member("drops", drops)
                    .member("fired", fired);
            };
        } else { // analyze
            analyze::AnalyzeOptions aopts;
            for (const auto &pass : splitCsv(oa.opt("passes")))
                aopts.passes.insert(pass);
            auto base = hdl::cloneModule(*design->base);
            auto diags = analyze::runAnalyze(*base, aopts);
            std::vector<std::string> ran = analyze::selectedPasses(aopts);
            if (!oa.opt("out").empty())
                writeFileOrFatal(oa.opt("out"),
                                 analyze::renderAnalyzeJson(ran, diags));
            summary = [passes = ran.size(), count = diags.size(),
                       errors = analyze::hasErrors(diags)](
                          obs::JsonWriter &w) {
                w.member("passes", passes)
                    .member("diagnostics", count)
                    .member("errors", errors);
            };
        }
    } catch (const HdlError &) {
        // Failed opens must not leave a half-built session listed.
        registry_.close(sess->id);
        throw;
    }
    if (summary)
        sess->summaryJson = debug::compactObject(summary);
    return debug::compactObject([&](obs::JsonWriter &w) {
        w.member("session", sess->id)
            .member("kind", kind)
            .member("design", design->name)
            .member("cache", attach.hit ? "hit" : "miss");
        if (kind == "debug")
            w.member("steps", steps).member("signals", signals);
        else
            summary(w);
    });
}

std::string
Server::statsJson()
{
    auto cache = cache_.stats();
    auto snaps = snapshots_.stats();

    uint64_t interned = snaps.stored + snaps.dedupHits;
    uint64_t now = uptimeUs();
    auto sessions = registry_.list();
    return debug::compactObject([&](obs::JsonWriter &w) {
        w.member("format", "hwdbg-serve-stats")
            .member("version", 1)
            .key("build")
            .raw(obs::buildInfoJson());
        w.key("server").beginObject()
            .member("sessions", registry_.count())
            .member("opened", registry_.opened())
            .member("channels", channels_.load(std::memory_order_relaxed))
            .member("channels_active",
                    channelsActive_.load(std::memory_order_relaxed))
            .member("requests", reqlog_.requests())
            .member("errors", reqlog_.errors())
            .member("slow", reqlog_.slowCount())
            .member("slow_threshold_us", reqlog_.slowThresholdUs())
            .member("dispatched", registry_.dispatched())
            .member("retired_cmds", registry_.retiredCmds())
            .member("uptime_us", uptimeUs())
            .endObject();
        w.key("cache").beginObject()
            .member("entries", cache_.size())
            .member("hits", cache.hits)
            .member("misses", cache.misses)
            .member("builds", cache.builds)
            .member("build_us", cache.buildMicros)
            .endObject();
        w.key("snapshots").beginObject()
            .member("stored", snaps.stored)
            .member("stored_bytes", snaps.storedBytes)
            .member("dedup_hits", snaps.dedupHits)
            .member("dedup_bytes", snaps.dedupBytes)
            .member("dedup_ratio_pct",
                    interned ? snaps.dedupHits * 100 / interned
                             : uint64_t{0})
            .endObject();
        w.key("commands").beginArray();
        for (const auto &snap : reqlog_.commands())
            w.beginObject()
                .member("cmd", snap.cmd)
                .member("count", snap.count)
                .member("errors", snap.errors)
                .member("p50_us", snap.p50Us)
                .member("p95_us", snap.p95Us)
                .member("p99_us", snap.p99Us)
                .member("max_us", snap.maxUs)
                .endObject();
        w.endArray().key("sessions").beginArray();
        for (const auto &sess : sessions) {
            w.beginObject()
                .member("session", sess->id)
                .member("kind", sess->kind)
                .member("design",
                        sess->design ? sess->design->name : std::string())
                .member("cache", sess->cacheHit ? "hit" : "miss")
                .member("cmds", sess->cmds.load(std::memory_order_relaxed))
                .member("errors",
                        sess->errs.load(std::memory_order_relaxed));
            if (sess->engine) {
                std::lock_guard<std::mutex> lock(sess->mu);
                w.member("cycle", sess->engine->sim().cycle());
            }
            w.member("uptime_us", now > sess->openedUs
                                      ? now - sess->openedUs
                                      : uint64_t{0})
                .endObject();
        }
        w.endArray();
    });
}

std::string
Server::serverCommand(const debug::Request &req, bool *failed,
                      bool *quitChannel)
{
    bool ok = true;
    std::string error;
    std::string payload;

    obs::ObsSpan span("serve.cmd:" + req.cmd);
    try {
        if (req.cmd == "open") {
            payload = openSession(req.args);
        } else if (req.cmd == "close") {
            if (req.args.size() != 1)
                fatal("usage: close <session-id>");
            int64_t sid = static_cast<int64_t>(
                parseU64(req.args[0], "session id"));
            if (!registry_.close(sid))
                fatal("no session %lld",
                      static_cast<long long>(sid));
            payload = debug::compactObject(
                [&](obs::JsonWriter &w) { w.member("session", sid); });
        } else if (req.cmd == "sessions") {
            auto sessions = registry_.list();
            payload = debug::compactObject([&](obs::JsonWriter &w) {
                w.member("count", sessions.size());
                w.key("sessions").beginArray();
                for (const auto &sess : sessions) {
                    w.beginObject()
                        .member("session", sess->id)
                        .member("kind", sess->kind)
                        .member("design", sess->design ? sess->design->name
                                                       : std::string())
                        .member("cache", sess->cacheHit ? "hit" : "miss");
                    if (sess->engine) {
                        std::lock_guard<std::mutex> lock(sess->mu);
                        w.member("cycle", sess->engine->sim().cycle());
                    } else if (!sess->summaryJson.empty()) {
                        w.key("result").raw(sess->summaryJson);
                    }
                    w.endObject();
                }
                w.endArray();
            });
        } else if (req.cmd == "stats") {
            std::string doc = statsJson();
            // `stats out=FILE` also lands the document on disk (the CI
            // smoke uploads it as an artifact).
            for (const auto &arg : req.args) {
                if (arg.rfind("out=", 0) == 0 && arg.size() > 4)
                    writeFileOrFatal(arg.substr(4), doc + "\n");
                else
                    fatal("stats: unknown argument '%s' "
                          "(expected out=FILE)",
                          arg.c_str());
            }
            payload = doc;
        } else if (req.cmd == "health") {
            payload = debug::compactObject([&](obs::JsonWriter &w) {
                w.member("status", "ok")
                    .member("sessions", registry_.count())
                    .member("channels_active",
                            channelsActive_.load(std::memory_order_relaxed))
                    .member("requests", reqlog_.requests())
                    .member("errors", reqlog_.errors())
                    .member("uptime_us", uptimeUs());
            });
        } else if (req.cmd == "slow") {
            auto slow = reqlog_.slow();
            payload = debug::compactObject([&](obs::JsonWriter &w) {
                w.member("threshold_us", reqlog_.slowThresholdUs())
                    .member("count", slow.size());
                w.key("requests").beginArray();
                for (const auto &event : slow)
                    w.raw(obs::RequestLog::eventJson(event));
                w.endArray();
            });
        } else if (req.cmd == "help") {
            static const char *cmds[] = {
                "open", "close", "sessions", "stats", "health",
                "slow", "help",  "quit",     "shutdown",
            };
            payload = debug::compactObject([](obs::JsonWriter &w) {
                w.key("commands").beginArray();
                for (const char *cmd : cmds)
                    w.value(cmd);
                w.endArray();
            });
        } else if (req.cmd == "quit") {
            *quitChannel = true;
        } else if (req.cmd == "shutdown") {
            shutdown();
            *quitChannel = true;
        } else {
            fatal("unknown server command '%s' (try help, or route "
                  "with \"session\":N / @N)",
                  req.cmd.c_str());
        }
    } catch (const HdlError &e) {
        ok = false;
        error = e.what();
    }

    HWDBG_STAT_INC("serve.cmds", 1);
    if (!ok) {
        HWDBG_STAT_INC("serve.errors", 1);
        *failed = true;
    }

    return debug::compactObject([&](obs::JsonWriter &w) {
        w.member("session", 0);
        debug::writeResponseHead(w, req, ok, error, payload);
    });
}

std::string
Server::routedCommand(const debug::Request &req, bool *failed)
{
    auto sess = registry_.find(req.session);
    std::string error;
    if (!sess)
        error = csprintf("no session %lld",
                         static_cast<long long>(req.session));
    else if (!sess->handler)
        error = csprintf("session %lld (%s) is not interactive",
                         static_cast<long long>(req.session),
                         sess->kind.c_str());
    if (!error.empty()) {
        HWDBG_STAT_INC("serve.cmds", 1);
        HWDBG_STAT_INC("serve.errors", 1);
        *failed = true;
        return debug::compactObject([&](obs::JsonWriter &w) {
            w.member("session", req.session);
            debug::writeResponseHead(w, req, false, error);
        });
    }

    std::lock_guard<std::mutex> lock(sess->mu);
    debug::ProtocolHandler::Result res = sess->handler->handle(req);
    if (!res.ok)
        *failed = true;
    registry_.noteDispatch(*sess, res.ok);
    std::string resp = debug::compactObject([&](obs::JsonWriter &w) {
        w.member("session", sess->id);
        sess->handler->responseFields(req, res, w);
    });
    // A routed `quit` retires the session, not the channel. Dispatch
    // accounting above runs first so close() folds the quit into the
    // retired totals.
    if (res.quit)
        registry_.close(sess->id);
    return resp;
}

std::string
Server::handleLine(const debug::Request &req, bool *failed,
                   bool *quitChannel)
{
    // One RequestEvent per line, recorded after the response is
    // rendered: a `stats` request therefore never sees itself, which
    // keeps the first stats document of a scripted run deterministic.
    obs::RequestEvent event;
    event.id = reqlog_.nextRequestId();
    event.session = req.hasSession ? static_cast<uint64_t>(req.session)
                                   : uint64_t{0};
    event.cmd = req.cmd.empty() ? std::string("?") : req.cmd;
    auto t0 = std::chrono::steady_clock::now();

    std::string resp;
    bool lineFailed = false;
    if (!req.error.empty()) {
        HWDBG_STAT_INC("serve.cmds", 1);
        HWDBG_STAT_INC("serve.errors", 1);
        lineFailed = true;
        resp = debug::compactObject([&](obs::JsonWriter &w) {
            w.member("session", req.hasSession ? req.session : 0);
            debug::writeResponseHead(w, req, false, req.error);
        });
    } else if (req.hasSession && req.session != 0) {
        resp = routedCommand(req, &lineFailed);
    } else {
        resp = serverCommand(req, &lineFailed, quitChannel);
    }

    event.ok = !lineFailed;
    event.latencyUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    reqlog_.record(event);
    HWDBG_STAT_HIST("serve.request_latency_us", event.latencyUs);
    if (lineFailed)
        *failed = true;
    return resp;
}

int
Server::runChannel(std::istream &in, std::ostream &out)
{
    HWDBG_STAT_INC("serve.channels", 1);
    channels_.fetch_add(1, std::memory_order_relaxed);
    uint64_t active =
        channelsActive_.fetch_add(1, std::memory_order_relaxed) + 1;
    HWDBG_STAT_MAX("serve.channels.peak", active);
    struct ActiveGuard
    {
        std::atomic<uint64_t> &active;
        ~ActiveGuard() { active.fetch_sub(1, std::memory_order_relaxed); }
    } guard{channelsActive_};
    out << helloJson() << "\n" << std::flush;
    int failures = 0;
    std::string line;
    while (std::getline(in, line)) {
        debug::Request req = debug::parseRequestLine(line);
        if (req.cmd.empty() && req.error.empty())
            continue; // blank/comment: scripts stay commentable
        bool failed = false;
        bool quitChannel = false;
        std::string resp = handleLine(req, &failed, &quitChannel);
        if (failed)
            ++failures;
        out << resp << "\n" << std::flush;
        if (quitChannel)
            break;
    }
    return failures;
}

uint16_t
Server::listenTcp(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("serve: socket: %s", std::strerror(errno));
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        int err = errno;
        ::close(fd);
        fatal("serve: bind 127.0.0.1:%u: %s", unsigned(port),
              std::strerror(err));
    }
    if (::listen(fd, 64) < 0) {
        int err = errno;
        ::close(fd);
        fatal("serve: listen: %s", std::strerror(err));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    listenFd_.store(fd);
    return ntohs(addr.sin_port);
}

int
Server::acceptLoop()
{
    int fd = listenFd_.load();
    if (fd < 0)
        fatal("serve: acceptLoop without listenTcp");

    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    while (!stopping_.load()) {
        int cfd = ::accept(fd, nullptr, nullptr);
        if (cfd < 0) {
            if (errno == EINTR && !stopping_.load())
                continue;
            break;
        }
        uint64_t conn = workers.size() + 1;
        workers.emplace_back([this, cfd, conn, &failures] {
            if (obs::traceEnabled())
                obs::setTraceThreadName("serve.conn-" +
                                        std::to_string(conn));
            FdBuf buf(cfd);
            std::istream in(&buf);
            std::ostream out(&buf);
            failures += runChannel(in, out);
            out.flush();
            ::close(cfd);
        });
    }
    for (auto &worker : workers)
        worker.join();
    listenFd_.store(-1);
    ::close(fd);
    return failures.load();
}

int
Server::serveTcp(uint16_t port, uint16_t *boundPort)
{
    uint16_t bound = listenTcp(port);
    if (boundPort)
        *boundPort = bound;
    return acceptLoop();
}

void
Server::shutdown()
{
    stopping_.store(true);
    int fd = listenFd_.load();
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR);
}

int
runClient(uint16_t port, std::istream &script, std::ostream &out)
{
    int fd = connectLoopback(port, "client");
    FdBuf buf(fd);
    std::istream rin(&buf);
    std::ostream rout(&buf);

    int failures = 0;
    std::string line;
    if (!std::getline(rin, line)) {
        ::close(fd);
        fatal("client: server closed before hello");
    }
    out << line << "\n";

    // Lockstep: one request line, one response line. Blank/comment
    // lines draw no response, mirroring the server's skip rule. An
    // `@_` prefix routes to the session this client most recently
    // opened, so one static script serves any number of concurrent
    // clients whose ids differ.
    int64_t lastSession = -1;
    while (std::getline(script, line)) {
        if (lastSession >= 0 && line.rfind("@_", 0) == 0)
            line = "@" + std::to_string(lastSession) + line.substr(2);
        debug::Request req = debug::parseRequestLine(line);
        if (req.cmd.empty() && req.error.empty())
            continue;
        rout << line << "\n" << std::flush;
        std::string resp;
        if (!std::getline(rin, resp))
            break;
        out << resp << "\n";
        std::string perr;
        auto root = obs::parseJson(resp, &perr);
        const auto *ok = root ? root->get("ok") : nullptr;
        if (!ok || ok->kind != obs::JsonValue::Kind::Bool || !ok->boolean)
            ++failures;
        if (root) {
            const auto *payload = root->get("payload");
            if (payload && payload->get("session") &&
                payload->get("session")->isNumber())
                lastSession = static_cast<int64_t>(
                    payload->get("session")->number);
        }
        if (!req.hasSession &&
            (req.cmd == "quit" || req.cmd == "shutdown"))
            break;
    }
    ::close(fd);
    return failures;
}

std::string
checkServeTranscript(const std::string &text)
{
    static const obs::Schema hello = obs::ordered({
        {"proto", obs::oneOf({"hwdbg-serve"})},
        {"version", obs::exactly(1)},
        {"build", obs::buildSchema()},
    });
    return obs::checkJsonLines(hello, debug::responseSchema(true), text);
}

} // namespace hwdbg::serve
