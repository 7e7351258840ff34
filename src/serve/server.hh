/**
 * @file
 * `hwdbg serve`: a long-lived multi-session debug/analysis server.
 *
 * One Server hosts many simultaneous sessions over the JSON-lines
 * protocol, multiplexed with session ids. A channel (stdio, a script
 * file, or one TCP connection) interleaves two request classes:
 *
 *   server-level   open/close/sessions/stats/help/shutdown/quit —
 *                  no session routing; responses carry "session":0
 *   session-routed JSON `"session":N` or a bare-text `@N ` prefix;
 *                  the request dispatches into session N's
 *                  ProtocolHandler and the response is the ordinary
 *                  debug response prefixed with "session":N
 *
 * Wire format (checkServeTranscript() enforces):
 *
 *   hello     {"proto":"hwdbg-serve","version":1,"build":{...}}
 *   server    {"session":0,"id":<n|null>,"ok":b,["error":...,]
 *              "cmd":...,["payload":{...}]}
 *   routed    {"session":N,<debug response fields incl. state>}
 *
 * Server commands (key=value arguments, values must be space-free):
 *
 *   open <kind> bug=ID [fixed] | file=PATH [top=NAME] [stimulus=FILE]
 *        [backend=interp|bytecode] [out=FILE] [vcd=FILE]
 *        [signals=G1,G2] [trigger=EXPR] [budget=BYTES] [passes=A,B]
 *     kind is debug | cover | trace | analyze. Debug sessions stay
 *     interactive; the one-shot kinds run at open and keep a summary.
 *   close <sid> / sessions / help / quit / shutdown
 *   stats [out=FILE]  full hwdbg-serve-stats v1 document (serve/stats.hh)
 *   health            liveness probe: status/sessions/requests/errors
 *   slow              slow-request ring (latency >= --slow-us)
 *
 * Telemetry: every request is logged into an obs::RequestLog (request
 * id, session, command, outcome, latency) with per-command latency
 * histograms behind `stats`; requests at or over the slow threshold
 * land in the `slow` ring and everything can spill as JSON lines to
 * ServerOptions::reqlogPath. A `stats` request records itself only
 * after rendering its response, so the first stats document of a
 * scripted run is deterministic. With --trace armed, every session
 * gets its own named Perfetto track carrying attach + command spans.
 *
 * Sessions attach through the shared DesignCache (elaborate + record
 * once per (source, variant)) and intern checkpoints in the
 * shared SnapshotStore, so the Nth session on a design is attach-cheap
 * and checkpoint-dedup'd against its peers. Every response line is a
 * deterministic function of the request sequence on its channel, which
 * keeps serve transcripts golden-diffable like debug ones.
 */

#ifndef HWDBG_SERVE_SERVER_HH
#define HWDBG_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <streambuf>
#include <string>

#include "obs/reqlog.hh"
#include "serve/cache.hh"
#include "serve/session.hh"
#include "serve/snapstore.hh"

namespace hwdbg::serve
{

struct ServerOptions
{
    /** Checkpoint cadence handed to every debug session's engine. */
    uint64_t checkpointInterval = 128;
    size_t checkpointCapacity = 64;
    /** Per-request telemetry (--no-telemetry turns it off). */
    bool telemetry = true;
    /** Requests at or over this land in the slow ring (--slow-us). */
    uint64_t slowThresholdUs = 100000;
    /** JSON-lines spill of every request event (--reqlog FILE). */
    std::string reqlogPath;
    /** Ring capacities for the request log. */
    size_t reqlogCapacity = 1024;
    size_t slowCapacity = 64;
};

class Server
{
  public:
    explicit Server(ServerOptions opts = {});
    ~Server(); // out-of-line: spill_ needs the complete ofstream

    /** The hwdbg-serve hello line (no trailing newline). */
    std::string helloJson() const;

    /**
     * Drive one JSON-lines channel until EOF or `quit`/`shutdown`.
     * Emits the hello, then one response per request line. Returns the
     * number of failed commands (0 for a clean channel). Thread-safe:
     * every TCP connection runs its own channel concurrently.
     */
    int runChannel(std::istream &in, std::ostream &out);

    /**
     * Bind + listen on 127.0.0.1:@p port (0 picks an ephemeral port)
     * and return the bound port. Call acceptLoop() to start serving.
     */
    uint16_t listenTcp(uint16_t port);

    /**
     * Accept connections on the listenTcp() socket, one concurrent
     * channel per connection, until a channel issues `shutdown` (or
     * shutdown() is called). Returns the total number of failed
     * commands across all channels.
     */
    int acceptLoop();

    /** listenTcp() + acceptLoop() in one call. */
    int serveTcp(uint16_t port, uint16_t *boundPort = nullptr);

    /** Stop the TCP accept loop (idempotent, thread-safe). */
    void shutdown();

    DesignCache &cache() { return cache_; }
    SnapshotStore &snapshots() { return snapshots_; }
    SessionRegistry &sessions() { return registry_; }
    obs::RequestLog &requestLog() { return reqlog_; }

    /**
     * The hwdbg-serve-stats v1 document, one line (see serve/stats.hh
     * for the schema). Also the payload of the `stats` command; tests
     * call it directly so the fetch itself is not logged.
     */
    std::string statsJson();

  private:
    std::string handleLine(const debug::Request &req, bool *failed,
                           bool *quitChannel);
    std::string serverCommand(const debug::Request &req, bool *failed,
                              bool *quitChannel);
    std::string routedCommand(const debug::Request &req, bool *failed);
    /** Runs `open`; returns the payload JSON. Throws HdlError. */
    std::string openSession(const std::vector<std::string> &args);
    /** Microseconds since the server was constructed. */
    uint64_t uptimeUs() const;

    ServerOptions opts_;
    DesignCache cache_;
    SnapshotStore snapshots_;
    SessionRegistry registry_;
    obs::RequestLog reqlog_;
    /** Owns the --reqlog spill stream for the process lifetime. */
    std::unique_ptr<std::ofstream> spill_;
    std::chrono::steady_clock::time_point start_;
    std::atomic<uint64_t> channels_{0};
    std::atomic<uint64_t> channelsActive_{0};
    std::atomic<bool> stopping_{false};
    std::atomic<int> listenFd_{-1};
};

/** Minimal iostream plumbing over a connected socket fd. */
class FdBuf : public std::streambuf
{
  public:
    explicit FdBuf(int fd);

  protected:
    int_type underflow() override;
    int_type overflow(int_type ch) override;
    int sync() override;

  private:
    int fd_;
    char ibuf_[4096];
    char obuf_[4096];
};

/** A TCP socket connected to 127.0.0.1:@p port; @p who prefixes the
 *  error raised when the connection fails. */
int connectLoopback(uint16_t port, const char *who);

/**
 * Connect to a server on 127.0.0.1:@p port and drive it from @p script
 * in lockstep (one request line, one response line), echoing the hello
 * and every response to @p out. An `@_` routing prefix substitutes the
 * id of the session this client most recently opened, so one static
 * script serves any number of concurrent clients whose ids differ.
 * Returns the number of failed responses. The CI smoke's scripted
 * concurrent clients use this.
 */
int runClient(uint16_t port, std::istream &script, std::ostream &out);

/**
 * Validate a serve transcript: the hwdbg-serve hello first, then
 * response objects whose first member is a numeric "session" followed
 * by the debug response fields (state optional: server-level responses
 * have none, routed responses always do). Returns "" when valid, else
 * "line N: reason".
 */
std::string checkServeTranscript(const std::string &text);

} // namespace hwdbg::serve

#endif // HWDBG_SERVE_SERVER_HH
