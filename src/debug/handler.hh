/**
 * @file
 * Transport-agnostic debugger command dispatch.
 *
 * ProtocolHandler owns everything between "a parsed Request" and "the
 * bytes of a response": the command table, dispatch, machine-protocol
 * field rendering, and the per-command observability (span + latency
 * histogram + error counters). Transports stay thin — the single-user
 * REPL (repl.cc) reads lines from a stream, the multi-session server
 * (src/serve) routes requests by session id; both produce byte-
 * identical responses for the same engine state and request because
 * all rendering lives here.
 */

#ifndef HWDBG_DEBUG_HANDLER_HH
#define HWDBG_DEBUG_HANDLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "debug/engine.hh"
#include "debug/protocol.hh"

namespace hwdbg::debug
{

class ProtocolHandler
{
  public:
    explicit ProtocolHandler(Engine &engine) : engine_(engine) {}

    /** One command's outcome, rendered for both frontends. */
    struct Result
    {
        bool ok = true;
        std::string error;
        /** Pre-rendered payload object ("" = no payload field). */
        std::string payloadJson;
        std::vector<std::string> humanLines;
        bool quit = false;
    };

    /** The machine-mode hello line (without trailing newline). */
    std::string helloJson() const;

    /**
     * Dispatch one request: obs span + latency/error metrics around
     * the command, HdlError mapped to a failed Result. Never throws on
     * malformed commands — res.ok carries the verdict.
     */
    Result handle(const Request &req);

    /**
     * Append the machine-protocol response fields — id/ok/[error]/cmd/
     * [payload]/state, exactly in that order — into the object @p w
     * has open. The object may already carry leading transport fields (the serve
     * multiplexer's "session"); with none it renders the byte-exact
     * `hwdbg debug --machine` response line.
     */
    void responseFields(const Request &req, const Result &res,
                        obs::JsonWriter &w) const;

    Engine &engine() { return engine_; }

    /**
     * Route this handler's command spans onto an obs virtual track
     * (serve sets the owning session's track so a loaded server's
     * --trace file reads as one timeline lane per session). 0 keeps
     * spans on the calling thread's track.
     */
    void setTraceTrack(uint32_t track) { track_ = track; }

  private:
    Engine &engine_;
    uint32_t track_ = 0;
};

} // namespace hwdbg::debug

#endif // HWDBG_DEBUG_HANDLER_HH
