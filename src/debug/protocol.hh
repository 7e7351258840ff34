/**
 * @file
 * The hwdbg debug machine protocol: JSON-lines request/response.
 *
 * Machine mode (`hwdbg debug --machine`) speaks one JSON object per
 * line, synchronously: every request line yields exactly one response
 * line, in order. The first output line is the hello object; no output
 * is produced unprompted after it, so a transcript is a deterministic
 * function of the session script (the golden-diff property
 * tests/cli_debug.cmake relies on).
 *
 *   hello     {"proto":"hwdbg-debug","version":1,"design":...,
 *              "steps":N,"signals":N,"build":{...}}
 *   response  {"id":<n|null>,"ok":true,["error":...,]"cmd":...,
 *              ["payload":{...},]
 *              "state":{"cycle":N,"step":N,"finished":b,"end":b}}
 *
 * Field order is fixed exactly as above; checkDebugTranscript()
 * enforces it through the hello and response schemas (the format
 * table `hwdbg obscheck` uses for this format).
 * Requests are either JSON objects {"id":1,"cmd":"break",
 * "args":["state == 3"]} or bare REPL command lines ("break state ==
 * 3") — both forms normalize to the same Request, so the same script
 * file drives human and machine sessions.
 */

#ifndef HWDBG_DEBUG_PROTOCOL_HH
#define HWDBG_DEBUG_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace hwdbg::obs
{
struct Schema;
}

namespace hwdbg::debug
{

/** A normalized request: a command word plus argument tokens. */
struct Request
{
    bool hasId = false;
    int64_t id = 0;
    /** Serve-mode session routing: JSON `"session":N` or a bare-text
     *  `@N ` prefix. Absent (hasSession false) in plain debug mode and
     *  for serve's own server-level commands. */
    bool hasSession = false;
    int64_t session = 0;
    std::string cmd;
    std::vector<std::string> args;
    /** Non-empty when the line could not be parsed. */
    std::string error;
};

/** Parse one input line (JSON object or bare command text). */
Request parseRequestLine(const std::string &line);

/**
 * A compact JSON object whose members @p body writes into the
 * obs::JsonWriter it is passed: the form of every protocol line and
 * payload.
 */
template <typename Body>
std::string
compactObject(Body &&body)
{
    std::string out;
    obs::JsonWriter w(out, obs::JsonWriter::Style::Compact);
    w.beginObject();
    body(w);
    w.endObject();
    return out;
}

/**
 * Append the members every response line carries, in order:
 * id/ok/[error]/cmd/[payload]. "error" is written when @p ok is false,
 * "payload" (pre-rendered JSON) when non-empty, and an empty command
 * word reads "?".
 */
void writeResponseHead(obs::JsonWriter &w, const Request &req, bool ok,
                       const std::string &error,
                       const std::string &payload = "");

/**
 * Schema of one response line: id/ok/[error]/cmd/[payload]/state in
 * exactly that order, "error" present exactly when ok is false. With
 * @p serve the line leads with a numeric "session" and the state may
 * be absent (serve's server-level responses); the debug and serve
 * transcripts share every other field.
 */
const obs::Schema &responseSchema(bool serve = false);

/**
 * Validate a machine-mode transcript: the hello line first, then
 * response lines. Returns "" when valid, else "line N: reason".
 */
std::string checkDebugTranscript(const std::string &text);

} // namespace hwdbg::debug

#endif // HWDBG_DEBUG_PROTOCOL_HH
