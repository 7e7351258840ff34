#include "debug/protocol.hh"

#include <sstream>

#include "obs/json.hh"
#include "obs/jsoncheck.hh"

namespace hwdbg::debug
{

void
writeResponseHead(obs::JsonWriter &w, const Request &req, bool ok,
                  const std::string &error, const std::string &payload)
{
    w.key("id");
    if (req.hasId)
        w.value(req.id);
    else
        w.null();
    w.member("ok", ok);
    if (!ok)
        w.member("error", error);
    w.member("cmd", req.cmd.empty() ? std::string_view("?") : req.cmd);
    if (!payload.empty())
        w.key("payload").raw(payload);
}

Request
parseRequestLine(const std::string &line)
{
    Request req;

    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return req; // empty; caller skips empty cmd

    if (line[first] == '{') {
        // Integers are vetted before any cast: an id of 1e300 or 1.5
        // is an error, not a reply a client matches to the wrong
        // request. A valid id, session and cmd are taken before the
        // rest is checked, so a malformed request still echoes them.
        static const obs::Schema id = obs::nullable(obs::integer());
        static const obs::Schema session = obs::integer();
        static const obs::Schema request = obs::object({
            {"id", id, false},
            {"session", session, false},
            {"cmd", obs::string()},
            {"args", obs::arrayOf(obs::string()), false},
        });
        std::string error;
        obs::JsonPtr root = obs::parseJson(line, &error);
        if (root) {
            if (const auto *v = root->get("id");
                v && v->isNumber() && obs::checkJson(id, *v).empty()) {
                req.hasId = true;
                req.id = static_cast<int64_t>(v->number);
            }
            if (const auto *v = root->get("session");
                v && obs::checkJson(session, *v).empty()) {
                req.hasSession = true;
                req.session = static_cast<int64_t>(v->number);
            }
            if (const auto *v = root->get("cmd"); v && v->isString())
                req.cmd = v->text;
            error = obs::checkJson(request, *root);
        }
        if (!error.empty()) {
            req.error = "bad JSON request: " + error;
            return req;
        }
        if (const auto *args = root->get("args")) {
            // Multi-word argument strings normalize to the same token
            // stream a bare command line produces.
            for (const auto &elem : args->elems) {
                std::istringstream toks(elem->text);
                std::string tok;
                while (toks >> tok)
                    req.args.push_back(tok);
            }
        }
        return req;
    }

    if (line[first] == '#')
        return req; // comment line

    std::istringstream toks(line);
    toks >> req.cmd;
    // Bare-text session routing: "@2 step 5" targets session 2.
    if (req.cmd.size() > 1 && req.cmd[0] == '@') {
        bool digits = true;
        for (size_t i = 1; i < req.cmd.size(); ++i)
            digits = digits && req.cmd[i] >= '0' && req.cmd[i] <= '9';
        // At most 15 digits: the id stays an exact JSON integer.
        if (!digits || req.cmd.size() > 16) {
            req.error = "bad session prefix '" + req.cmd + "'";
            req.cmd.clear();
            return req;
        }
        req.hasSession = true;
        req.session = std::stoll(req.cmd.substr(1));
        req.cmd.clear();
        toks >> req.cmd;
        if (req.cmd.empty()) {
            req.error = "session prefix without a command";
            return req;
        }
    }
    std::string tok;
    while (toks >> tok)
        req.args.push_back(tok);
    return req;
}

namespace
{

std::string
errorIffFailed(const obs::JsonValue &resp)
{
    bool ok = resp["ok"].boolean;
    if (ok && resp.get("error"))
        return ".error: only allowed when ok is false";
    if (!ok && !resp.get("error"))
        return ".error: failed responses must carry \"error\"";
    return "";
}

obs::Schema
makeResponseSchema(bool serve)
{
    std::vector<obs::Schema::Member> members = {
        {"id", obs::nullable(obs::integer())},
        {"ok", obs::boolean()},
        {"error", obs::string(), false},
        {"cmd", obs::string()},
        {"payload", obs::object({}), false},
        {"state",
         obs::ordered({{"cycle", obs::number()},
                       {"step", obs::number()},
                       {"finished", obs::boolean()},
                       {"end", obs::boolean()}}),
         !serve},
    };
    if (serve)
        members.insert(members.begin(), {"session", obs::integer()});
    return obs::ordered(std::move(members), errorIffFailed);
}

} // namespace

const obs::Schema &
responseSchema(bool serve)
{
    static const obs::Schema debug = makeResponseSchema(false);
    static const obs::Schema served = makeResponseSchema(true);
    return serve ? served : debug;
}

std::string
checkDebugTranscript(const std::string &text)
{
    static const obs::Schema hello = obs::ordered({
        {"proto", obs::oneOf({"hwdbg-debug"})},
        {"version", obs::exactly(1)},
        {"design", obs::string()},
        {"steps", obs::number()},
        {"signals", obs::number()},
        {"build", obs::buildSchema()},
    });
    return obs::checkJsonLines(hello, responseSchema(), text);
}

} // namespace hwdbg::debug
