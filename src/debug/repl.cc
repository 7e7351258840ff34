#include "debug/repl.hh"

#include <istream>
#include <ostream>

#include "debug/handler.hh"
#include "debug/protocol.hh"

namespace hwdbg::debug
{

int
runSession(Engine &engine, std::istream &in, std::ostream &out,
           const SessionOptions &opts)
{
    ProtocolHandler handler(engine);
    const auto &design = engine.sim().design();
    if (opts.machine) {
        out << handler.helloJson() << "\n" << std::flush;
    } else {
        out << "hwdbg debug: " << design.module().name << ", "
            << engine.tapeSize() << " stimulus steps, "
            << design.numSignals() << " signals\n"
            << "Type 'help' for commands.\n";
    }

    int failures = 0;
    std::string line;
    while (true) {
        if (!opts.machine && !opts.echo)
            out << "(hwdbg) " << std::flush;
        if (!std::getline(in, line))
            break;
        Request req = parseRequestLine(line);
        if (req.cmd.empty() && req.error.empty()) {
            // Blank or comment line: no response, keeps scripts
            // commentable without perturbing transcripts.
            continue;
        }

        ProtocolHandler::Result res = handler.handle(req);
        if (!res.ok)
            ++failures;

        if (opts.machine) {
            out << compactObject([&](obs::JsonWriter &w) {
                handler.responseFields(req, res, w);
            }) << "\n" << std::flush;
        } else {
            if (opts.echo)
                out << "(hwdbg) " << line << "\n";
            if (!res.ok)
                out << "error: " << res.error << "\n";
            for (const auto &text : res.humanLines)
                out << text << "\n";
        }
        if (res.quit)
            break;
    }
    return failures;
}

} // namespace hwdbg::debug
