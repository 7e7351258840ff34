#include "analyze/diagnostic.hh"

#include <algorithm>
#include <sstream>


namespace hwdbg::analyze
{

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Info: return "info";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

void
sortDiagnostics(std::vector<Diagnostic> &diags)
{
    std::stable_sort(diags.begin(), diags.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         if (a.loc.file != b.loc.file)
                             return a.loc.file < b.loc.file;
                         if (a.loc.line != b.loc.line)
                             return a.loc.line < b.loc.line;
                         if (a.loc.col != b.loc.col)
                             return a.loc.col < b.loc.col;
                         return a.rule < b.rule;
                     });
}

std::string
renderText(const std::vector<Diagnostic> &diags)
{
    std::ostringstream out;
    for (const auto &diag : diags) {
        out << diag.loc.str() << ": " << severityName(diag.severity)
            << ": " << diag.message << " [" << diag.rule << "]";
        if (!diag.signals.empty()) {
            out << " {";
            for (size_t i = 0; i < diag.signals.size(); ++i)
                out << (i ? ", " : "") << diag.signals[i];
            out << "}";
        }
        out << "\n";
    }
    return out.str();
}

void
writeJson(obs::JsonWriter &w, const std::vector<Diagnostic> &diags)
{
    w.beginArray();
    for (const auto &diag : diags) {
        w.newline(2).beginObject()
            .member("rule", diag.rule)
            .member("severity", severityName(diag.severity))
            .member("subclass", diag.subclass)
            .member("file", diag.loc.file.str())
            .member("line", diag.loc.line)
            .member("col", diag.loc.col)
            .member("message", diag.message)
            .key("signals").beginArray();
        for (const auto &sig : diag.signals)
            w.value(sig);
        w.endArray().endObject();
    }
    w.newline(0).endArray();
}

std::string
renderJson(const std::vector<Diagnostic> &diags)
{
    std::string out;
    obs::JsonWriter w(out, obs::JsonWriter::Style::Spaced);
    writeJson(w, diags);
    out += '\n';
    return out;
}

const obs::Schema &
diagnosticsSchema()
{
    static const obs::Schema schema = obs::arrayOf(obs::ordered({
        {"rule", obs::string()},
        {"severity", obs::oneOf({"info", "warning", "error"})},
        {"subclass", obs::string()},
        {"file", obs::string()},
        {"line", obs::number()},
        {"col", obs::number()},
        {"message", obs::string()},
        {"signals", obs::arrayOf(obs::string())},
    }));
    return schema;
}

std::string
checkDiagnosticsJson(const std::string &text)
{
    return obs::checkJson(diagnosticsSchema(), text);
}

bool
hasErrors(const std::vector<Diagnostic> &diags)
{
    return std::any_of(diags.begin(), diags.end(),
                       [](const Diagnostic &diag) {
                           return diag.severity == Severity::Error;
                       });
}

} // namespace hwdbg::analyze
