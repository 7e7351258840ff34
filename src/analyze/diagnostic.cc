#include "analyze/diagnostic.hh"

#include <algorithm>
#include <sstream>

#include "obs/json.hh"

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

std::string
renderJson(const std::vector<Diagnostic> &diags)
{
    using obs::jsonEscape;
    std::ostringstream out;
    out << "[\n";
    for (size_t i = 0; i < diags.size(); ++i) {
        const auto &diag = diags[i];
        out << "  {\"rule\": \"" << jsonEscape(diag.rule)
            << "\", \"severity\": \"" << severityName(diag.severity)
            << "\", \"subclass\": \"" << jsonEscape(diag.subclass)
            << "\", \"file\": \"" << jsonEscape(diag.loc.file)
            << "\", \"line\": " << diag.loc.line
            << ", \"col\": " << diag.loc.col << ", \"message\": \""
            << jsonEscape(diag.message) << "\", \"signals\": [";
        for (size_t j = 0; j < diag.signals.size(); ++j)
            out << (j ? ", " : "") << "\""
                << jsonEscape(diag.signals[j]) << "\"";
        out << "]}" << (i + 1 < diags.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return out.str();
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
