/**
 * @file
 * Static-analysis diagnostics: the result record every lint rule and
 * analyze pass emits, plus the text and JSON renderers the CLI exposes.
 *
 * Each diagnostic carries the rule id, the Table 1 bug subclass the rule
 * is keyed to (the paper's bug-study taxonomy), a severity, the source
 * location of the offending construct, and the signal names involved so
 * downstream tooling (or a developer grepping a report) can jump from a
 * finding straight to a SignalCat/LossCheck deployment on those signals.
 */

#ifndef HWDBG_ANALYZE_DIAGNOSTIC_HH
#define HWDBG_ANALYZE_DIAGNOSTIC_HH

#include <string>
#include <vector>

#include "hdl/ast.hh"
#include "obs/json.hh"
#include "obs/jsoncheck.hh"

namespace hwdbg::analyze
{

enum class Severity { Info, Warning, Error };

const char *severityName(Severity severity);

struct Diagnostic
{
    /** Rule id, e.g. "sticky-flag". */
    std::string rule;
    Severity severity = Severity::Warning;
    /** Table 1 subclass the rule targets, e.g. "Failure-to-Update". */
    std::string subclass;
    hdl::SourceLoc loc;
    std::string message;
    /** Signals involved, most relevant first. */
    std::vector<std::string> signals;
};

/** Stable presentation order: location, then rule id. */
void sortDiagnostics(std::vector<Diagnostic> &diags);

/**
 * Compiler-style text rendering, one line per diagnostic:
 *   file:line:col: severity: message [rule] {signals}
 */
std::string renderText(const std::vector<Diagnostic> &diags);

/** JSON array rendering, one object per line. */
void writeJson(obs::JsonWriter &w, const std::vector<Diagnostic> &diags);
/** writeJson as a document (spaced, newline-terminated). */
std::string renderJson(const std::vector<Diagnostic> &diags);

/** Schema of writeJson's array (obs/jsoncheck.hh). */
const obs::Schema &diagnosticsSchema();
/** Validate renderJson text (`lint --format json`): "" when valid. */
std::string checkDiagnosticsJson(const std::string &text);

/** True when any diagnostic has Error severity (CLI exit status). */
bool hasErrors(const std::vector<Diagnostic> &diags);

} // namespace hwdbg::analyze

#endif // HWDBG_ANALYZE_DIAGNOSTIC_HH
