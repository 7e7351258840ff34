#include "analyze/analyze.hh"

#include <sstream>

#include "analyze/passes.hh"
#include "obs/json.hh"
#include "obs/jsoncheck.hh"

namespace hwdbg::analyze
{

using namespace hdl;

// ---------------------------------------------------------------- registry

const std::vector<Check> &
analyzePasses()
{
    static const std::vector<Check> passes = {
        {"const",
         "constant/known-bits propagation: dead guards, stuck "
         "outputs, unobservable logic",
         passConst},
        {"xinit",
         "definite assignment: registers readable before any "
         "assignment reaches them",
         passXinit},
        {"race",
         "scheduler races: blocking writes visible to sibling "
         "same-clock processes, mixed or multi-process drivers",
         passRace},
        {"cdc",
         "clock-domain crossings without a synchronizer register",
         passCdc},
        {"loop",
         "combinational loops (shared diagnostics with lint)",
         checkCombLoop},
    };
    return passes;
}

const Check *
passById(const std::string &id)
{
    return findCheck(analyzePasses(), id);
}

std::vector<std::string>
selectedPasses(const AnalyzeOptions &opts)
{
    std::vector<std::string> ids;
    for (const auto &pass : analyzePasses())
        if (opts.passes.empty() || opts.passes.count(pass.id))
            ids.push_back(pass.id);
    return ids;
}

std::vector<Diagnostic>
runAnalyze(const Module &mod, const AnalyzeOptions &opts)
{
    return runChecks("analyze", "analyze pass", analyzePasses(),
                     opts.passes, mod);
}

// -------------------------------------------------------------------- JSON

std::string
renderAnalyzeJson(const std::vector<std::string> &passes,
                  const std::vector<Diagnostic> &diags)
{
    std::ostringstream out;
    out << "{\"format\": \"hwdbg-analyze\", \"version\": 1,\n";
    out << "\"build\": " << obs::buildInfoJson() << ",\n";
    out << "\"passes\": [";
    for (size_t i = 0; i < passes.size(); ++i)
        out << (i ? ", " : "") << "\"" << obs::jsonEscape(passes[i])
            << "\"";
    out << "],\n";
    std::string body = renderJson(diags);
    while (!body.empty() && body.back() == '\n')
        body.pop_back();
    out << "\"diagnostics\": " << body << "}\n";
    return out.str();
}

std::string
checkAnalyzeJson(const std::string &text)
{
    static const obs::Schema schema = obs::ordered({
        {"format", obs::oneOf({"hwdbg-analyze"})},
        {"version", obs::exactly(1)},
        {"build", obs::buildSchema()},
        {"passes",
         obs::arrayOf(obs::string([](const obs::JsonValue &id) {
             return passById(id.text) ? std::string()
                                      : "unknown pass \"" + id.text + "\"";
         }))},
        {"diagnostics",
         obs::arrayOf(obs::ordered({
             {"rule", obs::string()},
             {"severity", obs::oneOf({"info", "warning", "error"})},
             {"subclass", obs::string()},
             {"file", obs::string()},
             {"line", obs::number()},
             {"col", obs::number()},
             {"message", obs::string()},
             {"signals", obs::arrayOf(obs::string())},
         }))},
    });
    return obs::checkJson(schema, text);
}

} // namespace hwdbg::analyze
