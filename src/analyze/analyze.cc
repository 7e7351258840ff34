#include "analyze/analyze.hh"

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
    std::string out;
    obs::JsonWriter w(out, obs::JsonWriter::Style::Spaced);
    w.beginObject().member("format", "hwdbg-analyze").member("version", 1);
    w.newline(0).key("build").raw(obs::buildInfoJson());
    w.newline(0).key("passes").beginArray();
    for (const auto &pass : passes)
        w.value(pass);
    w.endArray();
    w.newline(0).key("diagnostics");
    writeJson(w, diags);
    w.endObject();
    out += '\n';
    return out;
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
        {"diagnostics", diagnosticsSchema()},
    });
    return obs::checkJson(schema, text);
}

} // namespace hwdbg::analyze
