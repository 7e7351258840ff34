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
    auto fail = [](const std::string &why) { return why; };
    std::string parse_error;
    obs::JsonPtr root = obs::parseJson(text, &parse_error);
    if (!root)
        return fail(parse_error);
    if (!root->isObject())
        return fail("root is not an object");

    const auto *format = root->get("format");
    if (!format || !format->isString() ||
        format->text != "hwdbg-analyze")
        return fail("\"format\" must be \"hwdbg-analyze\"");
    const auto *version = root->get("version");
    if (!version || !version->isNumber() || version->number != 1)
        return fail("unsupported analyze format version");

    const auto *build = root->get("build");
    if (!build || !build->isObject())
        return fail("missing \"build\" object");
    for (const char *key : {"tool", "version", "git", "type"}) {
        const auto *member = build->get(key);
        if (!member || !member->isString())
            return fail(std::string("build.") + key +
                        " must be a string");
    }
    if (build->get("tool")->text != "hwdbg")
        return fail("build.tool must be \"hwdbg\"");

    const auto *passes = root->get("passes");
    if (!passes || !passes->isArray())
        return fail("missing \"passes\" array");
    for (const auto &elem : passes->elems) {
        if (!elem->isString())
            return fail("passes must be strings");
        if (!passById(elem->text))
            return fail("unknown pass \"" + elem->text + "\"");
    }

    const auto *diags = root->get("diagnostics");
    if (!diags || !diags->isArray())
        return fail("missing \"diagnostics\" array");
    for (const auto &elem : diags->elems) {
        if (!elem->isObject())
            return fail("diagnostics must be objects");
        for (const char *key :
             {"rule", "severity", "subclass", "file", "message"}) {
            const auto *member = elem->get(key);
            if (!member || !member->isString())
                return fail(std::string("diagnostic ") + key +
                            " must be a string");
        }
        const std::string &sev = elem->get("severity")->text;
        if (sev != "info" && sev != "warning" && sev != "error")
            return fail("bad severity \"" + sev + "\"");
        for (const char *key : {"line", "col"}) {
            const auto *member = elem->get(key);
            if (!member || !member->isNumber())
                return fail(std::string("diagnostic ") + key +
                            " must be a number");
        }
        const auto *signals = elem->get("signals");
        if (!signals || !signals->isArray())
            return fail("diagnostic signals must be an array");
        for (const auto &sig : signals->elems)
            if (!sig->isString())
                return fail("diagnostic signals must be strings");
    }
    return "";
}

} // namespace hwdbg::analyze
