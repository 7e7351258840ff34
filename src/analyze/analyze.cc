#include "analyze/analyze.hh"

#include <algorithm>
#include <functional>
#include <sstream>

#include "analysis/exprutil.hh"
#include "analyze/passes.hh"
#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/jsoncheck.hh"
#include "obs/trace.hh"

namespace hwdbg::analyze
{

using namespace hdl;

// ----------------------------------------------------------------- context

AnalyzeContext::AnalyzeContext(const Module &mod)
    : mod_(&mod), sigs_(mod)
{
}

AnalyzeContext::~AnalyzeContext() = default;

const analysis::DepGraph &
AnalyzeContext::graph()
{
    if (!graph_)
        graph_ = std::make_unique<analysis::DepGraph>(*mod_);
    return *graph_;
}

const ConstFixpoint &
AnalyzeContext::fixpoint()
{
    if (!fix_)
        fix_ = std::make_unique<ConstFixpoint>(
            solveConstants(*mod_, sigs_));
    return *fix_;
}

namespace
{

void
collectExprReads(const ExprPtr &expr, std::set<std::string> &out)
{
    if (!expr)
        return;
    for (const auto &sig : analysis::collectSignals(expr))
        out.insert(sig);
}

void
collectStmtReads(const StmtPtr &stmt, std::set<std::string> &out)
{
    if (!stmt)
        return;
    switch (stmt->kind) {
      case StmtKind::Block:
        for (const auto &sub : stmt->as<BlockStmt>()->stmts)
            collectStmtReads(sub, out);
        break;
      case StmtKind::If: {
        const auto *branch = stmt->as<IfStmt>();
        collectExprReads(branch->cond, out);
        collectStmtReads(branch->thenStmt, out);
        collectStmtReads(branch->elseStmt, out);
        break;
      }
      case StmtKind::Case: {
        const auto *sel = stmt->as<CaseStmt>();
        collectExprReads(sel->selector, out);
        for (const auto &item : sel->items) {
            for (const auto &label : item.labels)
                collectExprReads(label, out);
            collectStmtReads(item.body, out);
        }
        break;
      }
      case StmtKind::Assign: {
        const auto *assign = stmt->as<AssignStmt>();
        collectExprReads(assign->rhs, out);
        // Index/part-select lvalues read their index expressions (and
        // partially read the base); the written targets are not reads.
        std::set<std::string> lhs_sigs;
        collectExprReads(assign->lhs, lhs_sigs);
        for (const auto &target :
             analysis::lvalueTargets(assign->lhs))
            lhs_sigs.erase(target);
        for (const auto &sig : lhs_sigs)
            out.insert(sig);
        break;
      }
      case StmtKind::Display:
        for (const auto &arg : stmt->as<DisplayStmt>()->args)
            collectExprReads(arg, out);
        break;
      case StmtKind::Finish:
      case StmtKind::Null:
        break;
    }
}

} // namespace

const std::set<std::string> &
AnalyzeContext::procReads(const AlwaysItem *proc)
{
    auto it = reads_.find(proc);
    if (it != reads_.end())
        return it->second;
    std::set<std::string> reads;
    if (proc)
        collectStmtReads(proc->body, reads);
    return reads_.emplace(proc, std::move(reads)).first->second;
}

SourceLoc
AnalyzeContext::declLoc(const std::string &name) const
{
    if (const auto *info = sigs_.find(name))
        return info->loc;
    return mod_->loc;
}

void
AnalyzeContext::report(lint::Diagnostic diag)
{
    diags_.push_back(std::move(diag));
}

std::vector<lint::Diagnostic>
AnalyzeContext::take()
{
    lint::sortDiagnostics(diags_);
    return std::move(diags_);
}

// ---------------------------------------------------------------- registry

void
passLoop(AnalyzeContext &ctx)
{
    for (auto &diag : lint::combCycleDiagnostics(
             ctx.graph().combCycles(), [&](const std::string &name) {
                 return ctx.declLoc(name);
             }))
        ctx.report(std::move(diag));
}

const std::vector<AnalyzePass> &
analyzePasses()
{
    static const std::vector<AnalyzePass> passes = {
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
         passLoop},
    };
    return passes;
}

const AnalyzePass *
passById(const std::string &id)
{
    for (const auto &pass : analyzePasses())
        if (pass.id == id)
            return &pass;
    return nullptr;
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

std::vector<lint::Diagnostic>
runAnalyze(const Module &mod, const AnalyzeOptions &opts)
{
    obs::ObsSpan span("analyze");
    for (const auto &id : opts.passes)
        if (!passById(id))
            fatal("unknown analyze pass '%s'", id.c_str());
    AnalyzeContext ctx(mod);
    for (const auto &pass : analyzePasses()) {
        if (!opts.passes.empty() && !opts.passes.count(pass.id))
            continue;
        obs::ObsSpan passSpan(std::string("analyze.") + pass.id);
        pass.run(ctx);
    }
    return ctx.take();
}

// -------------------------------------------------------------------- JSON

std::string
renderAnalyzeJson(const std::vector<std::string> &passes,
                  const std::vector<lint::Diagnostic> &diags)
{
    std::ostringstream out;
    out << "{\"format\": \"hwdbg-analyze\", \"version\": 1,\n";
    out << "\"build\": " << obs::buildInfoJson() << ",\n";
    out << "\"passes\": [";
    for (size_t i = 0; i < passes.size(); ++i)
        out << (i ? ", " : "") << "\"" << obs::jsonEscape(passes[i])
            << "\"";
    out << "],\n";
    std::string body = lint::renderJson(diags);
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
