#include "analyze/context.hh"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/logging.hh"
#include "elab/ip_models.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hwdbg::analyze
{

using namespace hdl;

// ------------------------------------------------------------ AST helpers

namespace
{

bool
nameContains(const std::string &name, const char *needle)
{
    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return lower.find(needle) != std::string::npos;
}

void
addSignals(const ExprPtr &expr, std::set<std::string> &out)
{
    if (!expr)
        return;
    for (const auto &name : collectSignals(expr))
        out.insert(name);
}

/** Signals an lvalue reads: its dynamic indices and bounds. */
void
lvalueReads(const ExprPtr &lhs, std::set<std::string> &out)
{
    if (!lhs)
        return;
    switch (lhs->kind) {
      case ExprKind::Index:
        addSignals(lhs->as<IndexExpr>()->index, out);
        break;
      case ExprKind::Range:
        addSignals(lhs->as<RangeExpr>()->msb, out);
        addSignals(lhs->as<RangeExpr>()->lsb, out);
        break;
      case ExprKind::Concat:
        for (const auto &part : lhs->as<ConcatExpr>()->parts)
            lvalueReads(part, out);
        break;
      default:
        break;
    }
}

/** Keep in @p into only the signals @p other also holds. */
void
intersectInto(std::set<std::string> &into,
              const std::set<std::string> &other)
{
    std::erase_if(into,
                  [&](const std::string &sig) { return !other.count(sig); });
}

} // namespace

void
stmtReads(const Stmt &stmt, std::set<std::string> &out)
{
    switch (stmt.kind) {
      case StmtKind::If:
        addSignals(stmt.as<IfStmt>()->cond, out);
        break;
      case StmtKind::Case: {
        const auto *sel = stmt.as<CaseStmt>();
        addSignals(sel->selector, out);
        for (const auto &item : sel->items)
            for (const auto &label : item.labels)
                addSignals(label, out);
        break;
      }
      case StmtKind::Assign:
        addSignals(stmt.as<AssignStmt>()->rhs, out);
        lvalueReads(stmt.as<AssignStmt>()->lhs, out);
        break;
      case StmtKind::Display:
        for (const auto &arg : stmt.as<DisplayStmt>()->args)
            addSignals(arg, out);
        break;
      default:
        break;
    }
}

void
forEachStmt(const StmtPtr &stmt, const std::function<void(const Stmt &)> &fn)
{
    if (!stmt)
        return;
    fn(*stmt);
    switch (stmt->kind) {
      case StmtKind::Block:
        for (const auto &sub : stmt->as<BlockStmt>()->stmts)
            forEachStmt(sub, fn);
        break;
      case StmtKind::If:
        forEachStmt(stmt->as<IfStmt>()->thenStmt, fn);
        forEachStmt(stmt->as<IfStmt>()->elseStmt, fn);
        break;
      case StmtKind::Case:
        for (const auto &item : stmt->as<CaseStmt>()->items)
            forEachStmt(item.body, fn);
        break;
      default:
        break;
    }
}

std::set<std::string>
mustAssign(const StmtPtr &stmt, std::set<std::string> assigned,
           const MustAssignVisit &visit)
{
    if (!stmt)
        return assigned;
    if (visit && stmt->kind != StmtKind::Block)
        visit(*stmt, assigned);
    switch (stmt->kind) {
      case StmtKind::Block:
        for (const auto &sub : stmt->as<BlockStmt>()->stmts)
            assigned = mustAssign(sub, std::move(assigned), visit);
        return assigned;
      case StmtKind::If: {
        const auto *branch = stmt->as<IfStmt>();
        auto out = mustAssign(branch->thenStmt, assigned, visit);
        intersectInto(out, mustAssign(branch->elseStmt, assigned, visit));
        return out;
      }
      case StmtKind::Case: {
        // Every arm starts from `assigned`, so when an unmatched
        // selector can skip them all (no default) that is the result.
        std::optional<std::set<std::string>> out;
        bool has_default = false;
        for (const auto &item : stmt->as<CaseStmt>()->items) {
            has_default = has_default || item.labels.empty();
            auto arm = mustAssign(item.body, assigned, visit);
            if (out)
                intersectInto(*out, arm);
            else
                out = std::move(arm);
        }
        return has_default ? std::move(*out) : assigned;
      }
      case StmtKind::Assign:
        for (const auto &target :
             lvalueTargets(stmt->as<AssignStmt>()->lhs))
            assigned.insert(target);
        return assigned;
      default:
        return assigned;
    }
}

std::vector<ExprPtr>
conjuncts(const ExprPtr &expr)
{
    std::vector<ExprPtr> out;
    std::vector<ExprPtr> work{expr};
    while (!work.empty()) {
        ExprPtr cur = work.back();
        work.pop_back();
        if (cur && cur->kind == ExprKind::Binary &&
            cur->as<BinaryExpr>()->op == BinaryOp::LogAnd) {
            work.push_back(cur->as<BinaryExpr>()->lhs);
            work.push_back(cur->as<BinaryExpr>()->rhs);
        } else if (cur) {
            out.push_back(cur);
        }
    }
    return out;
}

bool
mentions(const ExprPtr &expr, const std::string &name)
{
    bool found = false;
    forEachIdent(expr, [&](const std::string &id) {
        if (id == name)
            found = true;
    });
    return found;
}

// ------------------------------------------------------------------ facts

Context::Context(const Module &mod) : mod_(&mod) {}

template <typename T, typename Build>
const T &
Context::get(Fact<T> &fact, const char *name, Build build) const
{
    std::call_once(fact.once, [&] {
        fact.value.emplace(build());
        if (obs::metricsEnabled())
            obs::counter(csprintf("analyze.fact.%s.builds", name)).inc();
    });
    return *fact.value;
}

const SignalTable &
Context::signals() const
{
    return get(sigs_, "signals", [&] { return SignalTable(*mod_); });
}

const std::vector<GuardedAssign> &
Context::assigns() const
{
    return get(assigns_, "assigns", [&] { return collectAssigns(*mod_); });
}

const AssignIndex &
Context::assignsOf() const
{
    return get(assignsOf_, "assignsOf",
               [&] { return indexAssigns(assigns()); });
}

const std::vector<GuardedDisplay> &
Context::displays() const
{
    return get(displays_, "displays",
               [&] { return collectDisplays(*mod_); });
}

const DepGraph &
Context::graph() const
{
    return get(graph_, "graph", [&] { return DepGraph(*this); });
}

const std::vector<FsmInfo> &
Context::fsms() const
{
    return get(fsms_, "fsms", [&] { return detectFsms(*this); });
}

const RelationTable &
Context::relations() const
{
    return get(relations_, "relations",
               [&] { return RelationTable(*this); });
}

const ConstFixpoint &
Context::fixpoint() const
{
    return get(fix_, "fixpoint", [&] {
        return solveConstants(*mod_, signals(), assigns(), assignsOf());
    });
}

const std::map<std::string, ExprPtr> &
Context::wires() const
{
    return get(wires_, "wires", [&] { return wireDefinitions(*mod_); });
}

SourceLoc
Context::declLoc(const std::string &name) const
{
    if (const auto *info = signals().find(name))
        return info->loc;
    return mod_->loc;
}

const Context::Census &
Context::census()
{
    if (census_)
        return *census_;
    Census &census = census_.emplace();
    auto add_driver = [&](const ExprPtr &lhs, const Item *item) {
        for (const auto &target : lvalueTargets(lhs)) {
            auto &sites = census.drivers[target];
            if (!sites.empty() && sites.back().item == item)
                continue; // one site per (signal, item)
            sites.push_back(DriverSite{item, item->loc});
        }
    };

    for (const auto &item : mod_->items) {
        switch (item->kind) {
          case ItemKind::ContAssign: {
            const auto *cont = item->as<ContAssignItem>();
            add_driver(cont->lhs, item.get());
            addSignals(cont->rhs, census.reads);
            lvalueReads(cont->lhs, census.reads);
            break;
          }
          case ItemKind::Always: {
            const auto *proc = item->as<AlwaysItem>();
            for (const auto &sens : proc->sens)
                census.reads.insert(sens.signal);
            forEachStmt(proc->body, [&](const Stmt &stmt) {
                stmtReads(stmt, census.reads);
                if (stmt.kind == StmtKind::Assign)
                    add_driver(stmt.as<AssignStmt>()->lhs, item.get());
            });
            break;
          }
          case ItemKind::Instance: {
            const auto *inst = item->as<InstanceItem>();
            const elab::IpModel *model =
                elab::lookupIpModel(inst->moduleName);
            for (const auto &conn : inst->conns) {
                if (!conn.actual)
                    continue;
                if (model && model->outputs.count(conn.formal)) {
                    add_driver(conn.actual, item.get());
                    lvalueReads(conn.actual, census.reads);
                } else {
                    addSignals(conn.actual, census.reads);
                }
            }
            break;
          }
          default:
            break;
        }
    }
    return census;
}

bool
Context::isRead(const std::string &name)
{
    return census().reads.count(name) != 0;
}

const std::vector<DriverSite> &
Context::driversOf(const std::string &name)
{
    static const std::vector<DriverSite> none;
    const auto &drivers = census().drivers;
    auto it = drivers.find(name);
    return it == drivers.end() ? none : it->second;
}

const std::set<std::string> &
Context::procReads(const AlwaysItem *proc)
{
    auto it = procReads_.find(proc);
    if (it != procReads_.end())
        return it->second;
    std::set<std::string> reads;
    if (proc)
        forEachStmt(proc->body,
                    [&](const Stmt &stmt) { stmtReads(stmt, reads); });
    return procReads_.emplace(proc, std::move(reads)).first->second;
}

const std::set<std::string> &
Context::resets()
{
    if (!resets_) {
        resets_.emplace();
        const auto &sigs = signals();
        for (const auto &name : sigs.order())
            if (sigs.find(name)->dir == PortDir::Input &&
                (nameContains(name, "rst") ||
                 nameContains(name, "reset")))
                resets_->insert(name);
    }
    return *resets_;
}

const std::set<std::string> &
Context::clocks()
{
    if (!clocks_) {
        clocks_.emplace();
        for (const auto &name : signals().order())
            if (nameContains(name, "clk") || nameContains(name, "clock"))
                clocks_->insert(name);
        for (const auto &item : mod_->items)
            if (item->kind == ItemKind::Always)
                for (const auto &sens : item->as<AlwaysItem>()->sens)
                    clocks_->insert(sens.signal);
    }
    return *clocks_;
}

bool
Context::isResetName(const std::string &name)
{
    return resets().count(name) != 0;
}

bool
Context::isClockName(const std::string &name)
{
    return clocks().count(name) != 0;
}

bool
Context::isResetBranchGuard(const ExprPtr &guard)
{
    const auto &rsts = resets();
    if (!activeHighResets_) {
        // A reset is active-high when some guard asserts it as a bare
        // positive conjunct (the `if (rst)` branch); otherwise every
        // reset branch must test it inverted, i.e. active-low.
        activeHighResets_.emplace();
        for (const auto &ga : assigns())
            for (const auto &conj : conjuncts(ga.guard))
                if (conj->kind == ExprKind::Id &&
                    rsts.count(conj->as<IdExpr>()->name))
                    activeHighResets_->insert(conj->as<IdExpr>()->name);
    }
    for (const auto &conj : conjuncts(guard)) {
        if (conj->kind == ExprKind::Id) {
            const auto &name = conj->as<IdExpr>()->name;
            if (rsts.count(name) && activeHighResets_->count(name))
                return true;
        } else if (conj->kind == ExprKind::Unary) {
            const auto *inv = conj->as<UnaryExpr>();
            if ((inv->op == UnaryOp::LogNot ||
                 inv->op == UnaryOp::BitNot) &&
                inv->arg->kind == ExprKind::Id) {
                const auto &name = inv->arg->as<IdExpr>()->name;
                if (rsts.count(name) && !activeHighResets_->count(name))
                    return true;
            }
        }
    }
    return false;
}

// ------------------------------------------------------------------- sink

void
Context::report(const SourceLoc &loc, std::string message,
                std::vector<std::string> signals)
{
    report(current_->id, current_->severity, current_->subclass, loc,
           std::move(message), std::move(signals));
}

void
Context::report(std::string rule, Severity severity, std::string subclass,
                const SourceLoc &loc, std::string message,
                std::vector<std::string> signals)
{
    diags_.push_back(Diagnostic{std::move(rule), severity,
                                std::move(subclass), loc,
                                std::move(message), std::move(signals)});
}

std::vector<Diagnostic>
Context::take()
{
    sortDiagnostics(diags_);
    return std::move(diags_);
}

// ----------------------------------------------------------------- runner

const Check *
findCheck(const std::vector<Check> &table, const std::string &id)
{
    for (const auto &check : table)
        if (check.id == id)
            return &check;
    return nullptr;
}

std::vector<Diagnostic>
runChecks(const std::string &preset, const char *what,
          const std::vector<Check> &table,
          const std::set<std::string> &selected, const Module &mod)
{
    for (const auto &id : selected)
        if (!findCheck(table, id))
            fatal("unknown %s '%s'", what, id.c_str());

    obs::ObsSpan span(preset);
    Context ctx(mod);
    for (const auto &check : table) {
        if (!selected.empty() && !selected.count(check.id))
            continue;
        obs::ObsSpan checkSpan(preset + "." + check.id);
        ctx.beginCheck(check);
        check.run(ctx);
    }
    std::vector<Diagnostic> diags = ctx.take();
    if (obs::metricsEnabled()) {
        // Dynamic names bypass the cached-site macro and pay the
        // registry lookup per counter.
        obs::counter(preset + ".runs").inc();
        obs::counter(preset + ".diagnostics").inc(diags.size());
        for (const auto &diag : diags)
            obs::counter(preset + ".hits." + diag.rule).inc();
    }
    return diags;
}

// --------------------------------------------------------------- comb loop

void
checkCombLoop(Context &ctx)
{
    for (const auto &cycle : ctx.graph().combCycles()) {
        std::ostringstream path;
        for (const auto &name : cycle)
            path << name << " -> ";
        path << cycle.front();
        ctx.report("comb-loop", Severity::Error, "Deadlock",
                   ctx.declLoc(cycle.front()),
                   csprintf("combinational loop: %s",
                            path.str().c_str()),
                   cycle);
    }
}

} // namespace hwdbg::analyze
