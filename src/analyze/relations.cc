#include "analyze/facts.hh"

#include "analyze/context.hh"
#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "elab/ip_models.hh"

namespace hwdbg::analyze
{

using namespace hdl;

namespace
{

/** First memory-element read of @p mem inside @p expr (its index). */
ExprPtr
findMemoryRead(const ExprPtr &expr, const std::string &mem)
{
    ExprPtr found;
    ExprPtr root = expr;
    forEachExpr(root, [&](ExprPtr &node) {
        if (!found && node->kind == ExprKind::Index &&
            node->as<IndexExpr>()->base == mem)
            found = node->as<IndexExpr>()->index;
    });
    return found;
}

} // namespace

RelationTable::RelationTable(const Context &facts)
{
    const Module &mod = facts.module();
    const DepGraph &graph = facts.graph();
    for (const auto &item : mod.items) {
        if (item->kind != ItemKind::Net)
            continue;
        const auto *net = item->as<NetItem>();
        if (net->array)
            memories_[net->name] = elab::memoryDepth(*net);
    }

    for (const auto &ga : facts.assigns()) {
        if (!ga.sequential)
            continue;
        // Memory element write index, when the target is mem[i].
        ExprPtr dst_index;
        if (ga.lhs->kind == ExprKind::Index &&
            memories_.count(ga.lhs->as<IndexExpr>()->base))
            dst_index = ga.lhs->as<IndexExpr>()->index;

        for (const auto &dst : lvalueTargets(ga.lhs)) {
            std::set<std::string> srcs;
            for (const auto &sig : collectSignals(ga.rhs)) {
                auto stateful = graph.statefulSources(sig);
                srcs.insert(stateful.begin(), stateful.end());
            }
            for (const auto &src : srcs) {
                PropRelation rel;
                rel.src = src;
                rel.dst = dst;
                rel.cond = cloneExpr(ga.guard);
                rel.clock = ga.clock;
                rel.dstIndex =
                    dst_index ? cloneExpr(dst_index) : nullptr;
                if (memories_.count(src))
                    rel.srcIndex = findMemoryRead(ga.rhs, src);
                rels_.push_back(std::move(rel));
            }
        }
    }

    for (const auto &item : mod.items)
        if (item->kind == ItemKind::Instance)
            addIpRelations(*item->as<InstanceItem>(), graph);
}

uint64_t
RelationTable::memorySize(const std::string &name) const
{
    auto it = memories_.find(name);
    return it == memories_.end() ? 0 : it->second;
}

void
RelationTable::addIpRelations(const InstanceItem &inst,
                              const DepGraph &graph)
{
    std::map<std::string, ExprPtr> actuals;
    for (const auto &conn : inst.conns)
        if (conn.actual)
            actuals[conn.formal] = conn.actual;

    auto port = [&](const char *formal) -> ExprPtr {
        auto it = actuals.find(formal);
        return it == actuals.end() ? nullptr : it->second;
    };
    auto emit = [&](const char *in, const char *out, ExprPtr cond) {
        ExprPtr in_expr = port(in);
        ExprPtr out_expr = port(out);
        if (!in_expr || !out_expr)
            return;
        std::set<std::string> srcs;
        for (const auto &sig : collectSignals(in_expr)) {
            auto stateful = graph.statefulSources(sig);
            srcs.insert(stateful.begin(), stateful.end());
        }
        for (const auto &dst : lvalueTargets(out_expr)) {
            for (const auto &src : srcs) {
                PropRelation rel;
                rel.src = src;
                rel.dst = dst;
                rel.cond = cloneExpr(cond);
                rel.viaIp = true;
                rels_.push_back(std::move(rel));
            }
        }
    };

    const elab::IpModel *model = elab::lookupIpModel(inst.moduleName);
    if (!model)
        return;
    for (const auto &path : model->dataPaths) {
        // Build the propagation condition from the connected actuals,
        // e.g. scfifo: data ~>[wrreq && !full] q (an accepted push).
        ExprPtr cond = mkTrue();
        for (const auto &term : path.condTerms) {
            ExprPtr actual = port(term.port.c_str());
            if (!actual)
                continue; // unconnected condition port: unconstrained
            cond = mkAnd(cond, term.negated
                                   ? mkNot(cloneExpr(actual))
                                   : cloneExpr(actual));
        }
        emit(path.in.c_str(), path.out.c_str(), cond);
    }
}

std::vector<const PropRelation *>
RelationTable::into(const std::string &dst) const
{
    std::vector<const PropRelation *> out;
    for (const auto &rel : rels_)
        if (rel.dst == dst)
            out.push_back(&rel);
    return out;
}

std::vector<const PropRelation *>
RelationTable::outOf(const std::string &src) const
{
    std::vector<const PropRelation *> out;
    for (const auto &rel : rels_)
        if (rel.src == src)
            out.push_back(&rel);
    return out;
}

std::set<std::string>
RelationTable::propagationPath(const std::string &src,
                               const std::string &sink) const
{
    auto reach = [&](const std::string &from, bool forward) {
        std::set<std::string> seen{from};
        std::vector<std::string> work{from};
        while (!work.empty()) {
            std::string cur = work.back();
            work.pop_back();
            auto next = forward ? outOf(cur) : into(cur);
            for (const PropRelation *rel : next) {
                const std::string &other = forward ? rel->dst : rel->src;
                if (seen.insert(other).second)
                    work.push_back(other);
            }
        }
        return seen;
    };

    std::set<std::string> fwd = reach(src, true);
    if (!fwd.count(sink))
        return {};
    std::set<std::string> bwd = reach(sink, false);
    std::set<std::string> path;
    for (const auto &name : fwd)
        if (bwd.count(name))
            path.insert(name);
    return path;
}

} // namespace hwdbg::analyze
