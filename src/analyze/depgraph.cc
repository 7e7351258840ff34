#include "analyze/facts.hh"

#include <algorithm>
#include <queue>

#include "analyze/context.hh"
#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "elab/ip_models.hh"

namespace hwdbg::analyze
{

using namespace hdl;

DepGraph::DepGraph(const Context &facts) : sigs_(&facts.signals())
{
    const Module &mod = facts.module();
    for (const auto &item : mod.items) {
        if (item->kind != ItemKind::Instance)
            continue;
        const auto *inst = item->as<InstanceItem>();
        // Primitive output ports drive their connected signals.
        const elab::IpModel *model =
            elab::lookupIpModel(inst->moduleName);
        if (!model)
            continue;
        for (const auto &conn : inst->conns) {
            if (!conn.actual || !model->outputs.count(conn.formal))
                continue;
            for (const auto &target : lvalueTargets(conn.actual))
                ipOutputs_.insert(target);
        }
    }

    for (const auto &ga : facts.assigns())
        addAssignEdges(ga);
    for (const auto &item : mod.items)
        if (item->kind == ItemKind::Instance)
            addIpEdges(*item->as<InstanceItem>());

    for (size_t i = 0; i < edges_.size(); ++i) {
        into_[edges_[i].dst].push_back(i);
        outOf_[edges_[i].src].push_back(i);
    }
}

void
DepGraph::addAssignEdges(const GuardedAssign &ga)
{
    DepKind kind = ga.sequential ? DepKind::Seq : DepKind::Comb;
    std::set<std::string> data_srcs = collectSignals(ga.rhs);
    std::set<std::string> ctrl_srcs = collectSignals(ga.guard);
    // Dynamic lvalue indices are control dependencies of the target.
    if (ga.lhs->kind == ExprKind::Index) {
        auto idx_srcs = collectSignals(ga.lhs->as<IndexExpr>()->index);
        ctrl_srcs.insert(idx_srcs.begin(), idx_srcs.end());
    }
    for (const auto &dst : lvalueTargets(ga.lhs)) {
        for (const auto &src : data_srcs)
            edges_.push_back(
                DepEdge{src, dst, kind, true, ga.guard, false, ""});
        for (const auto &src : ctrl_srcs)
            edges_.push_back(
                DepEdge{src, dst, kind, false, ga.guard, false, ""});
    }
}

void
DepGraph::addIpEdges(const InstanceItem &inst)
{
    // Developer-provided IP dependency models (§4.3): which inputs each
    // output depends on, and whether the dependency carries data.
    const elab::IpModel *model = elab::lookupIpModel(inst.moduleName);
    if (!model)
        return;

    std::map<std::string, ExprPtr> actuals;
    for (const auto &conn : inst.conns)
        if (conn.actual)
            actuals[conn.formal] = conn.actual;

    for (const auto &edge : model->deps) {
        auto out_it = actuals.find(edge.out);
        auto in_it = actuals.find(edge.in);
        if (out_it == actuals.end() || in_it == actuals.end())
            continue;
        for (const auto &dst : lvalueTargets(out_it->second)) {
            for (const auto &src : collectSignals(in_it->second)) {
                edges_.push_back(DepEdge{src, dst, DepKind::Seq,
                                         edge.isData, mkTrue(), true,
                                         inst.instName});
            }
        }
    }
}

std::vector<const DepEdge *>
DepGraph::edgesInto(const std::string &name) const
{
    std::vector<const DepEdge *> out;
    auto it = into_.find(name);
    if (it != into_.end())
        for (size_t idx : it->second)
            out.push_back(&edges_[idx]);
    return out;
}

std::vector<const DepEdge *>
DepGraph::edgesOutOf(const std::string &name) const
{
    std::vector<const DepEdge *> out;
    auto it = outOf_.find(name);
    if (it != outOf_.end())
        for (size_t idx : it->second)
            out.push_back(&edges_[idx]);
    return out;
}

bool
DepGraph::isReg(const std::string &name) const
{
    const auto *decl = sigs_->find(name);
    return decl && decl->isReg;
}

bool
DepGraph::isInput(const std::string &name) const
{
    const auto *decl = sigs_->find(name);
    return decl && decl->dir == PortDir::Input;
}

bool
DepGraph::isIpOutput(const std::string &name) const
{
    return ipOutputs_.count(name) != 0;
}

bool
DepGraph::isStateful(const std::string &name) const
{
    return isReg(name) || isInput(name) || isIpOutput(name);
}

std::set<std::string>
DepGraph::statefulSources(const std::string &name) const
{
    if (isStateful(name))
        return {name};
    std::set<std::string> out;
    std::set<std::string> visited{name};
    std::vector<std::string> work{name};
    while (!work.empty()) {
        std::string cur = work.back();
        work.pop_back();
        for (const DepEdge *edge : edgesInto(cur)) {
            if (edge->kind != DepKind::Comb || !edge->isData)
                continue;
            if (isStateful(edge->src)) {
                out.insert(edge->src);
            } else if (visited.insert(edge->src).second) {
                work.push_back(edge->src);
            }
        }
    }
    return out;
}

std::vector<std::vector<std::string>>
DepGraph::combCycles() const
{
    // Adjacency over Comb edges only, deduplicated.
    std::map<std::string, std::set<std::string>> adj;
    std::set<std::string> selfLoops;
    for (const auto &edge : edges_) {
        if (edge.kind != DepKind::Comb)
            continue;
        if (edge.src == edge.dst)
            selfLoops.insert(edge.src);
        else
            adj[edge.src].insert(edge.dst);
    }

    // Iterative Tarjan SCC.
    struct NodeState
    {
        int index = -1;
        int lowlink = -1;
        bool onStack = false;
    };
    std::map<std::string, NodeState> state;
    std::vector<std::string> stack;
    std::vector<std::vector<std::string>> cycles;
    int counter = 0;

    struct Frame
    {
        std::string node;
        std::set<std::string>::const_iterator next, end;
    };

    auto strongconnect = [&](const std::string &root) {
        static const std::set<std::string> empty;
        std::vector<Frame> frames;
        auto open = [&](const std::string &node) {
            auto &ns = state[node];
            ns.index = ns.lowlink = counter++;
            ns.onStack = true;
            stack.push_back(node);
            auto it = adj.find(node);
            const auto &succ = it == adj.end() ? empty : it->second;
            frames.push_back(Frame{node, succ.begin(), succ.end()});
        };
        open(root);
        while (!frames.empty()) {
            Frame &frame = frames.back();
            if (frame.next != frame.end) {
                const std::string &succ = *frame.next++;
                auto it = state.find(succ);
                if (it == state.end() || it->second.index < 0) {
                    open(succ);
                } else if (it->second.onStack) {
                    auto &ns = state[frame.node];
                    ns.lowlink =
                        std::min(ns.lowlink, it->second.index);
                }
                continue;
            }
            auto &ns = state[frame.node];
            if (ns.lowlink == ns.index) {
                std::vector<std::string> scc;
                while (true) {
                    std::string member = stack.back();
                    stack.pop_back();
                    state[member].onStack = false;
                    scc.push_back(member);
                    if (member == frame.node)
                        break;
                }
                if (scc.size() > 1) {
                    std::sort(scc.begin(), scc.end());
                    cycles.push_back(std::move(scc));
                }
            }
            std::string done = frame.node;
            frames.pop_back();
            if (!frames.empty()) {
                auto &parent = state[frames.back().node];
                parent.lowlink =
                    std::min(parent.lowlink, state[done].lowlink);
            }
        }
    };

    for (const auto &[node, succ] : adj) {
        (void)succ;
        auto it = state.find(node);
        if (it == state.end() || it->second.index < 0)
            strongconnect(node);
    }
    for (const auto &node : selfLoops)
        cycles.push_back({node});

    std::sort(cycles.begin(), cycles.end());
    return cycles;
}

std::map<std::string, int>
DepGraph::backwardSlice(const std::string &name, int cycles,
                        bool follow_data, bool follow_control) const
{
    std::map<std::string, int> best; // min distance per visited signal
    std::map<std::string, int> result;
    std::queue<std::pair<std::string, int>> work;
    work.push({name, 0});
    best[name] = 0;

    while (!work.empty()) {
        auto [cur, dist] = work.front();
        work.pop();
        if (isReg(cur) || isIpOutput(cur)) {
            auto it = result.find(cur);
            if (it == result.end() || dist < it->second)
                result[cur] = dist;
        }
        for (const DepEdge *edge : edgesInto(cur)) {
            if (edge->isData && !follow_data)
                continue;
            if (!edge->isData && !follow_control)
                continue;
            int next = dist + (edge->kind == DepKind::Seq ? 1 : 0);
            if (next > cycles)
                continue;
            auto it = best.find(edge->src);
            if (it != best.end() && it->second <= next)
                continue;
            best[edge->src] = next;
            work.push({edge->src, next});
        }
    }
    return result;
}

} // namespace hwdbg::analyze
