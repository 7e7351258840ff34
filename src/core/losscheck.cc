#include "core/losscheck.hh"

#include <map>

#include "common/logging.hh"
#include "core/instrument.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "hdl/printer.hh"

namespace hwdbg::core
{

using namespace hdl;

LossCheckResult
applyLossCheck(const Module &mod, const analyze::Context &facts,
               const LossCheckOptions &opts)
{
    obs::ObsSpan span("instrument.losscheck");
    HWDBG_STAT_INC("instrument.losscheck.runs", 1);
    const Module &base = facts.module();
    if (!base.findNet(opts.source))
        fatal("LossCheck: no signal named '%s'", opts.source.c_str());
    if (!base.findNet(opts.sink))
        fatal("LossCheck: no signal named '%s'", opts.sink.c_str());
    if (!base.findNet(opts.sourceValid))
        fatal("LossCheck: no valid signal named '%s'",
              opts.sourceValid.c_str());

    const analyze::RelationTable &table = facts.relations();
    const analyze::DepGraph &graph = facts.graph();

    LossCheckResult result;
    result.onPath = table.propagationPath(opts.source, opts.sink);
    if (result.onPath.empty())
        fatal("LossCheck: no propagation path from '%s' to '%s'",
              opts.source.c_str(), opts.sink.c_str());

    // Registers that get shadow state: on-path registers except the
    // Sink (arrival at the Sink is success). Top-level-input sources
    // are not tracked (matching the paper, whose Source is a register
    // with a valid interface); the first capture register downstream
    // of the input carries the shadow state instead.
    for (const auto &name : result.onPath) {
        if (name == opts.sink)
            continue;
        if (graph.isReg(name))
            result.instrumented.insert(name);
    }

    InstrumentBuilder builder(mod);
    std::string clock = designClock(mod);

    auto val_name = [](const std::string &reg) {
        return "__lc_val_" + reg;
    };
    auto validity_of = [&](const std::string &src) -> ExprPtr {
        if (src == opts.source && !graph.isReg(src))
            return mkId(opts.sourceValid); // input source: live valid
        if (table.isMemory(src))
            return mkTrue(); // per-entry N bits cover memories
        if (result.instrumented.count(src))
            return mkId(val_name(src));
        return mkTrue(); // IP outputs and untracked sources
    };

    // Memory registers get per-entry needs-propagation bits: a write to
    // an element holding unpropagated valid data is a loss (this is how
    // a power-of-two buffer overflow manifests: the wrapped write lands
    // on an unconsumed slot).
    auto instrument_memory = [&](const std::string &mem) {
        uint64_t size = table.memorySize(mem);
        auto rels_in = table.into(mem);
        auto rels_out = table.outOf(mem);

        std::string n_reg = "__lc_N_" + mem;
        builder.addReg(n_reg, static_cast<uint32_t>(size));

        // The shadow index must follow hardware overflow semantics: the
        // index truncates to the physical address width; a truncated
        // index beyond a non-power-of-two memory is a dropped access.
        uint32_t addr_bits = 0;
        while ((uint64_t(1) << addr_bits) < size)
            ++addr_bits;
        uint64_t mask = addr_bits >= 64
                            ? ~uint64_t(0)
                            : (uint64_t(1) << addr_bits) - 1;
        bool pow2 = (uint64_t(1) << addr_bits) == size;
        auto wrapped = [&](const ExprPtr &idx) {
            return mkBinary(BinaryOp::BitAnd, cloneExpr(idx),
                            mkNum(Bits(addr_bits ? addr_bits : 1, mask)));
        };
        auto in_bounds = [&](const ExprPtr &idx) -> ExprPtr {
            if (pow2)
                return mkTrue();
            return mkBinary(BinaryOp::Lt, wrapped(idx),
                            mkNum(Bits(addr_bits + 1, size)));
        };

        // Reads clear their slot's bit.
        std::vector<const analyze::PropRelation *> reads;
        for (const auto *rel : rels_out) {
            if (!result.onPath.count(rel->dst) || !rel->srcIndex)
                continue;
            reads.push_back(rel);
            auto clear = std::make_shared<AssignStmt>();
            auto idx = std::make_shared<IndexExpr>();
            idx->base = n_reg;
            idx->index = wrapped(rel->srcIndex);
            clear->lhs = idx;
            clear->rhs = mkFalse();
            clear->nonblocking = true;
            auto gate = std::make_shared<IfStmt>();
            gate->cond = mkAnd(cloneExpr(rel->cond),
                               in_bounds(rel->srcIndex));
            gate->thenStmt = clear;
            builder.addClockedStmt(clock, gate);
        }

        // Writes: group relations by (condition, index) so multiple RHS
        // sources of one assignment form a single checked write.
        std::map<std::string, std::pair<const analyze::PropRelation *,
                                        ExprPtr>> writes;
        for (const auto *rel : rels_in) {
            if (!rel->dstIndex)
                continue;
            std::string key = printExpr(rel->cond) + "@" +
                              printExpr(rel->dstIndex);
            ExprPtr validity = result.onPath.count(rel->src)
                                   ? validity_of(rel->src)
                                   : mkFalse();
            auto it = writes.find(key);
            if (it == writes.end())
                writes.emplace(key, std::make_pair(rel, validity));
            else
                it->second.second = mkOr(it->second.second, validity);
        }

        for (const auto &[key, entry] : writes) {
            const auto *rel = entry.first;
            const ExprPtr &validity = entry.second;

            // Simultaneous read of the same slot is propagation, not
            // loss.
            ExprPtr same_slot_read = mkFalse();
            for (const auto *read : reads)
                same_slot_read = mkOr(
                    same_slot_read,
                    mkAnd(cloneExpr(read->cond),
                          mkEq(wrapped(read->srcIndex),
                               wrapped(rel->dstIndex))));

            auto n_at = [&]() {
                auto idx = std::make_shared<IndexExpr>();
                idx->base = n_reg;
                idx->index = wrapped(rel->dstIndex);
                return idx;
            };

            auto disp = std::make_shared<DisplayStmt>();
            disp->format = "[LossCheck] potential data loss at " + mem;
            disp->format += " (slot %d)";
            disp->args.push_back(wrapped(rel->dstIndex));
            auto check = std::make_shared<IfStmt>();
            check->cond =
                mkAnd(ExprPtr(n_at()), mkNot(same_slot_read));
            check->thenStmt = disp;

            auto set_bit = std::make_shared<AssignStmt>();
            set_bit->lhs = n_at();
            set_bit->rhs = cloneExpr(validity);
            set_bit->nonblocking = true;

            auto body = std::make_shared<BlockStmt>();
            body->stmts.push_back(check);
            body->stmts.push_back(set_bit);
            auto gate = std::make_shared<IfStmt>();
            gate->cond = mkAnd(cloneExpr(rel->cond),
                               in_bounds(rel->dstIndex));
            gate->thenStmt = body;
            builder.addClockedStmt(clock, gate);
        }
    };

    for (const auto &reg : result.instrumented) {
        if (table.isMemory(reg)) {
            instrument_memory(reg);
            continue;
        }
        auto rels_in = table.into(reg);
        auto rels_out = table.outOf(reg);

        // A(R): R is assigned this cycle.
        ExprPtr a_expr = mkFalse();
        for (const auto *rel : rels_in)
            a_expr = mkOr(a_expr, cloneExpr(rel->cond));
        if (reg == opts.source && rels_in.empty())
            a_expr = mkId(opts.sourceValid);

        // V(R): R is assigned a valid value this cycle.
        ExprPtr v_expr;
        if (reg == opts.source) {
            v_expr = mkAnd(cloneExpr(a_expr), mkId(opts.sourceValid));
        } else {
            v_expr = mkFalse();
            for (const auto *rel : rels_in) {
                if (!result.onPath.count(rel->src))
                    continue;
                v_expr = mkOr(v_expr, mkAnd(cloneExpr(rel->cond),
                                            validity_of(rel->src)));
            }
        }

        // P(R): R propagates to an on-path register this cycle.
        ExprPtr p_expr = mkFalse();
        for (const auto *rel : rels_out) {
            if (!result.onPath.count(rel->dst))
                continue;
            p_expr = mkOr(p_expr, cloneExpr(rel->cond));
        }

        std::string a_wire = "__lc_A_" + reg;
        std::string v_wire = "__lc_V_" + reg;
        std::string p_wire = "__lc_P_" + reg;
        std::string n_reg = "__lc_N_" + reg;
        builder.addWire(a_wire, 1);
        builder.addWire(v_wire, 1);
        builder.addWire(p_wire, 1);
        builder.addAssign(mkId(a_wire), a_expr);
        builder.addAssign(mkId(v_wire), v_expr);
        builder.addAssign(mkId(p_wire), p_expr);
        builder.addReg(n_reg, 1);
        builder.addReg(val_name(reg), 1);

        // Validity of the value currently held in R.
        auto val_update = std::make_shared<AssignStmt>();
        val_update->lhs = mkId(val_name(reg));
        val_update->rhs = mkTernary(mkId(a_wire), mkId(v_wire),
                                    mkId(val_name(reg)));
        val_update->nonblocking = true;
        builder.addClockedStmt(clock, val_update);

        // Equation 1: N(R) <= V(R) | (N(R) & ~P(R)).
        auto n_update = std::make_shared<AssignStmt>();
        n_update->lhs = mkId(n_reg);
        n_update->rhs = mkBinary(
            BinaryOp::BitOr, mkId(v_wire),
            mkBinary(BinaryOp::BitAnd, mkId(n_reg),
                     mkUnary(UnaryOp::BitNot, mkId(p_wire))));
        n_update->nonblocking = true;
        builder.addClockedStmt(clock, n_update);

        // Equation 2: potential loss when A & ~P & N.
        auto disp = std::make_shared<DisplayStmt>();
        disp->format = "[LossCheck] potential data loss at " + reg;
        disp->format += " (value %h)";
        disp->args.push_back(mkId(reg));
        auto check = std::make_shared<IfStmt>();
        check->cond = mkBinary(
            BinaryOp::BitAnd, mkId(a_wire),
            mkBinary(BinaryOp::BitAnd,
                     mkUnary(UnaryOp::BitNot, mkId(p_wire)),
                     mkId(n_reg)));
        check->thenStmt = disp;
        builder.addClockedStmt(clock, check);
    }

    builder.finish();
    result.module = builder.module();
    result.generatedLines = builder.generatedLines();
    return result;
}

std::set<std::string>
lossRegisters(const std::vector<sim::EvalContext::LogLine> &log)
{
    std::set<std::string> out;
    const std::string prefix = "[LossCheck] potential data loss at ";
    for (const auto &line : log) {
        if (line.text.rfind(prefix, 0) != 0)
            continue;
        std::string reg = line.text.substr(prefix.size());
        size_t paren = reg.find(" (");
        if (paren != std::string::npos)
            reg = reg.substr(0, paren);
        out.insert(reg);
    }
    return out;
}

LossCheckReport
runLossCheck(
    const analyze::Context &facts, const LossCheckOptions &opts,
    const std::function<std::vector<sim::EvalContext::LogLine>(
        ModulePtr)> &ground_truth_workload,
    const std::function<std::vector<sim::EvalContext::LogLine>(
        ModulePtr)> &failing_workload)
{
    LossCheckResult inst = applyLossCheck(facts.module(), facts, opts);

    LossCheckReport report;
    report.generatedLines = inst.generatedLines;
    report.filtered = lossRegisters(ground_truth_workload(inst.module));

    std::set<std::string> raw =
        lossRegisters(failing_workload(inst.module));
    for (const auto &reg : raw)
        if (!report.filtered.count(reg))
            report.reported.insert(reg);
    return report;
}

} // namespace hwdbg::core
