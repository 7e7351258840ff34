#include "core/instrument.hh"

#include "common/testhooks.hh"

#include "analyze/facts.hh"
#include "common/logging.hh"
#include "hdl/printer.hh"

namespace hwdbg::core
{

using namespace hdl;

std::string
designClock(const Module &mod)
{
    for (const auto &item : mod.items) {
        if (item->kind != ItemKind::Always)
            continue;
        const auto *proc = item->as<AlwaysItem>();
        if (proc->isComb)
            continue;
        std::string clock = analyze::processClock(*proc);
        if (!clock.empty())
            return clock;
    }
    return "clk";
}

namespace
{

/**
 * The module the last builder on this thread counted, with its code
 * lines. Passes chain: each hands its result on as the next pass's
 * original, so the count it took of its result is the next builder's
 * count of its original, and each module of a chain prints once.
 */
struct CountedModule
{
    std::weak_ptr<const Module> mod;
    int lines = 0;
};
thread_local CountedModule lastCounted;

int
codeLines(const Module &mod)
{
    if (auto last = lastCounted.mod.lock(); last.get() == &mod)
        return lastCounted.lines;
    return countCodeLines(printModule(mod));
}

} // namespace

InstrumentBuilder::InstrumentBuilder(const Module &original)
    : mod_(cloneModule(original)), originalLines_(codeLines(original))
{
}

std::string
InstrumentBuilder::fresh(const std::string &prefix)
{
    return prefix + "_" + std::to_string(counter_++);
}

void
InstrumentBuilder::addReg(const std::string &name, uint32_t width)
{
    if (mod_->findNet(name))
        fatal("instrumentation name clash: '%s'", name.c_str());
    auto net = std::make_shared<NetItem>();
    net->net = NetKind::Reg;
    net->name = name;
    if (width > 1)
        net->range = AstRange{mkNum(Bits(32, width - 1), false),
                              mkNum(Bits(32, 0), false)};
    mod_->items.push_back(net);
}

void
InstrumentBuilder::addWire(const std::string &name, uint32_t width)
{
    if (mod_->findNet(name))
        fatal("instrumentation name clash: '%s'", name.c_str());
    auto net = std::make_shared<NetItem>();
    net->net = NetKind::Wire;
    net->name = name;
    if (width > 1)
        net->range = AstRange{mkNum(Bits(32, width - 1), false),
                              mkNum(Bits(32, 0), false)};
    mod_->items.push_back(net);
}

void
InstrumentBuilder::addAssign(ExprPtr lhs, ExprPtr rhs)
{
    auto assign = std::make_shared<ContAssignItem>();
    assign->lhs = std::move(lhs);
    assign->rhs = std::move(rhs);
    mod_->items.push_back(assign);
}

void
InstrumentBuilder::addClockedStmt(const std::string &clock, StmtPtr stmt)
{
    for (auto &[existing_clock, stmts] : clockedStmts_) {
        if (existing_clock == clock) {
            stmts.push_back(std::move(stmt));
            return;
        }
    }
    clockedStmts_.push_back({clock, {std::move(stmt)}});
}

void
InstrumentBuilder::finish()
{
    if (finished_)
        return;
    finished_ = true;
    // Generated monitor processes go BEFORE the design's own clocked
    // processes: triggered processes execute in item order, and a
    // monitor placed after a user process would observe post-edge
    // values of registers the user code updates with blocking
    // assignments. A hardware monitor samples flip-flop outputs as
    // they were before the edge; running first preserves that view.
    auto pos = mod_->items.begin();
    while (pos != mod_->items.end() &&
           !((*pos)->kind == ItemKind::Always &&
             !(*pos)->as<AlwaysItem>()->isComb))
        ++pos;
    for (auto &[clock, stmts] : clockedStmts_) {
        auto always = std::make_shared<AlwaysItem>();
        always->sens.push_back(
            SensItem{mutationOn(MUT_INSTR_WRONG_EDGE) ? EdgeKind::Negedge
                                                      : EdgeKind::Posedge,
                     clock});
        auto block = std::make_shared<BlockStmt>();
        block->stmts = std::move(stmts);
        always->body = block;
        pos = std::next(mod_->items.insert(pos, always));
    }
    clockedStmts_.clear();
}

int
InstrumentBuilder::generatedLines() const
{
    if (!finished_)
        panic("generatedLines() before finish()");
    int lines = countCodeLines(printModule(*mod_));
    lastCounted = CountedModule{mod_, lines};
    return lines - originalLines_;
}

} // namespace hwdbg::core
