/**
 * @file
 * Sim-layer coverage semantics on a hand-built design: deterministic
 * enumeration, statement/arm/toggle marking, mark idempotence, FSM
 * state/transition sampling, and resync after a snapshot restore (time
 * travel must not fabricate transitions).
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "sim/coverage.hh"
#include "sim/simulator.hh"

using namespace hwdbg;
using namespace hwdbg::sim;

namespace
{

const char *kDesign =
    "module m(input wire clk, input wire rst, input wire [1:0] sel,\n"
    "         output reg [3:0] q);\n"
    "reg [1:0] st;\n"
    "always @(posedge clk) begin\n"
    "  if (rst) begin\n"
    "    q <= 0;\n"
    "    st <= 0;\n"
    "  end else begin\n"
    "    case (sel)\n"
    "      2'd0: q <= q + 1;\n"
    "      2'd1: q <= q - 1;\n"
    "      default: q <= q;\n"
    "    endcase\n"
    "    st <= st + 1;\n"
    "  end\n"
    "end\n"
    "endmodule\n";

std::unique_ptr<Simulator>
makeSim()
{
    hdl::Design design = hdl::parse(kDesign);
    return std::make_unique<Simulator>(
        elab::elaborate(design, "m").mod);
}

FsmCoverSpec
stSpec()
{
    FsmCoverSpec spec;
    spec.stateVar = "st";
    spec.states = {0, 1, 2, 3};
    for (uint64_t s = 0; s < 4; ++s) {
        FsmCoverSpec::Transition t;
        t.hasFrom = true;
        t.from = s;
        t.to = (s + 1) % 4;
        spec.transitions.push_back(t);
    }
    return spec;
}

void
tick(Simulator &sim)
{
    sim.poke("clk", Bits(1, 0));
    sim.eval();
    sim.poke("clk", Bits(1, 1));
    sim.eval();
}

/** Index of the first statement of @p kind, or -1. */
int
findStmt(const CoverageItems &items, hdl::StmtKind kind)
{
    for (size_t i = 0; i < items.statements.size(); ++i)
        if (items.statements[i].kind == kind)
            return static_cast<int>(i);
    return -1;
}

const CoverageItems::SignalItem &
findSignal(const CoverageItems &items, const std::string &name)
{
    for (const auto &sig : items.signals)
        if (sig.name == name)
            return sig;
    throw HdlError("no signal " + name);
}

} // namespace

TEST(CoverageItemsTest, EnumerationIsDeterministic)
{
    auto a = makeSim();
    auto b = makeSim();
    CoverageItems ia = buildCoverageItems(a->design(), {stSpec()});
    CoverageItems ib = buildCoverageItems(b->design(), {stSpec()});
    EXPECT_EQ(ia.fingerprint(), ib.fingerprint());
    EXPECT_EQ(ia.statements.size(), ib.statements.size());
    EXPECT_EQ(ia.arms.size(), ib.arms.size());
    EXPECT_EQ(ia.toggleBits, ib.toggleBits);
    ASSERT_FALSE(ia.statements.empty());
    // Ids are the statement's position in the table.
    for (size_t i = 0; i < ia.statements.size(); ++i)
        EXPECT_EQ(ia.statements[i].stmt->coverId,
                  static_cast<int32_t>(i));
}

TEST(CoverageItemsTest, ArmShapes)
{
    auto sim = makeSim();
    CoverageItems items = buildCoverageItems(sim->design());

    int ifId = findStmt(items, hdl::StmtKind::If);
    ASSERT_GE(ifId, 0);
    const auto &ifStmt = items.statements[ifId];
    ASSERT_EQ(ifStmt.armCount, 2u);
    EXPECT_EQ(items.arms[ifStmt.armBase].label, "then");
    EXPECT_EQ(items.arms[ifStmt.armBase + 1].label, "else");

    int caseId = findStmt(items, hdl::StmtKind::Case);
    ASSERT_GE(caseId, 0);
    const auto &caseStmt = items.statements[caseId];
    // Three items including default: no trailing implicit arm.
    ASSERT_EQ(caseStmt.armCount, 3u);
    EXPECT_EQ(items.arms[caseStmt.armBase + 2].label, "default");
}

TEST(CoverageCollectorTest, MarksStatementsArmsAndToggles)
{
    auto sim = makeSim();
    CoverageItems items = buildCoverageItems(sim->design());
    CoverageCollector collector(items);
    sim->enableCoverage(&collector);

    sim->poke("rst", Bits(1, 1));
    sim->poke("sel", Bits(2, 0));
    tick(*sim);

    int ifId = findStmt(items, hdl::StmtKind::If);
    int caseId = findStmt(items, hdl::StmtKind::Case);
    const auto &ifStmt = items.statements[ifId];
    const auto &caseStmt = items.statements[caseId];

    // Under reset only the then-arm runs; the case never executes.
    EXPECT_TRUE(collector.stmtHit(ifId));
    EXPECT_TRUE(collector.armTaken(ifStmt.armBase));
    EXPECT_FALSE(collector.armTaken(ifStmt.armBase + 1));
    EXPECT_FALSE(collector.stmtHit(caseId));

    sim->poke("rst", Bits(1, 0));
    tick(*sim); // case arm 0: q 0 -> 1
    EXPECT_TRUE(collector.armTaken(ifStmt.armBase + 1));
    EXPECT_TRUE(collector.stmtHit(caseId));
    EXPECT_TRUE(collector.armTaken(caseStmt.armBase));
    EXPECT_FALSE(collector.armTaken(caseStmt.armBase + 1));

    const auto &q = findSignal(items, "q");
    EXPECT_TRUE(collector.bitRose(q.bitOffset));
    EXPECT_FALSE(collector.bitFell(q.bitOffset));
    tick(*sim); // q 1 -> 2: bit 0 falls, bit 1 rises
    EXPECT_TRUE(collector.bitFell(q.bitOffset));
    EXPECT_TRUE(collector.bitRose(q.bitOffset + 1));

    // default arm via sel=3
    sim->poke("sel", Bits(2, 3));
    tick(*sim);
    EXPECT_TRUE(collector.armTaken(caseStmt.armBase + 2));
}

TEST(CoverageCollectorTest, PokeCountsAsToggle)
{
    auto sim = makeSim();
    CoverageItems items = buildCoverageItems(sim->design());
    CoverageCollector collector(items);
    sim->enableCoverage(&collector);

    const auto &sel = findSignal(items, "sel");
    EXPECT_FALSE(collector.bitRose(sel.bitOffset + 1));
    sim->poke("sel", Bits(2, 2));
    EXPECT_TRUE(collector.bitRose(sel.bitOffset + 1));
}

TEST(CoverageCollectorTest, WideTogglesMarkEveryFlippedBit)
{
    // Widths 3, 70 and 130 put multi-word signals at bit offsets that
    // straddle bitmap words.
    hdl::Design design = hdl::parse(
        "module w(input wire [2:0] a, input wire [69:0] b,\n"
        "         input wire [129:0] c);\nendmodule\n");
    Simulator sim(elab::elaborate(design, "w").mod);
    CoverageItems items = buildCoverageItems(sim.design());
    CoverageCollector collector(items);

    uint64_t state = 0x9e3779b97f4a7c15ull;
    auto draw = [&](uint32_t width) {
        uint64_t words[3];
        for (uint64_t &word : words) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            word = state ^ (state >> 29);
        }
        return Bits::fromWords(width, words, 3);
    };
    std::vector<bool> rose(items.toggleBits), fell(items.toggleBits);
    for (int round = 0; round < 8; ++round) {
        for (const auto &sig : items.signals) {
            Bits before = draw(sig.width);
            Bits after = draw(sig.width);
            collector.onStore(sig.sig, before, after);
            for (uint32_t b = 0; b < sig.width; ++b) {
                uint32_t bit = sig.bitOffset + b;
                rose[bit] = rose[bit] || (!before.bit(b) && after.bit(b));
                fell[bit] = fell[bit] || (before.bit(b) && !after.bit(b));
            }
        }
        for (uint32_t bit = 0; bit < items.toggleBits; ++bit) {
            ASSERT_EQ(collector.bitRose(bit), rose[bit]) << "bit " << bit;
            ASSERT_EQ(collector.bitFell(bit), fell[bit]) << "bit " << bit;
        }
    }
}

TEST(CoverageCollectorTest, DetachedSimulationDoesNotMark)
{
    auto sim = makeSim();
    CoverageItems items = buildCoverageItems(sim->design());
    CoverageCollector collector(items);

    // Never attached: simulate freely, nothing is marked.
    sim->poke("rst", Bits(1, 1));
    tick(*sim);
    EXPECT_EQ(collector.events(), 0u);
    EXPECT_EQ(collector.totals().covered(), 0u);

    // Attach, mark, detach: further simulation adds nothing.
    sim->enableCoverage(&collector);
    sim->poke("rst", Bits(1, 0));
    tick(*sim);
    uint64_t covered = collector.totals().covered();
    EXPECT_GT(covered, 0u);
    sim->enableCoverage(nullptr);
    tick(*sim);
    tick(*sim);
    EXPECT_EQ(collector.totals().covered(), covered);
}

TEST(CoverageCollectorTest, MarksAreIdempotent)
{
    auto sim = makeSim();
    CoverageItems items = buildCoverageItems(sim->design(), {stSpec()});
    CoverageCollector collector(items);
    sim->enableCoverage(&collector);

    sim->poke("rst", Bits(1, 1));
    tick(*sim);
    sim->poke("rst", Bits(1, 0));
    sim->poke("sel", Bits(2, 0));
    // q is a 4-bit counter (period 16) and st a 2-bit one: 40 cycles
    // saturate everything this fixed stimulus can ever reach, so the
    // next 16 cycles re-mark already-set goals and add nothing.
    for (int i = 0; i < 40; ++i)
        tick(*sim);
    CoverageTotals before = collector.totals();
    uint64_t events = collector.events();
    for (int i = 0; i < 16; ++i)
        tick(*sim);
    CoverageTotals after = collector.totals();
    EXPECT_EQ(before.covered(), after.covered());
    EXPECT_GT(collector.events(), events); // hooks did keep firing
}

TEST(CoverageCollectorTest, FsmStatesAndTransitions)
{
    auto sim = makeSim();
    CoverageItems items = buildCoverageItems(sim->design(), {stSpec()});
    ASSERT_EQ(items.fsms.size(), 1u);
    CoverageCollector collector(items);
    sim->enableCoverage(&collector);

    sim->poke("rst", Bits(1, 1));
    tick(*sim);
    sim->poke("rst", Bits(1, 0));
    tick(*sim); // st 0 -> 1
    tick(*sim); // st 1 -> 2

    const auto &fsm = collector.fsmState(0);
    EXPECT_TRUE(fsm.stateSeen[0]);
    EXPECT_TRUE(fsm.stateSeen[1]);
    EXPECT_TRUE(fsm.stateSeen[2]);
    EXPECT_FALSE(fsm.stateSeen[3]);
    EXPECT_TRUE(fsm.transSeen[0]);  // 0 -> 1
    EXPECT_TRUE(fsm.transSeen[1]);  // 1 -> 2
    EXPECT_FALSE(fsm.transSeen[2]); // 2 -> 3
    EXPECT_TRUE(fsm.unexpectedStates.empty());
    EXPECT_TRUE(fsm.unexpectedTransitions.empty());

    CoverageTotals totals = collector.totals();
    EXPECT_EQ(totals.fsmStateTotal, 4u);
    EXPECT_EQ(totals.fsmStateHit, 3u);
    EXPECT_EQ(totals.fsmTransTotal, 4u);
    EXPECT_EQ(totals.fsmTransHit, 2u);
}

TEST(CoverageCollectorTest, RestoreResyncsWithoutFabricating)
{
    auto sim = makeSim();
    CoverageItems items = buildCoverageItems(sim->design(), {stSpec()});
    CoverageCollector collector(items);
    sim->enableCoverage(&collector);

    sim->poke("rst", Bits(1, 1));
    tick(*sim);
    sim->poke("rst", Bits(1, 0));
    tick(*sim); // st = 1
    SimSnapshot snap = sim->saveState();
    tick(*sim); // st = 2
    tick(*sim); // st = 3

    // Jump back from st=3 to st=1. resync() re-seeds the last-state
    // tracker, so neither a declared arc (3 -> 0) nor an unexpected
    // 3 -> 1 observation may appear.
    sim->restoreState(snap);
    tick(*sim); // st 1 -> 2 (again; already marked)

    const auto &fsm = collector.fsmState(0);
    EXPECT_FALSE(fsm.transSeen[3]); // 3 -> 0 never actually happened
    EXPECT_TRUE(fsm.unexpectedTransitions.empty());
}
