/**
 * @file
 * Tests for the known-bits domain: the lattice, the abstract expression
 * evaluator against the simulator's width rules, three-valued guards,
 * the structural must-assign walk, and the whole-design constant
 * fixpoint.
 */

#include <gtest/gtest.h>

#include "analyze/context.hh"
#include "analyze/domain.hh"
#include "analyze/fixpoint.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"

using namespace hwdbg;
using namespace hwdbg::hdl;
using namespace hwdbg::analyze;

namespace
{

ModulePtr
flat(const std::string &src)
{
    return elab::elaborate(parse(src), "m").mod;
}

const AlwaysItem *
firstProc(const Module &mod)
{
    for (const auto &item : mod.items)
        if (item->kind == ItemKind::Always)
            return item->as<AlwaysItem>();
    return nullptr;
}

/** mustAssign over the first always block of @p src from @p entry. */
std::set<std::string>
mustOf(const std::string &src, std::set<std::string> entry = {})
{
    auto mod = flat(src);
    const AlwaysItem *proc = firstProc(*mod);
    EXPECT_NE(proc, nullptr);
    return proc ? mustAssign(proc->body, std::move(entry))
                : std::set<std::string>{};
}

using Names = std::set<std::string>;

/** Parse "module m; wire [w-1:0] t; assign t = <expr>; ..." and
 *  abstractly evaluate the expression under an empty environment. */
std::optional<KnownBits>
evalExpr(const std::string &decls, const std::string &expr,
         uint32_t width, const Env &env = {})
{
    auto mod = flat("module m(input wire clk);\n" + decls +
                    "wire [" + std::to_string(width - 1) +
                    ":0] t__;\nassign t__ = " + expr +
                    ";\nendmodule");
    SignalTable sigs(*mod);
    for (const auto &item : mod->items)
        if (item->kind == ItemKind::ContAssign) {
            const auto *ca = item->as<ContAssignItem>();
            if (ca->lhs->kind == ExprKind::Id &&
                ca->lhs->as<IdExpr>()->name == "t__")
                return kbEval(ca->rhs, width, sigs, env);
        }
    ADD_FAILURE() << "assign to t__ not found";
    return std::nullopt;
}

} // namespace

TEST(KnownBitsTest, ConstantAndUnknownBasics)
{
    KnownBits c = KnownBits::constant(4, 0xA);
    EXPECT_TRUE(c.fullyKnown());
    EXPECT_TRUE(c.knownNonzero());
    EXPECT_FALSE(c.knownZero());
    EXPECT_EQ(c.value, 0xAu);

    KnownBits u = KnownBits::unknown(4);
    EXPECT_FALSE(u.fullyKnown());
    EXPECT_FALSE(u.anyKnown());
    EXPECT_FALSE(u.knownZero());
    EXPECT_FALSE(u.knownNonzero());

    KnownBits z = KnownBits::constant(64, 0);
    EXPECT_TRUE(z.knownZero());
    EXPECT_EQ(KnownBits::maskOf(64), ~0ULL);
}

TEST(KnownBitsTest, JoinKeepsAgreedBitsOnly)
{
    KnownBits a = KnownBits::constant(4, 0b1010);
    KnownBits b = KnownBits::constant(4, 0b1001);
    KnownBits j = joinKnown(a, b);
    // Bits 3 (1==1) and 2 (0==0) agree; bits 1 and 0 differ.
    EXPECT_EQ(j.known, 0b1100u);
    EXPECT_EQ(j.value & j.known, 0b1000u);

    KnownBits ju = joinKnown(a, KnownBits::unknown(4));
    EXPECT_FALSE(ju.anyKnown());
}

TEST(KnownBitsTest, ResizeZeroExtendsAndTruncates)
{
    KnownBits c = KnownBits::constant(4, 0xF);
    KnownBits wide = c.resized(8);
    // Zero-extension makes the new high bits known-zero.
    EXPECT_TRUE(wide.fullyKnown());
    EXPECT_EQ(wide.value, 0xFu);
    KnownBits narrow = c.resized(2);
    EXPECT_TRUE(narrow.fullyKnown());
    EXPECT_EQ(narrow.value, 0x3u);
}

TEST(DomainTest, ConstEvalFoldsPureConstants)
{
    auto mod = flat("module m(input wire clk, input wire [3:0] x);\n"
                    "wire [7:0] a;\nwire [7:0] b;\n"
                    "assign a = 8'd3 + 8'd4;\nassign b = x + 8'd1;\n"
                    "endmodule");
    for (const auto &item : mod->items) {
        if (item->kind != ItemKind::ContAssign)
            continue;
        const auto *ca = item->as<ContAssignItem>();
        std::string name = ca->lhs->as<IdExpr>()->name;
        auto v = elab::tryEvalConst(ca->rhs);
        if (name == "a") {
            ASSERT_TRUE(v.has_value());
            EXPECT_EQ(v->toU64(), 7u);
        } else if (name == "b") {
            EXPECT_FALSE(v.has_value());
        }
    }
}

TEST(DomainTest, KbEvalFoldsOperatorsLikeTheSimulator)
{
    // Arithmetic at context width wraps like the simulator.
    auto v = evalExpr("", "4'd9 + 4'd8", 4);
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(v->fullyKnown());
    EXPECT_EQ(v->value, 1u); // 17 mod 16

    // Comparison is 1-bit and zero-extends into the context.
    v = evalExpr("", "4'd3 < 4'd5", 4);
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(v->fullyKnown());
    EXPECT_EQ(v->value, 1u);

    // Unknown operand: AND with known-zero still proves zero bits.
    Env env;
    env["u"] = KnownBits::unknown(4);
    v = evalExpr("wire [3:0] u;\nassign u = 4'd0;\n", "u & 4'd0", 4,
                 env);
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(v->knownZero());

    // OR with known-ones proves one bits even when the other side is
    // unknown.
    v = evalExpr("wire [3:0] u;\nassign u = 4'd0;\n", "u | 4'hF", 4,
                 env);
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(v->fullyKnown());
    EXPECT_EQ(v->value, 0xFu);
}

TEST(DomainTest, KbEvalBottomPropagates)
{
    // A signal whose env entry is std::nullopt is bottom and poisons
    // the whole expression — the optimistic fixpoint depends on the
    // difference. A signal absent from the env is merely unknown.
    Env env;
    env["u"] = std::nullopt;
    auto v = evalExpr("wire [3:0] u;\nassign u = 4'd0;\n", "u + 4'd1",
                      4, env);
    EXPECT_FALSE(v.has_value());
    auto u = evalExpr("wire [3:0] u;\nassign u = 4'd0;\n", "u + 4'd1",
                      4, Env{});
    ASSERT_TRUE(u.has_value());
    EXPECT_FALSE(u->anyKnown());
}

TEST(DomainTest, KbEvalIndexAboveTheFactWidthIsUnknown)
{
    // Facts cap at 64 bits. Bit 100 of a 128-bit signal lies above
    // its fact, so it is unknown: bit 36 (100 mod 64) must not leak.
    Env env;
    env["w"] = KnownBits::constant(64, uint64_t{1} << 36);
    auto v = evalExpr("wire [127:0] w;\n", "w[100]", 1, env);
    ASSERT_TRUE(v.has_value());
    EXPECT_FALSE(v->anyKnown());
    // Bit 36 itself is inside the fact and stays proven.
    auto low = evalExpr("wire [127:0] w;\n", "w[36]", 1, env);
    ASSERT_TRUE(low.has_value());
    EXPECT_TRUE(low->fullyKnown());
    EXPECT_EQ(low->value, 1u);
}

TEST(DomainTest, TriEvalThreeValues)
{
    auto mod = flat("module m(input wire clk, input wire c);\n"
                    "wire t;\nassign t = c;\nendmodule");
    SignalTable sigs(*mod);
    Env env;
    env["c"] = KnownBits::unknown(1);
    for (const auto &item : mod->items) {
        if (item->kind != ItemKind::ContAssign)
            continue;
        const auto *ca = item->as<ContAssignItem>();
        auto t = triEval(ca->rhs, sigs, env);
        ASSERT_TRUE(t.has_value());
        EXPECT_EQ(*t, Tri::Unknown);
        env["c"] = KnownBits::constant(1, 0);
        EXPECT_EQ(*triEval(ca->rhs, sigs, env), Tri::False);
        env["c"] = KnownBits::constant(1, 1);
        EXPECT_EQ(*triEval(ca->rhs, sigs, env), Tri::True);
    }
}

TEST(DomainTest, SignalTableWidthsKindsAndParams)
{
    auto mod = flat("module m(input wire clk, input wire [7:0] d,\n"
                    "         output reg [3:0] q);\n"
                    "parameter W = 5;\n"
                    "wire [W-1:0] w;\nreg [1:0] mem [0:3];\n"
                    "assign w = 5'd0;\n"
                    "always @(posedge clk) q <= d[3:0];\n"
                    "endmodule");
    SignalTable sigs(*mod);
    const auto *d = sigs.find("d");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->width, 8u);
    EXPECT_FALSE(d->isReg);
    EXPECT_EQ(d->dir, PortDir::Input);
    const auto *q = sigs.find("q");
    ASSERT_NE(q, nullptr);
    EXPECT_TRUE(q->isReg);
    EXPECT_EQ(q->dir, PortDir::Output);
    const auto *mem = sigs.find("mem");
    ASSERT_NE(mem, nullptr);
    EXPECT_TRUE(mem->isArray);
    EXPECT_EQ(sigs.find("nosuch"), nullptr);
}

TEST(MustAssignTest, IntersectionAcrossBranches)
{
    auto mod = flat("module m(input wire clk, input wire c);\n"
                    "reg [3:0] a; reg [3:0] b; reg [3:0] d;\n"
                    "always @* begin\n"
                    "  a = 4'd0;\n"
                    "  if (c) begin b = 4'd1; d = 4'd1; end\n"
                    "  else b = 4'd2;\nend\nendmodule");
    const AlwaysItem *proc = firstProc(*mod);
    ASSERT_NE(proc, nullptr);
    auto must = mustAssign(proc->body, {});
    // a and b are assigned on every path; d only when c holds.
    EXPECT_TRUE(must.count("a"));
    EXPECT_TRUE(must.count("b"));
    EXPECT_FALSE(must.count("d"));
}

TEST(MustAssignTest, CaseWithoutDefaultGuaranteesNothing)
{
    auto mod = flat("module m(input wire clk, input wire [1:0] s);\n"
                    "reg [3:0] a;\n"
                    "always @* begin\n"
                    "  case (s)\n"
                    "    2'd0: a = 4'd1;\n"
                    "    2'd1: a = 4'd2;\n"
                    "  endcase\nend\nendmodule");
    const AlwaysItem *proc = firstProc(*mod);
    ASSERT_NE(proc, nullptr);
    auto must = mustAssign(proc->body, {});
    EXPECT_FALSE(must.count("a"));

    // An unmatched selector skips every arm: only what was assigned
    // before the case survives it, with or without arms.
    EXPECT_EQ(mustOf("module m(input wire clk, input wire [1:0] s);\n"
                     "reg [3:0] a; reg [3:0] b;\n"
                     "always @* begin\n"
                     "  b = 4'd0;\n"
                     "  case (s) 2'd0: a = 4'd1; endcase\n"
                     "end\nendmodule"),
              (Names{"b"}));
    EXPECT_EQ(mustOf("module m(input wire clk, input wire [1:0] s);\n"
                     "reg [3:0] a;\n"
                     "always @* case (s) endcase\nendmodule",
                     {"a"}),
              (Names{"a"}));
}

TEST(MustAssignTest, StraightLine)
{
    const char *src = "module m(input wire clk);\n"
                      "reg [3:0] a; reg [3:0] b;\n"
                      "always @(posedge clk) begin\n"
                      "  a <= 4'd1;\n  b <= a;\nend\nendmodule";
    EXPECT_EQ(mustOf(src), (Names{"a", "b"}));
    // The entry set carries through.
    EXPECT_EQ(mustOf(src, {"x"}), (Names{"a", "b", "x"}));
}

TEST(MustAssignTest, IfWithoutElseAddsNothing)
{
    const char *src = "module m(input wire clk, input wire c);\n"
                      "reg [3:0] a;\n"
                      "always @(posedge clk) if (c) a <= 4'd1;\n"
                      "endmodule";
    // The missing else arm is a path that assigns nothing.
    EXPECT_EQ(mustOf(src), Names{});
    EXPECT_EQ(mustOf(src, {"a"}), (Names{"a"}));
}

TEST(MustAssignTest, IfElseBranchesAndRejoins)
{
    auto mod = flat("module m(input wire clk, input wire c);\n"
                    "reg [3:0] a; reg [3:0] b;\n"
                    "always @(posedge clk) begin\n"
                    "  if (c) a <= 4'd1; else a <= 4'd2;\n"
                    "  b <= a;\nend\nendmodule");
    const AlwaysItem *proc = firstProc(*mod);
    ASSERT_NE(proc, nullptr);
    // Each arm starts from the set before the if; the statement after
    // the rejoin sees what both arms assigned.
    std::vector<std::string> visits;
    auto must = mustAssign(
        proc->body, {}, [&](const Stmt &stmt, const Names &assigned) {
            std::string visit = std::to_string(stmt.loc.line) + ":";
            for (const auto &sig : assigned)
                visit.append(" ").append(sig);
            visits.push_back(visit);
        });
    EXPECT_EQ(visits, (std::vector<std::string>{"4:", "4:", "4:", "5: a"}));
    EXPECT_EQ(must, (Names{"a", "b"}));
}

TEST(MustAssignTest, CaseWithoutDefaultCanSkipEveryArm)
{
    const char *src = "module m(input wire clk, input wire [1:0] s);\n"
                      "reg [3:0] a;\n"
                      "always @(posedge clk)\n"
                      "  case (s)\n"
                      "    2'd0: a <= 4'd1;\n"
                      "  endcase\nendmodule";
    // One labeled arm plus the implicit no-match path, which assigns
    // nothing; what held before the case still holds after it.
    EXPECT_EQ(mustOf(src), Names{});
    EXPECT_EQ(mustOf(src, {"x"}), (Names{"x"}));
    EXPECT_EQ(mustOf(src, {"a"}), (Names{"a"}));
}

TEST(MustAssignTest, CaseWithDefaultIntersectsItsArms)
{
    EXPECT_EQ(mustOf("module m(input wire clk, input wire [1:0] s);\n"
                     "reg [3:0] a; reg [3:0] b;\n"
                     "always @(posedge clk) begin\n"
                     "  case (s)\n"
                     "    2'd0: a <= 4'd1;\n"
                     "    2'd1: begin a <= 4'd2; b <= 4'd2; end\n"
                     "    default: a <= 4'd3;\n"
                     "  endcase\nend\nendmodule"),
              (Names{"a"}));
    // A lone default arm always runs.
    EXPECT_EQ(mustOf("module m(input wire clk, input wire [1:0] s);\n"
                     "reg [3:0] a;\n"
                     "always @(posedge clk)\n"
                     "  case (s) default: a <= 4'd1; endcase\n"
                     "endmodule"),
              (Names{"a"}));
}

TEST(MustAssignTest, BareStatement)
{
    EXPECT_EQ(mustOf("module m(input wire clk);\nreg [3:0] a;\n"
                     "always @(posedge clk) a <= 4'd1;\nendmodule"),
              (Names{"a"}));
    EXPECT_EQ(mustAssign(nullptr, {"x"}), (Names{"x"}));
}

TEST(MustAssignTest, VisitsStatementsInPreOrderWithTheirInSets)
{
    auto mod = flat("module m(input wire clk, input wire c,\n"
                    "         input wire [1:0] s);\n"
                    "reg [3:0] a; reg [3:0] b;\n"
                    "always @(posedge clk) begin\n"
                    "  if (c) begin\n"
                    "    case (s)\n"
                    "      2'd0: a <= 4'd1;\n"
                    "      default: a <= 4'd2;\n"
                    "    endcase\n"
                    "    b <= 4'd0;\n"
                    "  end else a <= 4'd3;\n"
                    "  b <= a;\nend\nendmodule");
    const AlwaysItem *proc = firstProc(*mod);
    ASSERT_NE(proc, nullptr);
    // kind@line, then the signals assigned before the statement.
    std::vector<std::string> visits;
    auto must = mustAssign(
        proc->body, {}, [&](const Stmt &stmt, const Names &assigned) {
            static const char *const kKinds[] = {
                "block", "if", "case", "assign", "display", "finish",
                "null"};
            std::string visit = kKinds[static_cast<int>(stmt.kind)];
            visit.append("@").append(std::to_string(stmt.loc.line));
            visit.append(":");
            for (const auto &sig : assigned)
                visit.append(" ").append(sig);
            visits.push_back(visit);
        });
    EXPECT_EQ(visits, (std::vector<std::string>{
                          "if@5:", "case@6:", "assign@7:", "assign@8:",
                          "assign@10: a", "assign@11:", "assign@12: a"}));
    EXPECT_EQ(must, (Names{"a", "b"}));
}

TEST(FixpointTest, ProvesConstantsThroughWiresAndRegs)
{
    auto mod = flat("module m(input wire clk, input wire [3:0] x,\n"
                    "         output wire [3:0] y);\n"
                    "wire [3:0] k;\nreg [3:0] r;\n"
                    "assign k = 4'd5;\n"
                    "always @(posedge clk) r <= k;\n"
                    "assign y = r;\nendmodule");
    Context facts(*mod);
    const SignalTable &sigs = facts.signals();
    const ConstFixpoint &fix = facts.fixpoint();
    // r joins its reset value 0 with k=5: only the agreeing bits
    // survive (0b0101 vs 0b0000 -> bits 3 and 1 known zero).
    KnownBits r = fix.factOf("r", sigs);
    EXPECT_FALSE(r.fullyKnown());
    EXPECT_EQ(r.known & 0b1010u, 0b1010u);
    KnownBits k = fix.factOf("k", sigs);
    EXPECT_TRUE(k.fullyKnown());
    EXPECT_EQ(k.value, 5u);
    // The free input stays unknown.
    EXPECT_FALSE(fix.factOf("x", sigs).anyKnown());
}

TEST(FixpointTest, DeadGuardDetected)
{
    auto mod = flat("module m(input wire clk, output reg [3:0] q);\n"
                    "wire en;\nassign en = 1'b0;\n"
                    "always @(posedge clk) begin\n"
                    "  q <= 4'd0;\n"
                    "  if (en) q <= 4'd9;\nend\nendmodule");
    Context facts(*mod);
    const SignalTable &sigs = facts.signals();
    const auto &assigns = facts.assigns();
    const ConstFixpoint &fix = facts.fixpoint();
    size_t dead = 0;
    for (size_t i = 0; i < assigns.size(); ++i)
        dead += fix.deadGuard[i];
    EXPECT_EQ(dead, 1u);
    // With the guarded store dead, q is proven stuck at zero.
    EXPECT_TRUE(fix.factOf("q", sigs).knownZero());
}

TEST(FixpointTest, PrimitiveConnectionsForceUnknown)
{
    auto mod = flat("module m(input wire clk);\n"
                    "wire [7:0] q;\nwire full;\nwire empty;\n"
                    "wire [7:0] d;\nassign d = 8'd0;\n"
                    "scfifo #(.lpm_width(8), .lpm_numwords(4))\n"
                    "  f(.clock(clk), .data(d), .wrreq(1'b1),\n"
                    "    .rdreq(1'b1), .q(q), .full(full),\n"
                    "    .empty(empty));\nendmodule");
    Context facts(*mod);
    const SignalTable &sigs = facts.signals();
    const ConstFixpoint &fix = facts.fixpoint();
    EXPECT_TRUE(fix.primConnected.count("q"));
    // Even though nothing in the module assigns q, the IP may: no
    // constant claim is allowed.
    EXPECT_FALSE(fix.factOf("q", sigs).anyKnown());
}
