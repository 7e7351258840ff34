/**
 * @file
 * Tests for the static lint: one firing and one clean fixture per
 * rule, the diagnostic renderers, rule selection, and the testbed
 * integration claims the lint preset of the static_effectiveness bench
 * relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "bugbase/testbed.hh"
#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "lint/lint.hh"

using namespace hwdbg;
using namespace hwdbg::lint;

namespace
{

std::vector<Diagnostic>
lintSrc(const std::string &src, const std::string &rule = "",
        const std::string &top = "m")
{
    auto mod = elab::elaborate(hdl::parse(src), top).mod;
    LintOptions opts;
    if (!rule.empty())
        opts.rules.insert(rule);
    return runLint(*mod, opts);
}

bool
fires(const std::string &src, const std::string &rule)
{
    return !lintSrc(src, rule).empty();
}

} // namespace

TEST(LintRegistryTest, RulesAreRegisteredAndUnique)
{
    const auto &rules = lintRules();
    EXPECT_GE(rules.size(), 8u);
    std::set<std::string> ids;
    for (const auto &rule : rules) {
        EXPECT_TRUE(ids.insert(rule.id).second)
            << "duplicate rule id " << rule.id;
        EXPECT_FALSE(rule.subclass.empty()) << rule.id;
        EXPECT_NE(rule.run, nullptr) << rule.id;
        EXPECT_EQ(ruleById(rule.id), &rule);
    }
    EXPECT_EQ(ruleById("no-such-rule"), nullptr);
}

TEST(LintRegistryTest, UnknownRuleSelectionFails)
{
    LintOptions opts;
    opts.rules.insert("no-such-rule");
    auto mod = elab::elaborate(
        hdl::parse("module m(input wire clk);\nendmodule"), "m").mod;
    EXPECT_THROW(runLint(*mod, opts), HdlError);
}

TEST(LintRuleTest, IncompleteCase)
{
    const char *pos =
        "module m(input wire [1:0] s, output reg y);\n"
        "always @* begin\n"
        "  y = 1'b0;\n"
        "  case (s)\n"
        "    2'd0: y = 1'b1;\n"
        "    2'd1: y = 1'b0;\n"
        "  endcase\nend\nendmodule";
    const char *neg =
        "module m(input wire [1:0] s, output reg y);\n"
        "always @* begin\n"
        "  case (s)\n"
        "    2'd0: y = 1'b1;\n"
        "    default: y = 1'b0;\n"
        "  endcase\nend\nendmodule";
    EXPECT_TRUE(fires(pos, "incomplete-case"));
    EXPECT_FALSE(fires(neg, "incomplete-case"));
}

TEST(LintRuleTest, IncompleteCaseFullCoverageIsClean)
{
    const char *full =
        "module m(input wire [0:0] s, output reg y);\n"
        "always @* begin\n"
        "  case (s)\n"
        "    1'd0: y = 1'b1;\n"
        "    1'd1: y = 1'b0;\n"
        "  endcase\nend\nendmodule";
    EXPECT_FALSE(fires(full, "incomplete-case"));
}

TEST(LintRuleTest, InferredLatch)
{
    const char *pos =
        "module m(input wire en, input wire d, output reg y);\n"
        "always @* if (en) y = d;\nendmodule";
    const char *neg =
        "module m(input wire en, input wire d, output reg y);\n"
        "always @* if (en) y = d; else y = 1'b0;\nendmodule";
    EXPECT_TRUE(fires(pos, "inferred-latch"));
    EXPECT_FALSE(fires(neg, "inferred-latch"));

    // One row per statement shape: the combinational body, and the
    // targets the rule names. Any write, full or partial, counts as an
    // assignment; a case without a default can skip every arm.
    struct Row
    {
        const char *name;
        const char *body;
        std::set<std::string> latched;
    };
    const Row rows[] = {
        {"IfWithoutElse", "always @* if (en) y = d;", {"y"}},
        {"NestedIfInCaseArm",
         "always @* case (s)\n"
         "  2'd0: if (en) y = d; else y = 1'b0;\n"
         "  default: y = 1'b1;\nendcase",
         {}},
        {"NestedIfWithoutElseInCaseArm",
         "always @* case (s)\n"
         "  2'd0: if (en) y = d;\n"
         "  default: y = 1'b1;\nendcase",
         {"y"}},
        {"CaseWithDefault",
         "always @* case (s) 2'd0: y = d; default: y = 1'b0; endcase",
         {}},
        {"CaseWithoutDefault",
         "always @* case (s) 2'd0: y = d; 2'd1: y = 1'b0; endcase",
         {"y"}},
        {"EmptyCase",
         "always @* begin\n  y = 1'b0;\n  case (s) endcase\n"
         "  if (en) z = 2'd0;\nend",
         {"z"}},
        {"PartialBitSelectWrite", "always @* z[0] = d;", {}},
        {"ReadInConditionBeforeWrite",
         "always @* begin\n  if (y) z = 2'd1; else z = 2'd0;\n"
         "  y = d;\nend",
         {}},
    };
    for (const Row &row : rows) {
        std::string src = "module m(input wire en, input wire [1:0] s,\n"
                          "  input wire d, output reg y,\n"
                          "  output reg [1:0] z);\n" +
                          std::string(row.body) + "\nendmodule";
        std::set<std::string> latched;
        for (const auto &diag : lintSrc(src, "inferred-latch"))
            latched.insert(diag.signals.at(0));
        EXPECT_EQ(latched, row.latched) << row.name;
    }
}

TEST(LintRuleTest, BlockingInSeq)
{
    const char *pos =
        "module m(input wire clk, input wire d, output reg q);\n"
        "always @(posedge clk) q = d;\nendmodule";
    const char *neg =
        "module m(input wire clk, input wire d, output reg q);\n"
        "always @(posedge clk) q <= d;\nendmodule";
    EXPECT_TRUE(fires(pos, "blocking-in-seq"));
    EXPECT_FALSE(fires(neg, "blocking-in-seq"));
}

TEST(LintRuleTest, NonblockingInComb)
{
    const char *pos =
        "module m(input wire d, output reg y);\n"
        "always @* y <= d;\nendmodule";
    const char *neg =
        "module m(input wire d, output reg y);\n"
        "always @* y = d;\nendmodule";
    EXPECT_TRUE(fires(pos, "nonblocking-in-comb"));
    EXPECT_FALSE(fires(neg, "nonblocking-in-comb"));
}

TEST(LintRuleTest, WidthTruncation)
{
    const char *pos =
        "module m(input wire clk, input wire [7:0] d, "
        "output reg [3:0] q);\n"
        "always @(posedge clk) q <= d;\nendmodule";
    const char *neg =
        "module m(input wire clk, input wire [7:0] d, "
        "output reg [3:0] q);\n"
        "always @(posedge clk) q <= d[3:0];\nendmodule";
    EXPECT_TRUE(fires(pos, "width-trunc"));
    EXPECT_FALSE(fires(neg, "width-trunc"));
}

TEST(LintRuleTest, WidthTruncationIgnoresArithmetic)
{
    // Arithmetic is context-determined; `cnt + 1` must not be treated
    // as wider than cnt.
    const char *src =
        "module m(input wire clk, output reg [3:0] cnt);\n"
        "always @(posedge clk) cnt <= cnt + 1;\nendmodule";
    EXPECT_FALSE(fires(src, "width-trunc"));
}

TEST(LintRuleTest, MultiDriven)
{
    const char *pos =
        "module m(input wire clk, input wire a, input wire b, "
        "output reg q);\n"
        "always @(posedge clk) q <= a;\n"
        "always @(posedge clk) q <= b;\nendmodule";
    const char *neg =
        "module m(input wire clk, input wire a, output reg q);\n"
        "always @(posedge clk) q <= a;\nendmodule";
    EXPECT_TRUE(fires(pos, "multi-driven"));
    EXPECT_FALSE(fires(neg, "multi-driven"));
}

TEST(LintRuleTest, CombLoop)
{
    const char *pos =
        "module m(input wire d, output wire y);\n"
        "wire a;\nwire b;\n"
        "assign a = b & d;\nassign b = a;\nassign y = a;\nendmodule";
    const char *neg =
        "module m(input wire d, output wire y);\n"
        "wire a;\nassign a = d;\nassign y = a;\nendmodule";
    auto diags = lintSrc(pos, "comb-loop");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].severity, Severity::Error);
    EXPECT_EQ(diags[0].signals,
              (std::vector<std::string>{"a", "b"}));
    EXPECT_FALSE(fires(neg, "comb-loop"));
}

TEST(LintRuleTest, CombSelfLoop)
{
    const char *pos =
        "module m(input wire d, output wire y);\n"
        "wire a;\nassign a = a | d;\nassign y = a;\nendmodule";
    EXPECT_TRUE(fires(pos, "comb-loop"));
}

TEST(LintRuleTest, Undriven)
{
    const char *pos =
        "module m(input wire clk, output reg q);\n"
        "wire u;\n"
        "always @(posedge clk) q <= u;\nendmodule";
    const char *neg =
        "module m(input wire clk, input wire d, output reg q);\n"
        "wire u;\nassign u = d;\n"
        "always @(posedge clk) q <= u;\nendmodule";
    EXPECT_TRUE(fires(pos, "undriven"));
    EXPECT_FALSE(fires(neg, "undriven"));
}

TEST(LintRuleTest, UndrivenOutputPort)
{
    const char *pos =
        "module m(input wire clk, output wire y);\nendmodule";
    EXPECT_TRUE(fires(pos, "undriven"));
}

TEST(LintRuleTest, UnusedSignal)
{
    const char *pos =
        "module m(input wire clk, input wire d, output wire y);\n"
        "reg x;\n"
        "always @(posedge clk) x <= d;\n"
        "assign y = d;\nendmodule";
    const char *neg =
        "module m(input wire clk, input wire d, output wire y);\n"
        "reg x;\n"
        "always @(posedge clk) x <= d;\n"
        "assign y = x;\nendmodule";
    EXPECT_TRUE(fires(pos, "unused-signal"));
    EXPECT_FALSE(fires(neg, "unused-signal"));
}

TEST(LintRuleTest, UnusedInput)
{
    const char *pos =
        "module m(input wire clk, input wire d, output reg q);\n"
        "always @(posedge clk) q <= 1'b0;\nendmodule";
    const char *neg =
        "module m(input wire clk, input wire d, output reg q);\n"
        "always @(posedge clk) q <= d;\nendmodule";
    auto diags = lintSrc(pos, "unused-input");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].signals,
              (std::vector<std::string>{"d"})); // clk is exempt
    EXPECT_FALSE(fires(neg, "unused-input"));
}

TEST(LintRuleTest, FifoNoBackpressure)
{
    const char *tmpl =
        "module m(input wire clk, input wire rst, input wire vld,\n"
        "         input wire [7:0] d, input wire pop,\n"
        "         output wire [7:0] q, output wire e);\n"
        "wire f;\n"
        "wire push = %s;\n"
        "scfifo #(.WIDTH(8), .DEPTH(4)) u_f (\n"
        "  .clock(clk), .sclr(rst), .data(d), .wrreq(push),\n"
        "  .rdreq(pop), .q(q), .empty(e), .full(f)\n"
        ");\nendmodule";
    std::string pos = csprintf(tmpl, "vld");
    std::string neg = csprintf(tmpl, "vld && !f");
    auto diags = lintSrc(pos, "fifo-no-backpressure");
    // wrreq ignores full; rdreq(pop) also never consults empty.
    ASSERT_GE(diags.size(), 1u);
    EXPECT_EQ(diags[0].severity, Severity::Error);
    auto negDiags = lintSrc(neg, "fifo-no-backpressure");
    for (const auto &diag : negDiags)
        EXPECT_EQ(diag.message.find("'wrreq'"), std::string::npos)
            << diag.message;
}

TEST(LintRuleTest, FsmUnreachable)
{
    const char *tmpl =
        "module m(input wire clk, input wire rst, input wire go,\n"
        "         output reg [1:0] state);\n"
        "always @(posedge clk) begin\n"
        "  if (rst) state <= 2'd0;\n"
        "  else case (state)\n"
        "    2'd0: if (go) state <= 2'd1;\n"
        "    2'd1: state <= %s;\n"
        "    2'd2: state <= 2'd0;\n"
        "  endcase\nend\nendmodule";
    std::string pos = csprintf(tmpl, "2'd0"); // nothing reaches 2'd2
    std::string neg = csprintf(tmpl, "2'd2");
    auto diags = lintSrc(pos, "fsm-unreachable");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("2'd2"), std::string::npos);
    EXPECT_FALSE(fires(neg, "fsm-unreachable"));
}

TEST(LintRuleTest, FsmNoExit)
{
    const char *tmpl =
        "module m(input wire clk, input wire rst, input wire go,\n"
        "         output reg [1:0] state);\n"
        "always @(posedge clk) begin\n"
        "  if (rst) state <= 2'd0;\n"
        "  else case (state)\n"
        "    2'd0: if (go) state <= 2'd1;\n"
        "    2'd1: state <= 2'd2;\n"
        "    2'd2: state <= %s;\n"
        "  endcase\nend\nendmodule";
    std::string pos = csprintf(tmpl, "2'd2"); // 2'd2 is a trap state
    std::string neg = csprintf(tmpl, "2'd0");
    auto diags = lintSrc(pos, "fsm-no-exit");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("2'd2"), std::string::npos);
    EXPECT_FALSE(fires(neg, "fsm-no-exit"));
}

TEST(LintRuleTest, StickyFlag)
{
    const char *tmpl =
        "module m(input wire clk, input wire rst, input wire in,\n"
        "         input wire clr, output wire y);\n"
        "reg flag;\n"
        "always @(posedge clk) begin\n"
        "  if (rst) flag <= 1'b0;\n"
        "  else if (in) flag <= 1'b1;\n"
        "%s"
        "end\n"
        "assign y = flag;\nendmodule";
    std::string pos = csprintf(tmpl, "");
    std::string neg = csprintf(tmpl, "  else if (clr) flag <= 1'b0;\n");
    EXPECT_TRUE(fires(pos, "sticky-flag"));
    EXPECT_FALSE(fires(neg, "sticky-flag"));
}

TEST(LintRuleTest, EnableDeadlock)
{
    const char *tmpl =
        "module m(input wire clk, input wire rst, input wire go,\n"
        "         output wire y);\n"
        "reg a_go;\nreg b_go;\n"
        "always @(posedge clk) begin\n"
        "  if (rst) begin a_go <= %s; b_go <= 1'b0; end\n"
        "  else begin\n"
        "    if (go && b_go) a_go <= 1'b1;\n"
        "    if (a_go) b_go <= 1'b1;\n"
        "    if (a_go && b_go) begin a_go <= 1'b0; b_go <= 1'b0; end\n"
        "  end\nend\n"
        "assign y = a_go ^ b_go;\nendmodule";
    std::string pos = csprintf(tmpl, "1'b0");
    std::string neg = csprintf(tmpl, "1'b1"); // a_go starts asserted
    auto diags = lintSrc(pos, "enable-deadlock");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].severity, Severity::Error);
    EXPECT_FALSE(fires(neg, "enable-deadlock"));
}

TEST(LintRuleTest, HandshakeDrop)
{
    const char *tmpl =
        "module m(input wire clk, input wire rst, input wire fire,\n"
        "         input wire m_ready, output reg m_valid);\n"
        "always @(posedge clk) begin\n"
        "  if (rst) m_valid <= 1'b0;\n"
        "  else if (fire) m_valid <= 1'b1;\n"
        "  else %sm_valid <= 1'b0;\n"
        "end\nendmodule";
    std::string pos = csprintf(tmpl, "");
    std::string neg = csprintf(tmpl, "if (m_ready) ");
    EXPECT_TRUE(fires(pos, "handshake-drop"));
    EXPECT_FALSE(fires(neg, "handshake-drop"));
}

TEST(LintRuleTest, HandshakeUnstable)
{
    const char *tmpl =
        "module m(input wire clk, input wire rst, input wire [7:0] d,\n"
        "         input wire m_ready, output reg m_valid,\n"
        "         output reg [7:0] m_data);\n"
        "always @(posedge clk) begin\n"
        "  if (rst) begin m_valid <= 1'b0; m_data <= 8'd0; end\n"
        "  else if (m_valid%s) m_data <= d;\n"
        "end\nendmodule";
    std::string pos = csprintf(tmpl, "");
    std::string neg = csprintf(tmpl, " && m_ready");
    EXPECT_TRUE(fires(pos, "handshake-unstable"));
    EXPECT_FALSE(fires(neg, "handshake-unstable"));
}

TEST(LintRenderTest, TextFormat)
{
    Diagnostic diag;
    diag.rule = "sticky-flag";
    diag.severity = Severity::Warning;
    diag.subclass = "Failure-to-Update";
    diag.loc = hdl::SourceLoc{"top.v", 21, 5};
    diag.message = "flag 'drop' is never cleared";
    diag.signals = {"drop"};
    std::string text = renderText({diag});
    EXPECT_EQ(text,
              "top.v:21:5: warning: flag 'drop' is never cleared "
              "[sticky-flag] {drop}\n");
}

TEST(LintRenderTest, JsonFormatAndEscaping)
{
    Diagnostic diag;
    diag.rule = "multi-driven";
    diag.severity = Severity::Error;
    diag.subclass = "Signal Asynchrony";
    diag.loc = hdl::SourceLoc{"a\"b.v", 3, 1};
    diag.message = "line1\nline2";
    diag.signals = {"x", "y"};
    std::string json = renderJson({diag});
    EXPECT_NE(json.find("\"rule\": \"multi-driven\""),
              std::string::npos);
    EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
    EXPECT_NE(json.find("a\\\"b.v"), std::string::npos);
    EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
    EXPECT_NE(json.find("[\"x\", \"y\"]"), std::string::npos);
    // Empty list renders as a valid empty array.
    EXPECT_EQ(renderJson({}), "[\n]\n");
}

TEST(LintRenderTest, DiagnosticsAreSortedByLocation)
{
    const char *src =
        "module m(input wire clk, input wire d, output wire y);\n"
        "reg x;\nreg w;\n"
        "always @(posedge clk) begin x <= d; w <= d; end\n"
        "assign y = d;\nendmodule";
    auto diags = lintSrc(src, "unused-signal");
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_LT(diags[0].loc.line, diags[1].loc.line);
}

TEST(LintRuleSelectionTest, FilterRestrictsRules)
{
    // Fixture trips both unused-signal and blocking-in-seq.
    const char *src =
        "module m(input wire clk, input wire d, output wire y);\n"
        "reg x;\n"
        "always @(posedge clk) x = d;\n"
        "assign y = d;\nendmodule";
    auto all = lintSrc(src);
    auto only = lintSrc(src, "blocking-in-seq");
    EXPECT_GT(all.size(), only.size());
    ASSERT_EQ(only.size(), 1u);
    EXPECT_EQ(only[0].rule, "blocking-in-seq");
    for (const auto &diag : all)
        EXPECT_NE(ruleById(diag.rule), nullptr);
}

namespace
{

std::multiset<std::string>
testbedRules(const char *id, bool buggy)
{
    const auto &bug = bugs::bugById(id);
    auto elaborated = bugs::buildDesign(bug, buggy);
    std::multiset<std::string> rules;
    for (const auto &diag : runLint(*elaborated.mod))
        rules.insert(diag.rule);
    return rules;
}

} // namespace

TEST(LintTestbedTest, DetectsStructuralBugsBuggyOnly)
{
    // The claims the static_effectiveness bench (lint preset) and cli
    // smoke test rest on: each of these rules fires on the buggy form and not on the
    // fixed form of the same design.
    const struct { const char *id; const char *rule; } expected[] = {
        {"D3", "fifo-no-backpressure"},
        {"D4", "unused-signal"},
        {"D11", "sticky-flag"},
        {"C1", "enable-deadlock"},
        {"C3", "unused-signal"},
        {"S1", "handshake-drop"},
        {"S2", "handshake-unstable"},
        {"S3", "unused-input"},
    };
    for (const auto &claim : expected) {
        EXPECT_TRUE(testbedRules(claim.id, true).count(claim.rule))
            << claim.id << " buggy should trip " << claim.rule;
        EXPECT_FALSE(testbedRules(claim.id, false).count(claim.rule))
            << claim.id << " fixed should not trip " << claim.rule;
    }
}

TEST(LintTestbedTest, FixedFrameFifoIsClean)
{
    EXPECT_TRUE(testbedRules("D4", false).empty());
}
