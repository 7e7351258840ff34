/**
 * @file
 * Tests for the analyze pass framework: the registry, one firing and
 * one clean fixture per rule, pass selection, determinism, the
 * versioned JSON report with its obscheck validator, and the shared
 * comb-loop check that keeps lint and analyze findings identical.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analyze/analyze.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "lint/lint.hh"

using namespace hwdbg;
using namespace hwdbg::analyze;

namespace
{

std::vector<lint::Diagnostic>
analyzeSrc(const std::string &src, const std::string &pass = "",
           const std::string &top = "m")
{
    auto mod = elab::elaborate(hdl::parse(src), top).mod;
    AnalyzeOptions opts;
    if (!pass.empty())
        opts.passes.insert(pass);
    return runAnalyze(*mod, opts);
}

bool
fires(const std::vector<lint::Diagnostic> &diags,
      const std::string &rule)
{
    return std::any_of(diags.begin(), diags.end(),
                       [&](const lint::Diagnostic &d) {
                           return d.rule == rule;
                       });
}

} // namespace

TEST(AnalyzeRegistryTest, PassesAreRegisteredAndUnique)
{
    const auto &passes = analyzePasses();
    ASSERT_EQ(passes.size(), 5u);
    std::set<std::string> ids;
    for (const auto &pass : passes) {
        EXPECT_TRUE(ids.insert(pass.id).second);
        EXPECT_FALSE(pass.description.empty()) << pass.id;
        EXPECT_NE(pass.run, nullptr) << pass.id;
        EXPECT_EQ(passById(pass.id), &pass);
    }
    EXPECT_TRUE(ids.count("const"));
    EXPECT_TRUE(ids.count("xinit"));
    EXPECT_TRUE(ids.count("race"));
    EXPECT_TRUE(ids.count("cdc"));
    EXPECT_TRUE(ids.count("loop"));
    EXPECT_EQ(passById("no-such-pass"), nullptr);
}

TEST(AnalyzeConstTest, DeadGuardFiresAndCleans)
{
    std::string buggy = "module m(input wire clk, output reg q);\n"
                        "wire en;\nassign en = 1'b0;\n"
                        "always @(posedge clk) begin\n"
                        "  q <= 1'b0;\n  if (en) q <= 1'b1;\nend\n"
                        "endmodule";
    auto diags = analyzeSrc(buggy, "const");
    EXPECT_TRUE(fires(diags, "dead-guard"));
    EXPECT_TRUE(fires(diags, "stuck-output"));

    std::string clean = "module m(input wire clk, input wire en,\n"
                        "         output reg q);\n"
                        "always @(posedge clk) begin\n"
                        "  q <= 1'b0;\n  if (en) q <= 1'b1;\nend\n"
                        "endmodule";
    auto cleanDiags = analyzeSrc(clean, "const");
    EXPECT_FALSE(fires(cleanDiags, "dead-guard"));
    EXPECT_FALSE(fires(cleanDiags, "stuck-output"));
}

TEST(AnalyzeConstTest, StuckBitOnPartialConstant)
{
    // The concat pins the top bit to zero while the low bits move.
    std::string src = "module m(input wire clk, input wire [2:0] d,\n"
                      "         output reg [3:0] q);\n"
                      "always @(posedge clk) q <= {1'b0, d};\n"
                      "endmodule";
    auto diags = analyzeSrc(src, "const");
    EXPECT_TRUE(fires(diags, "stuck-bit"));
    EXPECT_FALSE(fires(diags, "stuck-output"));
}

TEST(AnalyzeConstTest, DeadSignalNeverReachesASink)
{
    std::string src = "module m(input wire clk, input wire [3:0] d,\n"
                      "         output reg [3:0] q);\n"
                      "reg [3:0] scratch;\nreg [3:0] fed;\n"
                      "always @(posedge clk) begin\n"
                      "  scratch <= d;\n  fed <= scratch;\n"
                      "  q <= d;\nend\nendmodule";
    auto diags = analyzeSrc(src, "const");
    // scratch is read (into fed) but fed reaches nothing observable.
    EXPECT_TRUE(fires(diags, "dead-signal"));
}

TEST(AnalyzeXinitTest, CombReadBeforeWrite)
{
    std::string buggy = "module m(input wire clk, input wire [3:0] d,\n"
                        "         output wire [3:0] y);\n"
                        "reg [3:0] a; reg [3:0] b;\n"
                        "always @* begin\n"
                        "  b = a + 4'd1;\n  a = d;\nend\n"
                        "assign y = b;\nendmodule";
    auto diags = analyzeSrc(buggy, "xinit");
    EXPECT_TRUE(fires(diags, "comb-read-before-write"));

    std::string clean = "module m(input wire clk, input wire [3:0] d,\n"
                        "         output wire [3:0] y);\n"
                        "reg [3:0] a; reg [3:0] b;\n"
                        "always @* begin\n"
                        "  a = d;\n  b = a + 4'd1;\nend\n"
                        "assign y = b;\nendmodule";
    EXPECT_FALSE(fires(analyzeSrc(clean, "xinit"),
                       "comb-read-before-write"));

    // One row per statement shape: the combinational body (from line
    // 4) and each early read as signal@line. A signal is reported once,
    // at its first early read; any write, full or partial, counts.
    struct Row
    {
        const char *name;
        const char *body;
        std::set<std::string> reads;
    };
    const Row rows[] = {
        {"IfWithoutElse",
         "always @* begin\n  if (en) a = d;\n  b = a;\nend", {"a@6"}},
        {"NestedIfInCaseArm",
         "always @* case (s)\n"
         "  2'd0: begin if (en) a = d; else a = 4'd0; b = a; end\n"
         "  default: b = 4'd0;\nendcase",
         {}},
        {"NestedIfWithoutElseInCaseArm",
         "always @* case (s)\n"
         "  2'd0: begin if (en) a = d; b = a; end\n"
         "  default: b = 4'd0;\nendcase",
         {"a@5"}},
        {"CaseWithDefault",
         "always @* begin\n"
         "  case (s) 2'd0: a = d; default: a = 4'd0; endcase\n"
         "  b = a;\nend",
         {}},
        {"CaseWithoutDefault",
         "always @* begin\n"
         "  case (s) 2'd0: a = d; 2'd1: a = 4'd0; endcase\n"
         "  b = a;\nend",
         {"a@6"}},
        {"EmptyCase",
         "always @* begin\n  a = d;\n  case (s) endcase\n"
         "  b = a;\nend",
         {}},
        {"EmptyCaseReadsItsSelector",
         "always @* begin\n  case (a) endcase\n  a = d;\n"
         "  b = a;\nend",
         {"a@5"}},
        {"PartialBitSelectWrite",
         "always @* begin\n  a[0] = d[0];\n  b = a;\nend", {}},
        {"ReadInConditionBeforeWrite",
         "always @* begin\n  if (a[0]) b = d; else b = 4'd0;\n"
         "  a = d;\nend",
         {"a@5"}},
    };
    for (const Row &row : rows) {
        std::string src = "module m(input wire en, input wire [1:0] s,\n"
                          "  input wire [3:0] d, output wire [3:0] y);\n"
                          "reg [3:0] a; reg [3:0] b;\n" +
                          std::string(row.body) +
                          "\nassign y = b;\nendmodule";
        std::set<std::string> reads;
        for (const auto &diag : analyzeSrc(src, "xinit"))
            if (diag.rule == "comb-read-before-write")
                reads.insert(diag.signals.at(0) + "@" +
                             std::to_string(diag.loc.line));
        EXPECT_EQ(reads, row.reads) << row.name;
    }
}

TEST(AnalyzeXinitTest, ReadUninitializedWhenNoAssignReachable)
{
    std::string src = "module m(input wire clk, output reg [3:0] q);\n"
                      "reg [3:0] never;\nwire en;\nassign en = 1'b0;\n"
                      "always @(posedge clk) begin\n"
                      "  if (en) never <= 4'd5;\n"
                      "  q <= never;\nend\nendmodule";
    auto diags = analyzeSrc(src, "xinit");
    EXPECT_TRUE(fires(diags, "read-uninitialized"));
}

TEST(AnalyzeRaceTest, BlockingRaceAcrossSiblingProcesses)
{
    std::string buggy = "module m(input wire clk, input wire [3:0] d,\n"
                        "         output reg [3:0] q);\n"
                        "reg [3:0] x;\n"
                        "always @(posedge clk) x = d;\n"
                        "always @(posedge clk) q <= x;\nendmodule";
    auto diags = analyzeSrc(buggy, "race");
    EXPECT_TRUE(fires(diags, "blocking-race"));
    EXPECT_TRUE(lint::hasErrors(diags));

    // The NBA version of the same design is order-independent.
    std::string clean = "module m(input wire clk, input wire [3:0] d,\n"
                        "         output reg [3:0] q);\n"
                        "reg [3:0] x;\n"
                        "always @(posedge clk) x <= d;\n"
                        "always @(posedge clk) q <= x;\nendmodule";
    EXPECT_FALSE(fires(analyzeSrc(clean, "race"), "blocking-race"));
}

TEST(AnalyzeRaceTest, LocalBlockingTempIsNotARace)
{
    // Blocking writes consumed only inside the same process are the
    // idiomatic temporary, not a race.
    std::string src = "module m(input wire clk, input wire [3:0] d,\n"
                      "         output reg [3:0] q);\n"
                      "reg [3:0] t;\n"
                      "always @(posedge clk) begin\n"
                      "  t = d + 4'd1;\n  q <= t;\nend\nendmodule";
    auto diags = analyzeSrc(src, "race");
    EXPECT_FALSE(fires(diags, "blocking-race"));
}

TEST(AnalyzeRaceTest, MixedAndMultiDrivers)
{
    std::string mixed = "module m(input wire clk, input wire [3:0] d,\n"
                        "         output reg [3:0] q);\n"
                        "always @(posedge clk)\n"
                        "  if (d[0]) q = d; else q <= 4'd0;\n"
                        "endmodule";
    EXPECT_TRUE(fires(analyzeSrc(mixed, "race"), "nba-blocking-mix"));

    std::string multi = "module m(input wire clk, input wire [3:0] d,\n"
                        "         output reg [3:0] q);\n"
                        "always @(posedge clk) q <= d;\n"
                        "always @(posedge clk) q <= d + 4'd1;\n"
                        "endmodule";
    EXPECT_TRUE(fires(analyzeSrc(multi, "race"), "multi-driver-nba"));
}

TEST(AnalyzeCdcTest, MultiClockRegAndUnsyncCrossing)
{
    std::string multi = "module m(input wire clk, input wire clkb,\n"
                        "         input wire [3:0] d,\n"
                        "         output reg [3:0] q);\n"
                        "always @(posedge clk) q <= d;\n"
                        "always @(posedge clkb) q <= d + 4'd1;\n"
                        "endmodule";
    auto diags = analyzeSrc(multi, "cdc");
    EXPECT_TRUE(fires(diags, "multi-clock-reg"));

    std::string crossing =
        "module m(input wire clk, input wire clkb,\n"
        "         input wire [3:0] d, output reg [3:0] q);\n"
        "reg [3:0] src;\n"
        "always @(posedge clkb) src <= d;\n"
        "always @(posedge clk) q <= src + 4'd1;\nendmodule";
    EXPECT_TRUE(fires(analyzeSrc(crossing, "cdc"), "cdc-unsync"));

    // A plain two-stage synchronizer is the sanctioned pattern.
    std::string synced =
        "module m(input wire clk, input wire clkb,\n"
        "         input wire d, output reg q);\n"
        "reg src; reg s1;\n"
        "always @(posedge clkb) src <= d;\n"
        "always @(posedge clk) s1 <= src;\n"
        "always @(posedge clk) q <= s1;\nendmodule";
    EXPECT_FALSE(fires(analyzeSrc(synced, "cdc"), "cdc-unsync"));
}

TEST(AnalyzeCdcTest, SingleClockDesignIsClean)
{
    std::string src = "module m(input wire clk, input wire [3:0] d,\n"
                      "         output reg [3:0] q);\n"
                      "reg [3:0] a;\n"
                      "always @(posedge clk) a <= d;\n"
                      "always @(posedge clk) q <= a;\nendmodule";
    auto diags = analyzeSrc(src, "cdc");
    EXPECT_TRUE(diags.empty());
}

TEST(AnalyzeLoopTest, IdenticalToLintAndDedupable)
{
    std::string src = "module m(input wire clk, input wire [3:0] a,\n"
                      "         output wire [3:0] y);\n"
                      "wire [3:0] p;\nwire [3:0] q;\n"
                      "assign p = q + a;\nassign q = p ^ 4'h3;\n"
                      "assign y = q;\nendmodule";
    auto mod = elab::elaborate(hdl::parse(src), "m").mod;
    auto fromAnalyze = analyzeSrc(src, "loop");
    ASSERT_TRUE(fires(fromAnalyze, "comb-loop"));

    lint::LintOptions lopts;
    lopts.rules.insert("comb-loop");
    auto fromLint = lint::runLint(*mod, lopts);
    ASSERT_EQ(fromLint.size(), fromAnalyze.size());
    for (size_t i = 0; i < fromLint.size(); ++i) {
        EXPECT_EQ(fromLint[i].message, fromAnalyze[i].message);
        EXPECT_EQ(fromLint[i].rule, fromAnalyze[i].rule);
        EXPECT_EQ(fromLint[i].loc.line, fromAnalyze[i].loc.line);
        EXPECT_EQ(fromLint[i].signals, fromAnalyze[i].signals);
    }
}

// Lint and analyze once built their facts separately and disagreed in
// four places. The one context settles each; these tests pin how.

TEST(ContextTest, UndeclaredLoopMemberIsReportedAtTheModule)
{
    // declLoc falls back to the module location for an undeclared
    // name (lint used to print an empty ":0:0" location).
    std::string src = "module m(input wire clk, output wire y);\n"
                      "assign p = q;\nassign q = p;\nassign y = p;\n"
                      "endmodule";
    auto mod = elab::elaborate(hdl::parse(src), "m").mod;
    lint::LintOptions lopts;
    lopts.rules.insert("comb-loop");
    auto fromLint = lint::runLint(*mod, lopts);
    ASSERT_EQ(fromLint.size(), 1u);
    EXPECT_EQ(fromLint[0].loc.line, mod->loc.line);
    EXPECT_EQ(fromLint[0].loc.col, mod->loc.col);
    EXPECT_EQ(lint::renderJson(fromLint),
              lint::renderJson(analyzeSrc(src, "loop")));
}

TEST(ContextTest, UnsizableRangeHasUnknownWidth)
{
    // Elaboration folds every range, but a module straight from the
    // parser may carry one that does not fold. Its width is unknown
    // (0, as analyze always had it; lint used to assume 1), so the
    // register is no one-bit flag.
    auto stickyHits = [](const std::string &decl) {
        hdl::Design design = hdl::parse(
            "module m(input wire clk, input wire rst, input wire go,\n"
            "         output wire y);\n" + decl +
            "always @(posedge clk)\n"
            "  if (rst) f <= 1'b0;\n  else if (go) f <= 1'b1;\n"
            "assign y = f;\nendmodule");
        lint::LintOptions opts;
        opts.rules.insert("sticky-flag");
        return lint::runLint(*design.modules.at(0), opts).size();
    };
    EXPECT_EQ(stickyHits("reg f;\n"), 1u);
    EXPECT_EQ(stickyHits("reg [W:0] f;\n"), 0u);
}

TEST(ContextTest, SelfIndexedLvalueReadsItsBase)
{
    // `a[a] <= d` reads a as the index (as lint always had it;
    // analyze used to drop the base from the read set).
    std::string seq = "module m(input wire clk, input wire d);\n"
                      "reg [1:0] a;\n"
                      "always @(posedge clk) a[a] <= d;\nendmodule";
    auto mod = elab::elaborate(hdl::parse(seq), "m").mod;
    lint::LintOptions lopts;
    lopts.rules.insert("unused-signal");
    EXPECT_TRUE(lint::runLint(*mod, lopts).empty());

    // In a combinational process that read comes before any write.
    std::string comb = "module m(input wire d, output reg [1:0] y);\n"
                       "always @(*) y[y] = d;\nendmodule";
    EXPECT_TRUE(fires(analyzeSrc(comb, "xinit"),
                      "comb-read-before-write"));
}

TEST(ContextTest, LintWalksDeclarationOrderAnalyzeNameOrder)
{
    // Flattening gives b__t and a__t one declaration location, so the
    // walk order decides the order of their tied findings: lint rules
    // walk signals as declared, analyze passes by name. Both orders
    // are kept so neither report changes.
    std::string src = "module sub(input wire clk, input wire d);\n"
                      "reg t;\nreg u;\n"
                      "always @(posedge clk) t <= d;\n"
                      "always @(posedge clk) u <= t;\nendmodule\n"
                      "module m(input wire clk, input wire d);\n"
                      "sub b(.clk(clk), .d(d));\n"
                      "sub a(.clk(clk), .d(d));\nendmodule";
    auto mod = elab::elaborate(hdl::parse(src), "m").mod;
    auto signalsOf = [](const std::vector<lint::Diagnostic> &diags,
                        const std::string &rule) {
        std::vector<std::string> out;
        for (const auto &diag : diags)
            if (diag.rule == rule)
                out.push_back(diag.signals.at(0));
        return out;
    };
    EXPECT_EQ(signalsOf(lint::runLint(*mod), "unused-signal"),
              (std::vector<std::string>{"b__u", "a__u"}));
    EXPECT_EQ(signalsOf(runAnalyze(*mod), "dead-signal"),
              (std::vector<std::string>{"a__d", "b__d", "a__t", "b__t"}));
}

TEST(AnalyzeTest, PassSelectionLimitsRules)
{
    // A design that trips const, race, and cdc at once.
    std::string src = "module m(input wire clk, input wire clkb,\n"
                      "         input wire [3:0] d,\n"
                      "         output reg [3:0] q);\n"
                      "wire en;\nassign en = 1'b0;\n"
                      "reg [3:0] x; reg [3:0] src2;\n"
                      "always @(posedge clkb) src2 <= d;\n"
                      "always @(posedge clk) x = src2 + 4'd1;\n"
                      "always @(posedge clk) begin\n"
                      "  q <= x;\n  if (en) q <= 4'd0;\nend\n"
                      "endmodule";
    auto raceOnly = analyzeSrc(src, "race");
    EXPECT_TRUE(fires(raceOnly, "blocking-race"));
    EXPECT_FALSE(fires(raceOnly, "dead-guard"));
    EXPECT_FALSE(fires(raceOnly, "cdc-unsync"));

    auto all = analyzeSrc(src);
    EXPECT_TRUE(fires(all, "blocking-race"));
    EXPECT_TRUE(fires(all, "dead-guard"));
    EXPECT_TRUE(fires(all, "cdc-unsync"));
}

TEST(AnalyzeTest, DeterministicAcrossRuns)
{
    std::string src = "module m(input wire clk, input wire [3:0] d,\n"
                      "         output reg [3:0] q);\n"
                      "reg [3:0] x;\n"
                      "always @(posedge clk) x = d;\n"
                      "always @(posedge clk) q <= x;\nendmodule";
    auto a = analyzeSrc(src);
    auto b = analyzeSrc(src);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(lint::renderJson(a), lint::renderJson(b));
    // Sorted by (location, rule): presentation order is stable.
    for (size_t i = 1; i < a.size(); ++i) {
        bool ordered =
            a[i - 1].loc.line < a[i].loc.line ||
            (a[i - 1].loc.line == a[i].loc.line &&
             (a[i - 1].loc.col < a[i].loc.col ||
              (a[i - 1].loc.col == a[i].loc.col &&
               a[i - 1].rule <= a[i].rule)));
        EXPECT_TRUE(ordered) << "diagnostics out of order at " << i;
    }
}

TEST(AnalyzeJsonTest, ReportRoundTripsThroughChecker)
{
    std::string src = "module m(input wire clk, input wire [3:0] d,\n"
                      "         output reg [3:0] q);\n"
                      "reg [3:0] x;\n"
                      "always @(posedge clk) x = d;\n"
                      "always @(posedge clk) q <= x;\nendmodule";
    auto diags = analyzeSrc(src);
    std::vector<std::string> passes;
    for (const auto &pass : analyzePasses())
        passes.push_back(pass.id);
    std::string json = renderAnalyzeJson(passes, diags);
    EXPECT_EQ(checkAnalyzeJson(json), "");
    // Byte-identical across renders of the same diagnostics.
    EXPECT_EQ(json, renderAnalyzeJson(passes, diags));
    // The empty report is also valid.
    EXPECT_EQ(checkAnalyzeJson(renderAnalyzeJson(passes, {})), "");
}

TEST(AnalyzeJsonTest, CheckerRejectsCorruptReports)
{
    auto diags = analyzeSrc("module m(input wire clk);\nendmodule");
    std::vector<std::string> passes = {"const"};
    std::string json = renderAnalyzeJson(passes, diags);

    EXPECT_NE(checkAnalyzeJson("not json"), "");
    EXPECT_NE(checkAnalyzeJson("{}"), "");

    // Wrong format marker.
    std::string wrong = json;
    auto pos = wrong.find("hwdbg-analyze");
    ASSERT_NE(pos, std::string::npos);
    wrong.replace(pos, 13, "hwdbg-analyse");
    EXPECT_NE(checkAnalyzeJson(wrong), "");

    // Unknown pass id.
    EXPECT_NE(checkAnalyzeJson(renderAnalyzeJson({"nosuch"}, diags)),
              "");

    // Version bump must be rejected until the checker learns it.
    std::string bumped = json;
    pos = bumped.find("\"version\": 1");
    ASSERT_NE(pos, std::string::npos);
    bumped.replace(pos, 12, "\"version\": 2");
    EXPECT_NE(checkAnalyzeJson(bumped), "");
}
