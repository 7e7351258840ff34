/**
 * @file
 * The front end's observable behaviour, pinned byte for byte.
 *
 * Two tables:
 *  - every rejection path of the preprocessor, lexer and parser, each
 *    with the exact HdlError text (`file:line:col: ...`) it raises;
 *  - the printed text of three corpora: the 40 testbed variants, the
 *    FSM zoo and the 12-design generated corpus. Each must print to a
 *    parse/print fixpoint, and the printed bytes must hash to the
 *    pinned digest, so a rewrite of the lexer, parser or printer that
 *    changes one byte of output shows here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bugbase/designs.hh"
#include "bugbase/fsm_zoo.hh"
#include "bugbase/testbed.hh"
#include "common/logging.hh"
#include "fuzz/generator.hh"
#include "hdl/parser.hh"
#include "hdl/preproc.hh"
#include "hdl/printer.hh"
#include "obs/metrics.hh"

namespace hwdbg
{
namespace
{

enum class Stage { Preprocess, Parse };

struct Rejection
{
    const char *name;
    Stage stage;
    std::string source;
    std::string error;
};

std::string
repeat(const std::string &text, int count)
{
    std::string out;
    for (int i = 0; i < count; ++i)
        out += text;
    return out;
}

/** A module with clk/x inputs and a y output around @p body. */
std::string
inModule(const std::string &body)
{
    return "module m(input wire clk, input wire x, output wire y);\n" +
           body + "\nendmodule\n";
}

const std::vector<Rejection> &
rejections()
{
    static const std::vector<Rejection> table = {
        // Preprocessor.
        {"DefineWithoutName", Stage::Preprocess, "\n`define\n",
         "f.v:2: `define without a name"},
        {"UndefinedMacro", Stage::Preprocess, "wire w;\nwire v = `NOPE;\n",
         "f.v:2: undefined macro `NOPE"},
        {"BareBacktick", Stage::Preprocess, "wire w;\nwire v = ` 1;\n",
         "f.v:2: undefined macro `"},
        {"ElseWithoutIfdef", Stage::Preprocess, "wire w;\n  `else\n",
         "f.v:2: `else without `ifdef"},
        {"EndifWithoutIfdef", Stage::Preprocess, "`endif\n",
         "f.v:1: `endif without `ifdef"},
        {"UnterminatedIfdef", Stage::Preprocess, "`ifdef A\nwire w;\n",
         "f.v: unterminated `ifdef"},

        // Lexer.
        {"UnterminatedBlockComment", Stage::Parse,
         "module m();\n  /* open\n", "f.v:3:1: unterminated block comment"},
        {"UnterminatedString", Stage::Parse,
         inModule("always @(posedge clk) $display(\"abc);"),
         "f.v:2:38: unterminated string literal"},
        {"BadLiteralBase", Stage::Parse, inModule("assign y = 4'q1;"),
         "f.v:2:14: bad literal base"},
        {"UnexpectedCharacter", Stage::Parse, inModule("assign y = x \\ x;"),
         "f.v:2:15: unexpected character '\\'"},

        // Parser: "expected X in Y", one per context.
        {"ExpectedInDesign", Stage::Parse, "wire w;\n",
         "f.v:1:1: expected 'module' in design, found 'wire' 'wire'"},
        {"ExpectedInModuleHeader", Stage::Parse, "module 8;\n",
         "f.v:1:8: expected identifier in module header, found number '8'"},
        {"ExpectedInParameterHeader", Stage::Parse,
         "module m #parameter W = 1;\n",
         "f.v:1:11: expected '(' in parameter header, found 'parameter' "
         "'parameter'"},
        {"ExpectedInParameter", Stage::Parse,
         "module m #(parameter W 1) ();\n",
         "f.v:1:24: expected '=' in parameter, found number '1'"},
        {"ExpectedInPortDeclaration", Stage::Parse,
         "module m(input wire [3:0]);\n",
         "f.v:1:26: expected identifier in port declaration, found ')' ''"},
        {"ExpectedInRange", Stage::Parse, inModule("wire [3 0] w;"),
         "f.v:2:9: expected ':' in range, found number '0'"},
        {"ExpectedInNetDeclaration", Stage::Parse, inModule("wire w v;"),
         "f.v:2:8: expected ';' in net declaration, found identifier 'v'"},
        {"ExpectedInContinuousAssignment", Stage::Parse,
         inModule("assign y x;"),
         "f.v:2:10: expected '=' in continuous assignment, found "
         "identifier 'x'"},
        {"ExpectedInAlwaysBlock", Stage::Parse,
         inModule("always (posedge clk) y <= 1;"),
         "f.v:2:8: expected '@' in always block, found '(' ''"},
        {"ExpectedInSensitivityList", Stage::Parse,
         inModule("always @(posedge 1) ;"),
         "f.v:2:18: expected identifier in sensitivity list, found number "
         "'1'"},
        {"ExpectedInInstantiation", Stage::Parse, inModule("sub (.a(x));"),
         "f.v:2:5: expected identifier in instantiation, found '(' ''"},
        {"ExpectedInParameterOverrides", Stage::Parse,
         inModule("sub #(W(1)) u ();"),
         "f.v:2:7: expected '.' in parameter overrides, found identifier "
         "'W'"},
        {"ExpectedInPortConnections", Stage::Parse,
         inModule("sub u (.a(x), .b x);"),
         "f.v:2:18: expected '(' in port connections, found identifier "
         "'x'"},
        {"ExpectedInIfStatement", Stage::Parse,
         inModule("always @* if x y = 1;"),
         "f.v:2:14: expected '(' in if statement, found identifier 'x'"},
        {"ExpectedInCaseStatement", Stage::Parse,
         inModule("always @* case x endcase"),
         "f.v:2:16: expected '(' in case statement, found identifier 'x'"},
        {"ExpectedInCaseItem", Stage::Parse,
         inModule("always @* case (x) 1 y = 1; endcase"),
         "f.v:2:22: expected ':' in case item, found identifier 'y'"},
        {"ExpectedInAssignment", Stage::Parse,
         inModule("always @* y = 1\nendmodule"),
         "f.v:3:1: expected ';' in assignment, found 'endmodule' "
         "'endmodule'"},
        {"ExpectedInFinish", Stage::Parse,
         inModule("always @(posedge clk) $finish(1);"),
         "f.v:2:31: expected ')' in $finish, found number '1'"},
        {"ExpectedStringInDisplay", Stage::Parse,
         inModule("always @(posedge clk) $display(x);"),
         "f.v:2:32: expected string in $display, found identifier 'x'"},
        {"ExpectedInDisplay", Stage::Parse,
         inModule("always @(posedge clk) $display(\"v=%d\" x);"),
         "f.v:2:39: expected ')' in $display, found identifier 'x'"},
        {"ExpectedInLvalue", Stage::Parse, inModule("assign 1 = x;"),
         "f.v:2:8: expected identifier in lvalue, found number '1'"},
        {"ExpectedInLvalueConcatenation", Stage::Parse,
         inModule("assign {y, x = x;"),
         "f.v:2:14: expected '}' in lvalue concatenation, found '=' ''"},
        {"ExpectedInPartSelect", Stage::Parse,
         inModule("assign y = x[3:0;"),
         "f.v:2:17: expected ']' in part select, found ';' ''"},
        {"ExpectedInBitSelect", Stage::Parse, inModule("assign y = x[3;"),
         "f.v:2:15: expected ']' in bit select, found ';' ''"},
        {"ExpectedInConditionalExpression", Stage::Parse,
         inModule("assign y = x ? 1 2;"),
         "f.v:2:18: expected ':' in conditional expression, found number "
         "'2'"},
        {"ExpectedInParenthesizedExpression", Stage::Parse,
         inModule("assign y = (x;"),
         "f.v:2:14: expected ')' in parenthesized expression, found ';' "
         "''"},
        {"ExpectedInReplication", Stage::Parse,
         inModule("assign y = {2{x};"),
         "f.v:2:17: expected '}' in replication, found ';' ''"},
        {"ExpectedInConcatenation", Stage::Parse,
         inModule("assign y = {x, x;"),
         "f.v:2:17: expected '}' in concatenation, found ';' ''"},
        {"ExpectedAtEndOfInput", Stage::Parse, "module m();\nwire w",
         "f.v:2:7: expected ';' in net declaration, found end of input ''"},

        // Parser: the other messages, and what a found token prints as.
        {"InoutPort", Stage::Parse, "module m(inout wire a);\nendmodule\n",
         "f.v:1:10: inout ports are not supported (found 'inout' 'inout')"},
        {"PortWithoutDirection", Stage::Parse,
         "module m(wire a);\nendmodule\n",
         "f.v:1:15: port is missing a direction (found identifier 'a')"},
        {"NonAnsiPort", Stage::Parse, "module m(a);\ninput a;\nendmodule\n",
         "f.v:1:10: port is missing a direction (found identifier 'a')"},
        {"NonAnsiBodyDeclaration", Stage::Parse, inModule("output y;"),
         "f.v:2:1: non-ANSI port declarations are not supported (found "
         "'output' 'output')"},
        {"UnexpectedModuleItem", Stage::Parse, inModule("8'hff;"),
         "f.v:2:1: unexpected token in module body (found number "
         "'8'hff')"},
        {"WireMemory", Stage::Parse, inModule("wire w [0:3];"),
         "f.v:2:8: memories must be declared 'reg' (found '[' '')"},
        {"RegInitializer", Stage::Parse, inModule("reg r = 1;"),
         "f.v:2:7: reg declarations cannot take initializers (found '=' "
         "'')"},
        {"PlainSensitivity", Stage::Parse, inModule("always @(x) y = 1;"),
         "f.v:2:10: expected posedge/negedge (plain signal sensitivity "
         "lists: use @*) (found identifier 'x')"},
        {"AssignmentOperator", Stage::Parse, inModule("always @* y == 1;"),
         "f.v:2:13: expected '<=' or '=' in assignment (found '==' '')"},
        {"UnexpectedStatement", Stage::Parse, inModule("always @* 1;"),
         "f.v:2:11: unexpected token in statement (found number '1')"},
        {"ExpectedExpression", Stage::Parse, inModule("assign y = ;"),
         "f.v:2:12: expected an expression (found ';' '')"},
        {"StringWhereExpressionExpected", Stage::Parse,
         inModule("assign y = \"a\\tb\\\"c\";"),
         "f.v:2:12: expected an expression (found string 'a\tb\"c')"},
        {"SystemTaskWhereExpressionExpected", Stage::Parse,
         inModule("assign y = $time;"),
         "f.v:2:12: expected an expression (found system task '$time')"},
        {"UnsupportedSystemTask", Stage::Parse,
         inModule("always @(posedge clk) $stop;"),
         "f.v:2:23: unsupported system task '$stop'"},

        // Lexical errors win over syntax errors before them: the whole
        // input is checked as if it were lexed first.
        {"LexicalErrorAfterSyntaxError", Stage::Parse,
         "module m(;\nwire w = \"open\n", "f.v:2:15: unterminated string "
         "literal"},

        // The nesting limit.
        {"NestingLimit", Stage::Parse,
         inModule("assign y = " + repeat("(", 256) + "x" +
                  repeat(")", 256) + ";"),
         "f.v:2:268: nesting deeper than 256"},
    };
    return table;
}

void
PrintTo(const Rejection &r, std::ostream *os)
{
    *os << r.name;
}

class RejectionTest : public ::testing::TestWithParam<Rejection>
{
};

TEST_P(RejectionTest, RaisesTheExactError)
{
    const Rejection &r = GetParam();
    std::string got;
    try {
        if (r.stage == Stage::Preprocess)
            hdl::preprocess(r.source, {}, "f.v");
        else
            hdl::parseWithDefines(r.source, {}, "f.v");
    } catch (const HdlError &err) {
        got = err.what();
    }
    EXPECT_EQ(got, r.error);
}

INSTANTIATE_TEST_SUITE_P(
    FrontEnd, RejectionTest, ::testing::ValuesIn(rejections()),
    [](const ::testing::TestParamInfo<Rejection> &info) {
        return std::string(info.param.name);
    });

TEST(RejectionCountTest, ASyntaxErrorCountsEveryToken)
{
    obs::enableMetrics(true);
    obs::resetMetrics();
    EXPECT_THROW(hdl::parse("module m(;\nwire w;\nendmodule\n", "f.v"),
                 HdlError);
    uint64_t tokens = obs::counterValue("parser.tokens");
    uint64_t lines = obs::counterValue("parser.lines");
    uint64_t runs = obs::counterValue("parser.runs");
    obs::enableMetrics(false);
    // module m ( ; wire w ; endmodule, then the end of input.
    EXPECT_EQ(tokens, 9u);
    EXPECT_EQ(lines, 4u);
    EXPECT_EQ(runs, 1u);
}

/** 64-bit FNV-1a: the pinned digest of printed text. */
uint64_t
fnv1a(const std::string &text, uint64_t hash = 0xcbf29ce484222325ULL)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * Print @p design, re-parse and re-print it, require the two texts to
 * be equal (a fixpoint) and fold the text into @p digest.
 */
void
expectFixpoint(const hdl::Design &design, const std::string &what,
               uint64_t &digest)
{
    std::string printed = hdl::printDesign(design);
    hdl::Design again = hdl::parse(printed, what);
    EXPECT_TRUE(hdl::designEquals(design, again)) << what;
    EXPECT_EQ(hdl::printDesign(again), printed) << what;
    for (const auto &mod : again.modules)
        EXPECT_EQ(hdl::printModule(*hdl::parse(hdl::printModule(*mod), what)
                                        .modules.front()),
                  hdl::printModule(*mod))
            << what << " module " << mod->name;
    digest = fnv1a(printed, digest);
}

TEST(PrintedTextTest, TestbedVariantsAreAPinnedFixpoint)
{
    uint64_t digest = fnv1a("");
    for (const auto &bug : bugs::testbedBugs()) {
        for (bool buggy : {true, false}) {
            std::map<std::string, std::string> defines;
            if (buggy)
                defines.emplace(bug.bugDefine, "1");
            expectFixpoint(
                hdl::parseWithDefines(bugs::designSource(bug.designName),
                                      defines, bug.designName + ".v"),
                bug.id + (buggy ? " buggy" : " fixed"), digest);
        }
    }
    EXPECT_EQ(digest, 12567068836168611309ULL);
}

TEST(PrintedTextTest, FsmZooIsAPinnedFixpoint)
{
    uint64_t digest = fnv1a("");
    expectFixpoint(hdl::parseWithDefines(bugs::fsmZoo().source, {},
                                         "fsm_zoo.v"),
                   "fsm_zoo", digest);
    EXPECT_EQ(digest, 6968550757764218153ULL);
}

TEST(PrintedTextTest, GeneratedCorpusIsAPinnedFixpoint)
{
    // The 12-design corpus of backend_speedup: every template on.
    fuzz::GeneratorOptions gopts;
    gopts.maxExprDepth = 4;
    gopts.fsmChance = 100;
    gopts.fifoChance = 100;
    gopts.memChance = 100;
    gopts.submoduleChance = 100;
    gopts.displayChance = 30;
    uint64_t digest = fnv1a("");
    for (uint64_t seed = 1; seed <= 12; ++seed)
        expectFixpoint(fuzz::generateDesign(seed, gopts).design,
                       "seed " + std::to_string(seed), digest);
    EXPECT_EQ(digest, 268532886191711334ULL);
}

} // namespace
} // namespace hwdbg
