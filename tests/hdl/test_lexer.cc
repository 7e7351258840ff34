/**
 * @file
 * Tests for the Verilog lexer.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "hdl/lexer.hh"

using namespace hwdbg::hdl;
using hwdbg::HdlError;

namespace
{

/** A lexed token with its text and location copied out of the source. */
struct Lexed
{
    TokKind kind;
    std::string text;
    SourceLoc loc;
};

/** Every token of @p src, end of input included. */
std::vector<Lexed>
tokenize(const std::string &src, const std::string &file = "<input>")
{
    Lexer lexer(src, file);
    std::vector<Lexed> out;
    while (true) {
        Token tok = lexer.next();
        out.push_back({tok.kind, tokenText(tok), lexer.loc(tok)});
        if (tok.is(TokKind::Eof))
            return out;
    }
}

std::vector<TokKind>
kinds(const std::string &src)
{
    std::vector<TokKind> out;
    for (const auto &tok : tokenize(src))
        out.push_back(tok.kind);
    return out;
}

} // namespace

TEST(LexerTest, Keywords)
{
    auto toks = kinds("module endmodule wire reg always begin end");
    std::vector<TokKind> expected = {
        TokKind::KwModule, TokKind::KwEndmodule, TokKind::KwWire,
        TokKind::KwReg, TokKind::KwAlways, TokKind::KwBegin,
        TokKind::KwEnd, TokKind::Eof};
    EXPECT_EQ(toks, expected);
}

TEST(LexerTest, IdentifiersVsKeywords)
{
    auto toks = tokenize("module1 wirex my_reg _x");
    EXPECT_EQ(toks[0].kind, TokKind::Ident);
    EXPECT_EQ(toks[0].text, "module1");
    EXPECT_EQ(toks[1].kind, TokKind::Ident);
    EXPECT_EQ(toks[2].kind, TokKind::Ident);
    EXPECT_EQ(toks[3].kind, TokKind::Ident);
}

TEST(LexerTest, Numbers)
{
    auto toks = tokenize("42 8'hff 4'b1010 12'd99 16'habc_d");
    EXPECT_EQ(toks[0].text, "42");
    EXPECT_EQ(toks[1].text, "8'hff");
    EXPECT_EQ(toks[2].text, "4'b1010");
    EXPECT_EQ(toks[3].text, "12'd99");
    EXPECT_EQ(toks[4].text, "16'habc_d");
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(toks[i].kind, TokKind::Number);
}

TEST(LexerTest, TwoCharOperators)
{
    auto toks = kinds("<= >= == != && || << >>");
    std::vector<TokKind> expected = {
        TokKind::LtEq, TokKind::GtEq, TokKind::EqEq, TokKind::BangEq,
        TokKind::AmpAmp, TokKind::PipePipe, TokKind::LtLt, TokKind::GtGt,
        TokKind::Eof};
    EXPECT_EQ(toks, expected);
}

TEST(LexerTest, LineCommentsSkipped)
{
    auto toks = kinds("wire // comment with module keyword\nreg");
    std::vector<TokKind> expected = {TokKind::KwWire, TokKind::KwReg,
                                     TokKind::Eof};
    EXPECT_EQ(toks, expected);
}

TEST(LexerTest, BlockCommentsSkipped)
{
    auto toks = kinds("wire /* multi\nline\ncomment */ reg");
    std::vector<TokKind> expected = {TokKind::KwWire, TokKind::KwReg,
                                     TokKind::Eof};
    EXPECT_EQ(toks, expected);
}

TEST(LexerTest, StringsWithEscapes)
{
    auto toks = tokenize(R"("hello\nworld \"x\"")");
    ASSERT_EQ(toks[0].kind, TokKind::String);
    EXPECT_EQ(toks[0].text, "hello\nworld \"x\"");
}

TEST(LexerTest, SystemNames)
{
    auto toks = tokenize("$display $finish");
    EXPECT_EQ(toks[0].kind, TokKind::SysName);
    EXPECT_EQ(toks[0].text, "$display");
    EXPECT_EQ(toks[1].text, "$finish");
}

TEST(LexerTest, SourceLocations)
{
    auto toks = tokenize("wire\n  reg", "f.v");
    EXPECT_EQ(toks[0].loc.line, 1);
    EXPECT_EQ(toks[0].loc.col, 1);
    EXPECT_EQ(toks[1].loc.line, 2);
    EXPECT_EQ(toks[1].loc.col, 3);
    EXPECT_EQ(toks[1].loc.file, "f.v");
}

TEST(LexerTest, UnterminatedStringThrows)
{
    EXPECT_THROW(tokenize("\"abc"), HdlError);
}

TEST(LexerTest, UnterminatedBlockCommentThrows)
{
    EXPECT_THROW(tokenize("/* abc"), HdlError);
}

TEST(LexerTest, BadCharacterThrows)
{
    EXPECT_THROW(tokenize("wire \x01"), HdlError);
}
