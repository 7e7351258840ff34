/**
 * @file
 * Token definitions for the hwdbg Verilog-subset lexer.
 */

#ifndef HWDBG_HDL_TOKEN_HH
#define HWDBG_HDL_TOKEN_HH

#include <string>
#include <string_view>

namespace hwdbg::hdl
{

enum class TokKind
{
    Eof,
    Ident,
    Number,   ///< literal text, e.g. "8'hff" or "42"
    String,   ///< string body between the quotes, escapes undecoded
    SysName,  ///< $display, $finish, ... (text includes the '$')

    // Keywords.
    KwModule, KwEndmodule, KwInput, KwOutput, KwInout,
    KwWire, KwReg, KwInteger,
    KwParameter, KwLocalparam,
    KwAssign, KwAlways, KwPosedge, KwNegedge, KwOr,
    KwBegin, KwEnd, KwIf, KwElse,
    KwCase, KwCasez, KwEndcase, KwDefault,

    // Punctuation.
    LParen, RParen, LBracket, RBracket, LBrace, RBrace,
    Semi, Colon, Comma, Dot, Hash, At, Question, Star,

    // Operators.
    Plus, Minus, Slash, Percent,
    Amp, Pipe, Caret, Tilde, Bang,
    AmpAmp, PipePipe,
    EqEq, BangEq, Lt, LtEq, Gt, GtEq,
    LtLt, GtGt,
    Assign,   ///< '='
};

/**
 * One token: a kind and a view into the preprocessed text it was lexed
 * from, which must outlive it. The view spans the lexeme of an
 * identifier, keyword, number or system name and the body of a string
 * literal; it is empty for punctuation, operators and end of input.
 */
struct Token
{
    TokKind kind = TokKind::Eof;
    std::string_view text;
    int line = 0;
    int col = 0;

    bool is(TokKind k) const { return kind == k; }
};

/** A string literal's body with its escapes (\n \t \\ \" \x) resolved. */
std::string decodeString(std::string_view body);

/** The token's text as the AST and diagnostics spell it: the decoded
 *  body of a string literal, the viewed text otherwise. */
std::string tokenText(const Token &tok);

/** Human-readable token kind name (for diagnostics). */
const char *tokKindName(TokKind kind);

} // namespace hwdbg::hdl

#endif // HWDBG_HDL_TOKEN_HH
