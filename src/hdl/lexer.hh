/**
 * @file
 * Lexer for the hwdbg Verilog subset.
 */

#ifndef HWDBG_HDL_LEXER_HH
#define HWDBG_HDL_LEXER_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "hdl/ast.hh"
#include "hdl/token.hh"

namespace hwdbg::hdl
{

/**
 * On-demand tokenizer over preprocessed Verilog text: the parser reads
 * one token of lookahead and the lexer produces each token as it is
 * taken, so no token vector is built. Tokens view the text, which must
 * outlive them.
 *
 * Comments (// and block comments) are skipped. Once the end of input
 * (or a NUL byte) is reached, every further token is TokKind::Eof.
 * Errors raise HdlError with file:line:col positions.
 */
class Lexer
{
  public:
    Lexer(std::string_view source, const std::string &file);

    /** The current token. */
    const Token &peek() const { return tok_; }

    /** Move past the current token and return it. */
    Token
    next()
    {
        Token tok = tok_;
        if (!tok_.is(TokKind::Eof))
            lex();
        return tok;
    }

    /** Lex the rest of the input, raising its first lexical error. */
    void skipToEnd();

    /** Tokens produced so far, the end-of-input token included. */
    size_t count() const { return count_; }

    /** True once a lexical error was raised. */
    bool failed() const { return failed_; }

    SourceLoc loc(const Token &tok) const
    {
        return SourceLoc{file_, tok.line, tok.col};
    }

  private:
    char at(size_t pos) const
    {
        return pos < src_.size() ? src_[pos] : '\0';
    }
    /** Advance past characters of the given classes. */
    void skipWhile(uint8_t classes);
    int col() const { return static_cast<int>(pos_ - lineStart_) + 1; }
    void newline(size_t nl_pos)
    {
        ++line_;
        lineStart_ = nl_pos + 1;
    }

    [[noreturn]] void error(const std::string &msg);
    void skipSpaceAndComments();
    void lex();
    TokKind lexNumber();
    void lexString();

    std::string_view src_;
    const FileName file_;
    size_t pos_ = 0;
    int line_ = 1;
    size_t lineStart_ = 0;
    Token tok_;
    size_t count_ = 0;
    bool failed_ = false;
};

} // namespace hwdbg::hdl

#endif // HWDBG_HDL_LEXER_HH
