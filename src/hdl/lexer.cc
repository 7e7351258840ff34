#include "hdl/lexer.hh"

#include <array>
#include <cstdint>

#include "common/logging.hh"

namespace hwdbg::hdl
{

namespace
{

/** The keyword spelled @p text, or Ident: one comparison per keyword of
 *  the same length and first letter. */
TokKind
keywordOrIdent(std::string_view text)
{
    auto is = [&](std::string_view word, TokKind kind) {
        return text == word ? kind : TokKind::Ident;
    };
    switch (text.size()) {
      case 2:
        return text[0] == 'i' ? is("if", TokKind::KwIf)
                              : is("or", TokKind::KwOr);
      case 3:
        return text[0] == 'r' ? is("reg", TokKind::KwReg)
                              : is("end", TokKind::KwEnd);
      case 4:
        switch (text[0]) {
          case 'w': return is("wire", TokKind::KwWire);
          case 'e': return is("else", TokKind::KwElse);
          case 'c': return is("case", TokKind::KwCase);
        }
        return TokKind::Ident;
      case 5:
        switch (text[0]) {
          case 'i':
            return text[2] == 'p' ? is("input", TokKind::KwInput)
                                  : is("inout", TokKind::KwInout);
          case 'b': return is("begin", TokKind::KwBegin);
          case 'c': return is("casez", TokKind::KwCasez);
        }
        return TokKind::Ident;
      case 6:
        switch (text[0]) {
          case 'm': return is("module", TokKind::KwModule);
          case 'o': return is("output", TokKind::KwOutput);
          case 'a':
            return text[1] == 's' ? is("assign", TokKind::KwAssign)
                                  : is("always", TokKind::KwAlways);
        }
        return TokKind::Ident;
      case 7:
        switch (text[0]) {
          case 'i': return is("integer", TokKind::KwInteger);
          case 'p': return is("posedge", TokKind::KwPosedge);
          case 'n': return is("negedge", TokKind::KwNegedge);
          case 'e': return is("endcase", TokKind::KwEndcase);
          case 'd': return is("default", TokKind::KwDefault);
        }
        return TokKind::Ident;
      case 9:
        return text[0] == 'e' ? is("endmodule", TokKind::KwEndmodule)
                              : is("parameter", TokKind::KwParameter);
      case 10:
        return is("localparam", TokKind::KwLocalparam);
    }
    return TokKind::Ident;
}

// Character classes, ASCII as <cctype> gives them in the "C" locale.
enum : uint8_t { kDigit = 1, kAlpha = 2, kUnder = 4, kDollar = 8 };

constexpr std::array<uint8_t, 256> kClass = [] {
    std::array<uint8_t, 256> cls{};
    for (int c = '0'; c <= '9'; ++c)
        cls[c] = kDigit;
    for (int c = 'a'; c <= 'z'; ++c)
        cls[c] = cls[c - 'a' + 'A'] = kAlpha;
    cls['_'] = kUnder;
    cls['$'] = kDollar;
    return cls;
}();

bool
isA(char c, uint8_t classes)
{
    return kClass[static_cast<unsigned char>(c)] & classes;
}

} // namespace

Lexer::Lexer(std::string_view source, const std::string &file)
    : src_(source), file_(file)
{
    lex();
}

void
Lexer::skipToEnd()
{
    while (!tok_.is(TokKind::Eof))
        lex();
}

void
Lexer::skipWhile(uint8_t classes)
{
    while (pos_ < src_.size() && isA(src_[pos_], classes))
        ++pos_;
}

void
Lexer::error(const std::string &msg)
{
    failed_ = true;
    fatal("%s:%d:%d: %s", file_.c_str(), line_, col(), msg.c_str());
}

void
Lexer::skipSpaceAndComments()
{
    while (true) {
        char c = at(pos_);
        if (c == ' ' || c == '\t' || c == '\r') {
            ++pos_;
        } else if (c == '\n') {
            newline(pos_++);
        } else if (c == '/' && at(pos_ + 1) == '/') {
            while (at(pos_) != '\n' && at(pos_) != '\0')
                ++pos_;
        } else if (c == '/' && at(pos_ + 1) == '*') {
            pos_ += 2;
            while (!(at(pos_) == '*' && at(pos_ + 1) == '/')) {
                char in = at(pos_);
                if (in == '\0')
                    error("unterminated block comment");
                if (in == '\n')
                    newline(pos_);
                ++pos_;
            }
            pos_ += 2;
        } else {
            return;
        }
    }
}

TokKind
Lexer::lexNumber()
{
    // Leading size digits (or the whole number if no base follows).
    skipWhile(kDigit | kUnder);
    if (at(pos_) == '\'') {
        ++pos_;
        char base = at(pos_);
        if (base != 'b' && base != 'B' && base != 'd' && base != 'D' &&
            base != 'h' && base != 'H' && base != 'o' && base != 'O')
            error("bad literal base");
        ++pos_;
        skipWhile(kDigit | kAlpha | kUnder);
    }
    return TokKind::Number;
}

void
Lexer::lexString()
{
    ++pos_; // opening quote
    size_t body = pos_;
    while (true) {
        char c = at(pos_);
        if (c == '\0' || c == '\n')
            error("unterminated string literal");
        if (c == '"')
            break;
        if (c == '\\') {
            // The escaped character is taken whatever it is.
            if (at(++pos_) == '\n')
                newline(pos_);
        }
        ++pos_;
    }
    tok_.text = src_.substr(body, pos_ - body);
    ++pos_; // closing quote
}

void
Lexer::lex()
{
    skipSpaceAndComments();
    ++count_;
    tok_.line = line_;
    tok_.col = col();
    tok_.text = {};
    size_t start = pos_;
    char c = at(pos_);
    if (c == '\0') {
        tok_.kind = TokKind::Eof;
        return;
    }

    if (isA(c, kDigit) || c == '\'') {
        tok_.kind = lexNumber();
        tok_.text = src_.substr(start, pos_ - start);
        return;
    }

    if (c == '"') {
        tok_.kind = TokKind::String;
        lexString();
        return;
    }

    if (isA(c, kAlpha | kUnder)) {
        skipWhile(kDigit | kAlpha | kUnder | kDollar);
        tok_.text = src_.substr(start, pos_ - start);
        tok_.kind = keywordOrIdent(tok_.text);
        return;
    }

    if (c == '$') {
        ++pos_;
        skipWhile(kDigit | kAlpha | kUnder);
        tok_.text = src_.substr(start, pos_ - start);
        tok_.kind = TokKind::SysName;
        return;
    }

    ++pos_;
    // One or two characters: @p two when @p second follows, else @p one.
    auto either = [&](char second, TokKind two, TokKind one) {
        if (at(pos_) != second)
            return one;
        ++pos_;
        return two;
    };
    switch (c) {
      case '(': tok_.kind = TokKind::LParen; return;
      case ')': tok_.kind = TokKind::RParen; return;
      case '[': tok_.kind = TokKind::LBracket; return;
      case ']': tok_.kind = TokKind::RBracket; return;
      case '{': tok_.kind = TokKind::LBrace; return;
      case '}': tok_.kind = TokKind::RBrace; return;
      case ';': tok_.kind = TokKind::Semi; return;
      case ':': tok_.kind = TokKind::Colon; return;
      case ',': tok_.kind = TokKind::Comma; return;
      case '.': tok_.kind = TokKind::Dot; return;
      case '#': tok_.kind = TokKind::Hash; return;
      case '@': tok_.kind = TokKind::At; return;
      case '?': tok_.kind = TokKind::Question; return;
      case '*': tok_.kind = TokKind::Star; return;
      case '+': tok_.kind = TokKind::Plus; return;
      case '-': tok_.kind = TokKind::Minus; return;
      case '/': tok_.kind = TokKind::Slash; return;
      case '%': tok_.kind = TokKind::Percent; return;
      case '~': tok_.kind = TokKind::Tilde; return;
      case '^': tok_.kind = TokKind::Caret; return;
      case '&':
        tok_.kind = either('&', TokKind::AmpAmp, TokKind::Amp);
        return;
      case '|':
        tok_.kind = either('|', TokKind::PipePipe, TokKind::Pipe);
        return;
      case '!':
        tok_.kind = either('=', TokKind::BangEq, TokKind::Bang);
        return;
      case '=':
        tok_.kind = either('=', TokKind::EqEq, TokKind::Assign);
        return;
      case '<':
        tok_.kind = at(pos_) == '<'
                        ? either('<', TokKind::LtLt, TokKind::Lt)
                        : either('=', TokKind::LtEq, TokKind::Lt);
        return;
      case '>':
        tok_.kind = at(pos_) == '>'
                        ? either('>', TokKind::GtGt, TokKind::Gt)
                        : either('=', TokKind::GtEq, TokKind::Gt);
        return;
      default:
        error(csprintf("unexpected character '%c'", c));
    }
}

} // namespace hwdbg::hdl
