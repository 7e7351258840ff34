#include "hdl/token.hh"

namespace hwdbg::hdl
{

std::string
decodeString(std::string_view body)
{
    std::string out;
    out.reserve(body.size());
    for (size_t i = 0; i < body.size(); ++i) {
        char c = body[i];
        if (c != '\\' || i + 1 == body.size()) {
            out.push_back(c);
            continue;
        }
        switch (char esc = body[++i]) {
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          default: out.push_back(esc); break;
        }
    }
    return out;
}

std::string
tokenText(const Token &tok)
{
    if (tok.kind == TokKind::String)
        return decodeString(tok.text);
    return std::string(tok.text);
}

const char *
tokKindName(TokKind kind)
{
    switch (kind) {
      case TokKind::Eof: return "end of input";
      case TokKind::Ident: return "identifier";
      case TokKind::Number: return "number";
      case TokKind::String: return "string";
      case TokKind::SysName: return "system task";
      case TokKind::KwModule: return "'module'";
      case TokKind::KwEndmodule: return "'endmodule'";
      case TokKind::KwInput: return "'input'";
      case TokKind::KwOutput: return "'output'";
      case TokKind::KwInout: return "'inout'";
      case TokKind::KwWire: return "'wire'";
      case TokKind::KwReg: return "'reg'";
      case TokKind::KwInteger: return "'integer'";
      case TokKind::KwParameter: return "'parameter'";
      case TokKind::KwLocalparam: return "'localparam'";
      case TokKind::KwAssign: return "'assign'";
      case TokKind::KwAlways: return "'always'";
      case TokKind::KwPosedge: return "'posedge'";
      case TokKind::KwNegedge: return "'negedge'";
      case TokKind::KwOr: return "'or'";
      case TokKind::KwBegin: return "'begin'";
      case TokKind::KwEnd: return "'end'";
      case TokKind::KwIf: return "'if'";
      case TokKind::KwElse: return "'else'";
      case TokKind::KwCase: return "'case'";
      case TokKind::KwCasez: return "'casez'";
      case TokKind::KwEndcase: return "'endcase'";
      case TokKind::KwDefault: return "'default'";
      case TokKind::LParen: return "'('";
      case TokKind::RParen: return "')'";
      case TokKind::LBracket: return "'['";
      case TokKind::RBracket: return "']'";
      case TokKind::LBrace: return "'{'";
      case TokKind::RBrace: return "'}'";
      case TokKind::Semi: return "';'";
      case TokKind::Colon: return "':'";
      case TokKind::Comma: return "','";
      case TokKind::Dot: return "'.'";
      case TokKind::Hash: return "'#'";
      case TokKind::At: return "'@'";
      case TokKind::Question: return "'?'";
      case TokKind::Star: return "'*'";
      case TokKind::Plus: return "'+'";
      case TokKind::Minus: return "'-'";
      case TokKind::Slash: return "'/'";
      case TokKind::Percent: return "'%'";
      case TokKind::Amp: return "'&'";
      case TokKind::Pipe: return "'|'";
      case TokKind::Caret: return "'^'";
      case TokKind::Tilde: return "'~'";
      case TokKind::Bang: return "'!'";
      case TokKind::AmpAmp: return "'&&'";
      case TokKind::PipePipe: return "'||'";
      case TokKind::EqEq: return "'=='";
      case TokKind::BangEq: return "'!='";
      case TokKind::Lt: return "'<'";
      case TokKind::LtEq: return "'<='";
      case TokKind::Gt: return "'>'";
      case TokKind::GtEq: return "'>='";
      case TokKind::LtLt: return "'<<'";
      case TokKind::GtGt: return "'>>'";
      case TokKind::Assign: return "'='";
    }
    return "unknown token";
}

} // namespace hwdbg::hdl
