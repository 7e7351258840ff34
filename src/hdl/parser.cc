#include "hdl/parser.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "hdl/lexer.hh"
#include "hdl/preproc.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hwdbg::hdl
{

namespace
{

class Parser
{
  public:
    explicit Parser(Lexer &lexer) : lex_(lexer) {}

    Design
    run()
    {
        Design design;
        while (!peek().is(TokKind::Eof))
            design.modules.push_back(parseModule());
        return design;
    }

  private:
    const Token &peek() const { return lex_.peek(); }
    Token advance() { return lex_.next(); }

    SourceLoc loc(const Token &tok) const { return lex_.loc(tok); }
    SourceLoc here() const { return loc(peek()); }

    bool
    accept(TokKind kind)
    {
        if (peek().is(kind)) {
            advance();
            return true;
        }
        return false;
    }

    Token
    expect(TokKind kind, const char *context)
    {
        if (!peek().is(kind)) {
            const Token &tok = peek();
            fatal("%s: expected %s in %s, found %s '%s'",
                  loc(tok).str().c_str(), tokKindName(kind), context,
                  tokKindName(tok.kind), tokenText(tok).c_str());
        }
        return advance();
    }

    [[noreturn]] void
    tooDeep()
    {
        fatal("%s: nesting deeper than %d", here().str().c_str(),
              kMaxNesting);
    }

    /** One level of nesting for as long as it lives. */
    class Nest
    {
      public:
        explicit Nest(Parser &parser) : parser_(parser)
        {
            if (++parser.depth_ > kMaxNesting)
                parser.tooDeep();
            parser.peak_ = std::max(parser.peak_, parser.depth_);
        }
        ~Nest() { --parser_.depth_; }
        Nest(const Nest &) = delete;
        Nest &operator=(const Nest &) = delete;

      private:
        Parser &parser_;
    };

    [[noreturn]] void
    errorHere(const std::string &msg)
    {
        const Token &tok = peek();
        fatal("%s: %s (found %s '%s')", loc(tok).str().c_str(), msg.c_str(),
              tokKindName(tok.kind), tokenText(tok).c_str());
    }

    // -- Modules ------------------------------------------------------

    ModulePtr
    parseModule()
    {
        Token kw = expect(TokKind::KwModule, "design");
        auto mod = std::make_shared<Module>();
        mod->loc = loc(kw);
        mod->name = expect(TokKind::Ident, "module header").text;

        if (accept(TokKind::Hash)) {
            expect(TokKind::LParen, "parameter header");
            do {
                accept(TokKind::KwParameter);
                auto param = std::make_shared<ParamItem>();
                param->loc = here();
                param->name = expect(TokKind::Ident, "parameter").text;
                expect(TokKind::Assign, "parameter");
                param->value = parseExpr();
                param->inHeader = true;
                mod->items.push_back(std::move(param));
            } while (accept(TokKind::Comma));
            expect(TokKind::RParen, "parameter header");
        }

        expect(TokKind::LParen, "module header");
        if (!peek().is(TokKind::RParen)) {
            PortDir dir = PortDir::None;
            NetKind net = NetKind::Wire;
            do {
                parseAnsiPort(*mod, dir, net);
            } while (accept(TokKind::Comma));
        }
        expect(TokKind::RParen, "module header");
        expect(TokKind::Semi, "module header");

        while (!peek().is(TokKind::KwEndmodule))
            parseItem(*mod);
        expect(TokKind::KwEndmodule, "module");
        return mod;
    }

    void
    parseAnsiPort(Module &mod, PortDir &dir, NetKind &net)
    {
        // Direction/type may be omitted to reuse the previous port's.
        if (accept(TokKind::KwInput)) {
            dir = PortDir::Input;
            net = NetKind::Wire;
        } else if (accept(TokKind::KwOutput)) {
            dir = PortDir::Output;
            net = NetKind::Wire;
        } else if (peek().is(TokKind::KwInout)) {
            errorHere("inout ports are not supported");
        }
        if (accept(TokKind::KwWire))
            net = NetKind::Wire;
        else if (accept(TokKind::KwReg))
            net = NetKind::Reg;
        if (dir == PortDir::None)
            errorHere("port is missing a direction");

        auto decl = std::make_shared<NetItem>();
        decl->loc = here();
        decl->dir = dir;
        decl->net = net;
        if (peek().is(TokKind::LBracket))
            decl->range = parseRangeSpec();
        decl->name = expect(TokKind::Ident, "port declaration").text;
        mod.ports.push_back(decl->name);
        mod.items.push_back(std::move(decl));
    }

    AstRange
    parseRangeSpec()
    {
        expect(TokKind::LBracket, "range");
        AstRange range;
        range.msb = parseExpr();
        expect(TokKind::Colon, "range");
        range.lsb = parseExpr();
        expect(TokKind::RBracket, "range");
        return range;
    }

    void
    parseItem(Module &mod)
    {
        const Token &tok = peek();
        switch (tok.kind) {
          case TokKind::KwParameter:
          case TokKind::KwLocalparam:
            parseParamItem(mod);
            return;
          case TokKind::KwInput:
          case TokKind::KwOutput:
            errorHere("non-ANSI port declarations are not supported");
          case TokKind::KwWire:
          case TokKind::KwReg:
          case TokKind::KwInteger:
            parseNetItem(mod);
            return;
          case TokKind::KwAssign:
            parseContAssign(mod);
            return;
          case TokKind::KwAlways:
            parseAlways(mod);
            return;
          case TokKind::Ident:
            parseInstance(mod);
            return;
          default:
            errorHere("unexpected token in module body");
        }
    }

    void
    parseParamItem(Module &mod)
    {
        bool local = peek().is(TokKind::KwLocalparam);
        advance();
        do {
            auto param = std::make_shared<ParamItem>();
            param->loc = here();
            param->isLocal = local;
            param->name = expect(TokKind::Ident, "parameter").text;
            expect(TokKind::Assign, "parameter");
            param->value = parseExpr();
            mod.items.push_back(std::move(param));
        } while (accept(TokKind::Comma));
        expect(TokKind::Semi, "parameter");
    }

    void
    parseNetItem(Module &mod)
    {
        NetKind net = NetKind::Wire;
        bool is_integer = false;
        if (accept(TokKind::KwReg))
            net = NetKind::Reg;
        else if (accept(TokKind::KwInteger)) {
            net = NetKind::Reg;
            is_integer = true;
        } else {
            expect(TokKind::KwWire, "net declaration");
        }

        std::optional<AstRange> range;
        if (is_integer) {
            range = AstRange{mkNum(32, 31), mkNum(32, 0)};
        } else if (peek().is(TokKind::LBracket)) {
            range = parseRangeSpec();
        }

        do {
            auto decl = std::make_shared<NetItem>();
            decl->loc = here();
            decl->net = net;
            decl->name = expect(TokKind::Ident, "net declaration").text;
            if (range)
                decl->range = AstRange{cloneExpr(range->msb),
                                       cloneExpr(range->lsb)};
            if (peek().is(TokKind::LBracket)) {
                if (net != NetKind::Reg)
                    errorHere("memories must be declared 'reg'");
                decl->array = parseRangeSpec();
            }
            mod.items.push_back(decl);
            if (peek().is(TokKind::Assign)) {
                // wire name = expr; sugar for a continuous assignment.
                if (net == NetKind::Reg)
                    errorHere("reg declarations cannot take "
                              "initializers");
                advance();
                auto assign = std::make_shared<ContAssignItem>();
                assign->loc = decl->loc;
                assign->lhs = mkId(decl->name);
                assign->rhs = parseExpr();
                mod.items.push_back(std::move(assign));
            }
        } while (accept(TokKind::Comma));
        expect(TokKind::Semi, "net declaration");
    }

    void
    parseContAssign(Module &mod)
    {
        Token kw = expect(TokKind::KwAssign, "module body");
        do {
            auto item = std::make_shared<ContAssignItem>();
            item->loc = loc(kw);
            item->lhs = parseLValue();
            expect(TokKind::Assign, "continuous assignment");
            item->rhs = parseExpr();
            mod.items.push_back(std::move(item));
        } while (accept(TokKind::Comma));
        expect(TokKind::Semi, "continuous assignment");
    }

    void
    parseAlways(Module &mod)
    {
        Token kw = expect(TokKind::KwAlways, "module body");
        auto item = std::make_shared<AlwaysItem>();
        item->loc = loc(kw);
        expect(TokKind::At, "always block");

        if (accept(TokKind::Star)) {
            item->isComb = true;
        } else {
            expect(TokKind::LParen, "sensitivity list");
            if (accept(TokKind::Star)) {
                item->isComb = true;
            } else {
                do {
                    SensItem sens;
                    if (accept(TokKind::KwPosedge))
                        sens.edge = EdgeKind::Posedge;
                    else if (accept(TokKind::KwNegedge))
                        sens.edge = EdgeKind::Negedge;
                    else
                        errorHere("expected posedge/negedge (plain "
                                  "signal sensitivity lists: use @*)");
                    sens.signal =
                        expect(TokKind::Ident, "sensitivity list").text;
                    item->sens.push_back(sens);
                } while (accept(TokKind::KwOr) || accept(TokKind::Comma));
            }
            expect(TokKind::RParen, "sensitivity list");
        }

        item->body = parseStmt();
        mod.items.push_back(std::move(item));
    }

    void
    parseInstance(Module &mod)
    {
        auto inst = std::make_shared<InstanceItem>();
        inst->loc = here();
        inst->moduleName = expect(TokKind::Ident, "instantiation").text;

        if (accept(TokKind::Hash)) {
            expect(TokKind::LParen, "parameter overrides");
            do {
                expect(TokKind::Dot, "parameter overrides");
                std::string name(
                    expect(TokKind::Ident, "parameter overrides").text);
                expect(TokKind::LParen, "parameter overrides");
                ExprPtr value = parseExpr();
                expect(TokKind::RParen, "parameter overrides");
                inst->paramOverrides.emplace_back(std::move(name),
                                                  std::move(value));
            } while (accept(TokKind::Comma));
            expect(TokKind::RParen, "parameter overrides");
        }

        inst->instName = expect(TokKind::Ident, "instantiation").text;
        expect(TokKind::LParen, "port connections");
        if (!peek().is(TokKind::RParen)) {
            if (peek().is(TokKind::Dot)) {
                do {
                    expect(TokKind::Dot, "port connections");
                    PortConn conn;
                    conn.formal =
                        expect(TokKind::Ident, "port connections").text;
                    expect(TokKind::LParen, "port connections");
                    if (!peek().is(TokKind::RParen))
                        conn.actual = parseExpr();
                    expect(TokKind::RParen, "port connections");
                    inst->conns.push_back(std::move(conn));
                } while (accept(TokKind::Comma));
            } else {
                // Positional connections; formals resolved at elaboration.
                do {
                    PortConn conn;
                    conn.actual = parseExpr();
                    inst->conns.push_back(std::move(conn));
                } while (accept(TokKind::Comma));
            }
        }
        expect(TokKind::RParen, "port connections");
        expect(TokKind::Semi, "instantiation");
        mod.items.push_back(std::move(inst));
    }

    // -- Statements ---------------------------------------------------

    StmtPtr
    parseStmt()
    {
        Nest nest(*this);
        const Token tok = peek();
        switch (tok.kind) {
          case TokKind::KwBegin: {
            advance();
            auto block = std::make_shared<BlockStmt>();
            block->loc = loc(tok);
            while (!peek().is(TokKind::KwEnd))
                block->stmts.push_back(parseStmt());
            expect(TokKind::KwEnd, "begin/end block");
            return block;
          }
          case TokKind::KwIf: {
            advance();
            auto branch = std::make_shared<IfStmt>();
            branch->loc = loc(tok);
            expect(TokKind::LParen, "if statement");
            branch->cond = parseExpr();
            expect(TokKind::RParen, "if statement");
            branch->thenStmt = parseStmt();
            if (accept(TokKind::KwElse))
                branch->elseStmt = parseStmt();
            return branch;
          }
          case TokKind::KwCase:
          case TokKind::KwCasez: {
            advance();
            auto sel = std::make_shared<CaseStmt>();
            sel->loc = loc(tok);
            sel->isCasez = tok.kind == TokKind::KwCasez;
            expect(TokKind::LParen, "case statement");
            sel->selector = parseExpr();
            expect(TokKind::RParen, "case statement");
            while (!peek().is(TokKind::KwEndcase)) {
                CaseItem item;
                if (accept(TokKind::KwDefault)) {
                    accept(TokKind::Colon);
                } else {
                    do {
                        item.labels.push_back(parseExpr());
                    } while (accept(TokKind::Comma));
                    expect(TokKind::Colon, "case item");
                }
                item.body = parseStmt();
                sel->items.push_back(std::move(item));
            }
            expect(TokKind::KwEndcase, "case statement");
            return sel;
          }
          case TokKind::SysName:
            return parseSystemTask();
          case TokKind::Semi: {
            advance();
            auto null_stmt = std::make_shared<NullStmt>();
            null_stmt->loc = loc(tok);
            return null_stmt;
          }
          case TokKind::Ident:
          case TokKind::LBrace: {
            auto assign = std::make_shared<AssignStmt>();
            assign->loc = loc(tok);
            assign->lhs = parseLValue();
            if (accept(TokKind::LtEq))
                assign->nonblocking = true;
            else if (accept(TokKind::Assign))
                assign->nonblocking = false;
            else
                errorHere("expected '<=' or '=' in assignment");
            assign->rhs = parseExpr();
            expect(TokKind::Semi, "assignment");
            return assign;
          }
          default:
            errorHere("unexpected token in statement");
        }
    }

    StmtPtr
    parseSystemTask()
    {
        Token name = expect(TokKind::SysName, "statement");
        if (name.text == "$finish") {
            if (accept(TokKind::LParen))
                expect(TokKind::RParen, "$finish");
            expect(TokKind::Semi, "$finish");
            auto fin = std::make_shared<FinishStmt>();
            fin->loc = loc(name);
            return fin;
        }
        if (name.text == "$display" || name.text == "$write") {
            auto disp = std::make_shared<DisplayStmt>();
            disp->loc = loc(name);
            expect(TokKind::LParen, "$display");
            disp->format =
                decodeString(expect(TokKind::String, "$display").text);
            while (accept(TokKind::Comma))
                disp->args.push_back(parseExpr());
            expect(TokKind::RParen, "$display");
            expect(TokKind::Semi, "$display");
            return disp;
        }
        fatal("%s: unsupported system task '%s'", loc(name).str().c_str(),
              std::string(name.text).c_str());
    }

    // -- Expressions --------------------------------------------------

    ExprPtr
    parseLValue()
    {
        Nest nest(*this);
        const Token tok = peek();
        if (tok.is(TokKind::LBrace)) {
            advance();
            auto cat = std::make_shared<ConcatExpr>();
            cat->loc = loc(tok);
            do {
                cat->parts.push_back(parseLValue());
            } while (accept(TokKind::Comma));
            expect(TokKind::RBrace, "lvalue concatenation");
            return cat;
        }
        Token name = expect(TokKind::Ident, "lvalue");
        return parsePostfix(name);
    }

    ExprPtr
    parsePostfix(const Token &name)
    {
        if (!peek().is(TokKind::LBracket)) {
            auto id = std::make_shared<IdExpr>();
            id->name = name.text;
            id->loc = loc(name);
            return id;
        }
        advance();
        ExprPtr first = parseExpr();
        if (accept(TokKind::Colon)) {
            auto range = std::make_shared<RangeExpr>();
            range->loc = loc(name);
            range->base = name.text;
            range->msb = std::move(first);
            range->lsb = parseExpr();
            expect(TokKind::RBracket, "part select");
            return range;
        }
        expect(TokKind::RBracket, "bit select");
        auto idx = std::make_shared<IndexExpr>();
        idx->loc = loc(name);
        idx->base = name.text;
        idx->index = std::move(first);
        return idx;
    }

    ExprPtr parseExpr() { return parseTernary(); }

    ExprPtr
    parseTernary()
    {
        Nest nest(*this);
        ExprPtr cond = parseBinary(0);
        if (!accept(TokKind::Question))
            return cond;
        ExprPtr then_e = parseTernary();
        expect(TokKind::Colon, "conditional expression");
        ExprPtr else_e = parseTernary();
        SourceLoc at = cond->loc;
        auto expr = mkTernary(std::move(cond), std::move(then_e),
                              std::move(else_e));
        expr->loc = at;
        return expr;
    }

    struct OpInfo
    {
        BinaryOp op;
        int prec;
    };

    /** Binary operator for the current token, if any. */
    std::optional<OpInfo>
    binaryOp() const
    {
        switch (peek().kind) {
          case TokKind::PipePipe: return OpInfo{BinaryOp::LogOr, 1};
          case TokKind::AmpAmp: return OpInfo{BinaryOp::LogAnd, 2};
          case TokKind::Pipe: return OpInfo{BinaryOp::BitOr, 3};
          case TokKind::Caret: return OpInfo{BinaryOp::BitXor, 4};
          case TokKind::Amp: return OpInfo{BinaryOp::BitAnd, 5};
          case TokKind::EqEq: return OpInfo{BinaryOp::Eq, 6};
          case TokKind::BangEq: return OpInfo{BinaryOp::Ne, 6};
          case TokKind::Lt: return OpInfo{BinaryOp::Lt, 7};
          case TokKind::LtEq: return OpInfo{BinaryOp::Le, 7};
          case TokKind::Gt: return OpInfo{BinaryOp::Gt, 7};
          case TokKind::GtEq: return OpInfo{BinaryOp::Ge, 7};
          case TokKind::LtLt: return OpInfo{BinaryOp::Shl, 8};
          case TokKind::GtGt: return OpInfo{BinaryOp::Shr, 8};
          case TokKind::Plus: return OpInfo{BinaryOp::Add, 9};
          case TokKind::Minus: return OpInfo{BinaryOp::Sub, 9};
          case TokKind::Star: return OpInfo{BinaryOp::Mul, 10};
          case TokKind::Slash: return OpInfo{BinaryOp::Div, 10};
          case TokKind::Percent: return OpInfo{BinaryOp::Mod, 10};
          default: return std::nullopt;
        }
    }

    /**
     * A left-leaning chain a+b+c... is parsed in a loop, yet each
     * operator deepens the tree by one: peak_ carries the height of
     * each operand up so the chain counts against kMaxNesting too.
     */
    ExprPtr
    parseBinary(int min_prec)
    {
        int base = depth_;
        int outer_peak = std::exchange(peak_, depth_);
        ExprPtr lhs = parseUnary();
        int height = peak_ - base;
        while (true) {
            auto info = binaryOp();
            if (!info || info->prec < min_prec)
                break;
            advance();
            peak_ = depth_;
            ExprPtr rhs = parseBinary(info->prec + 1);
            height = std::max(height, peak_ - base) + 1;
            if (base + height > kMaxNesting)
                tooDeep();
            SourceLoc at = lhs->loc;
            lhs = mkBinary(info->op, std::move(lhs), std::move(rhs));
            lhs->loc = at;
        }
        peak_ = std::max(outer_peak, base + height);
        return lhs;
    }

    ExprPtr
    parseUnary()
    {
        const Token tok = peek();
        UnaryOp op;
        switch (tok.kind) {
          case TokKind::Minus: op = UnaryOp::Neg; break;
          case TokKind::Bang: op = UnaryOp::LogNot; break;
          case TokKind::Tilde: op = UnaryOp::BitNot; break;
          case TokKind::Amp: op = UnaryOp::RedAnd; break;
          case TokKind::Pipe: op = UnaryOp::RedOr; break;
          case TokKind::Caret: op = UnaryOp::RedXor; break;
          default:
            return parsePrimary();
        }
        advance();
        Nest nest(*this);
        auto expr = mkUnary(op, parseUnary());
        expr->loc = loc(tok);
        return expr;
    }

    ExprPtr
    parsePrimary()
    {
        const Token tok = peek();
        switch (tok.kind) {
          case TokKind::Number: {
            advance();
            bool sized = false;
            Bits value = Bits::parseVerilog(std::string(tok.text), &sized);
            auto num = mkNum(value, sized);
            num->loc = loc(tok);
            return num;
          }
          case TokKind::Ident: {
            advance();
            return parsePostfix(tok);
          }
          case TokKind::LParen: {
            advance();
            ExprPtr inner = parseExpr();
            expect(TokKind::RParen, "parenthesized expression");
            return inner;
          }
          case TokKind::LBrace: {
            advance();
            ExprPtr first = parseExpr();
            if (peek().is(TokKind::LBrace)) {
                // {count{expr}} replication.
                advance();
                auto rep = std::make_shared<RepeatExpr>();
                rep->loc = loc(tok);
                rep->count = first;
                rep->inner = parseExpr();
                expect(TokKind::RBrace, "replication");
                expect(TokKind::RBrace, "replication");
                return rep;
            }
            auto cat = std::make_shared<ConcatExpr>();
            cat->loc = loc(tok);
            cat->parts.push_back(std::move(first));
            while (accept(TokKind::Comma))
                cat->parts.push_back(parseExpr());
            expect(TokKind::RBrace, "concatenation");
            return cat;
          }
          default:
            errorHere("expected an expression");
        }
    }

    Lexer &lex_;
    /** Nesting levels open now, and the deepest reached by the
     *  expression being measured (see parseBinary). */
    int depth_ = 0;
    int peak_ = 0;
};

} // namespace

Design
parse(const std::string &source, const std::string &file)
{
    obs::ObsSpan span("parse");
    Lexer lexer(source, file);
    auto count = [&] {
        HWDBG_STAT_INC("parser.tokens", lexer.count());
        HWDBG_STAT_INC("parser.lines",
                       1 + std::count(source.begin(), source.end(), '\n'));
        HWDBG_STAT_INC("parser.runs", 1);
    };
    Design design;
    try {
        design = Parser(lexer).run();
    } catch (const HdlError &) {
        // Tokens are lexed as the parser takes them, yet a lexical
        // error anywhere in the input still wins over an earlier
        // syntax error, and a syntax error still counts every token:
        // as when the whole input was lexed before parsing began.
        if (lexer.failed())
            throw;
        lexer.skipToEnd();
        count();
        throw;
    }
    count();
    return design;
}

Design
parseWithDefines(const std::string &source,
                 const std::map<std::string, std::string> &defines,
                 const std::string &file)
{
    std::string preprocessed;
    {
        obs::ObsSpan span("preprocess");
        preprocessed = preprocess(source, defines, file);
    }
    return parse(preprocessed, file);
}

ExprPtr
parseExprText(const std::string &text)
{
    // Wrap the expression in a throwaway module and pull it back out.
    Design design =
        parse("module __expr__();\nwire __x__;\nassign __x__ = (" +
                  text + ");\nendmodule",
              "<expr>");
    for (const auto &item : design.modules[0]->items)
        if (item->kind == ItemKind::ContAssign)
            return item->as<ContAssignItem>()->rhs;
    fatal("failed to parse expression '%s'", text.c_str());
}

} // namespace hwdbg::hdl
