#include "hdl/printer.hh"

#include <cstring>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "common/testhooks.hh"
#include "obs/metrics.hh"

namespace hwdbg::hdl
{

namespace
{

int
precedence(BinaryOp op)
{
    switch (op) {
      case BinaryOp::LogOr: return 1;
      case BinaryOp::LogAnd: return 2;
      case BinaryOp::BitOr: return 3;
      case BinaryOp::BitXor: return 4;
      case BinaryOp::BitAnd: return 5;
      case BinaryOp::Eq:
      case BinaryOp::Ne: return 6;
      case BinaryOp::Lt:
      case BinaryOp::Le:
      case BinaryOp::Gt:
      case BinaryOp::Ge: return 7;
      case BinaryOp::Shl:
      case BinaryOp::Shr: return 8;
      case BinaryOp::Add:
      case BinaryOp::Sub: return 9;
      case BinaryOp::Mul:
      case BinaryOp::Div:
      case BinaryOp::Mod: return 10;
    }
    return 0;
}

const char *
binOpText(BinaryOp op)
{
    switch (op) {
      case BinaryOp::Add: return "+";
      case BinaryOp::Sub: return "-";
      case BinaryOp::Mul: return "*";
      case BinaryOp::Div: return "/";
      case BinaryOp::Mod: return "%";
      case BinaryOp::BitAnd: return "&";
      case BinaryOp::BitOr: return "|";
      case BinaryOp::BitXor: return "^";
      case BinaryOp::LogAnd: return "&&";
      case BinaryOp::LogOr: return "||";
      case BinaryOp::Eq: return "==";
      case BinaryOp::Ne: return "!=";
      case BinaryOp::Lt: return "<";
      case BinaryOp::Le: return "<=";
      case BinaryOp::Gt: return ">";
      case BinaryOp::Ge: return ">=";
      case BinaryOp::Shl:
        return mutationOn(MUT_PRINT_SHL_AS_SHR) ? ">>" : "<<";
      case BinaryOp::Shr: return ">>";
    }
    return "?";
}

const char *
unOpText(UnaryOp op)
{
    switch (op) {
      case UnaryOp::Neg: return "-";
      case UnaryOp::LogNot: return "!";
      case UnaryOp::BitNot: return "~";
      case UnaryOp::RedAnd: return "&";
      case UnaryOp::RedOr: return "|";
      case UnaryOp::RedXor: return "^";
    }
    return "?";
}

void
appendEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          default: out.push_back(c); break;
        }
    }
}

/** Indentation: four spaces a level. */
struct Pad
{
    int indent;
};

/** The one appender behind every print function: each node writes its
 *  text onto the end of one buffer. */
class Printer
{
  public:
    explicit Printer(std::string &out) : out_(out) {}

    void
    expr(const ExprPtr &expr)
    {
        if (!expr)
            panic("printExpr: null expression");
        switch (expr->kind) {
          case ExprKind::Number: {
            const auto *num = expr->as<NumberExpr>();
            if (!num->sized || mutationOn(MUT_PRINT_UNSIZED_NUM))
                num->value.appendDec(out_);
            else
                num->value.appendVerilog(out_);
            return;
          }
          case ExprKind::Id:
            put(expr->as<IdExpr>()->name);
            return;
          case ExprKind::Unary: {
            const auto *un = expr->as<UnaryExpr>();
            bool simple = un->arg && (un->arg->kind == ExprKind::Id ||
                                      un->arg->kind == ExprKind::Number ||
                                      un->arg->kind == ExprKind::Index ||
                                      un->arg->kind == ExprKind::Range ||
                                      un->arg->kind == ExprKind::Concat);
            if (simple)
                put(unOpText(un->op), un->arg);
            else
                put(unOpText(un->op), '(', un->arg, ')');
            return;
          }
          case ExprKind::Binary: {
            const auto *bin = expr->as<BinaryExpr>();
            int prec = precedence(bin->op);
            tight(bin->lhs, prec);
            put(' ', binOpText(bin->op), ' ');
            tight(bin->rhs,
                  mutationOn(MUT_PRINT_DROP_PARENS) ? prec : prec + 1);
            return;
          }
          case ExprKind::Ternary: {
            const auto *tern = expr->as<TernaryExpr>();
            tight(tern->cond, 1);
            put(" ? ");
            tight(tern->thenExpr, 1);
            put(" : ");
            tight(tern->elseExpr, 0);
            return;
          }
          case ExprKind::Concat:
            put('{');
            list(expr->as<ConcatExpr>()->parts);
            put('}');
            return;
          case ExprKind::Repeat: {
            const auto *rep = expr->as<RepeatExpr>();
            put('{', rep->count, '{', rep->inner, "}}");
            return;
          }
          case ExprKind::Index: {
            const auto *idx = expr->as<IndexExpr>();
            put(idx->base, '[', idx->index, ']');
            return;
          }
          case ExprKind::Range: {
            const auto *range = expr->as<RangeExpr>();
            put(range->base, '[', range->msb, ':', range->lsb, ']');
            return;
          }
        }
        put('?');
    }

    void
    stmt(const StmtPtr &stmt, int indent)
    {
        if (!stmt)
            panic("printStmt: null statement");
        Pad pad{indent};
        switch (stmt->kind) {
          case StmtKind::Block:
            put(pad, "begin\n");
            for (const auto &sub : stmt->as<BlockStmt>()->stmts)
                this->stmt(sub, indent + 1);
            put(pad, "end\n");
            return;
          case StmtKind::If: {
            const auto *branch = stmt->as<IfStmt>();
            put(pad, "if (", branch->cond, ")\n");
            this->stmt(branch->thenStmt, indent + 1);
            if (branch->elseStmt) {
                put(pad, "else\n");
                this->stmt(branch->elseStmt, indent + 1);
            }
            return;
          }
          case StmtKind::Case: {
            const auto *sel = stmt->as<CaseStmt>();
            put(pad, sel->isCasez ? "casez (" : "case (", sel->selector,
                ")\n");
            for (const auto &item : sel->items) {
                put(Pad{indent + 1});
                if (item.labels.empty())
                    put("default");
                else
                    list(item.labels);
                put(":\n");
                this->stmt(item.body, indent + 2);
            }
            put(pad, "endcase\n");
            return;
          }
          case StmtKind::Assign: {
            const auto *assign = stmt->as<AssignStmt>();
            put(pad, assign->lhs, assign->nonblocking ? " <= " : " = ",
                assign->rhs, ";\n");
            return;
          }
          case StmtKind::Display: {
            const auto *disp = stmt->as<DisplayStmt>();
            put(pad, "$display(\"");
            appendEscaped(out_, disp->format);
            put('"');
            for (const auto &arg : disp->args)
                put(", ", arg);
            put(");\n");
            return;
          }
          case StmtKind::Finish:
            put(pad, "$finish;\n");
            return;
          case StmtKind::Null:
            put(pad, ";\n");
            return;
        }
    }

    void
    item(const ItemPtr &item, int indent)
    {
        Pad pad{indent};
        switch (item->kind) {
          case ItemKind::Param: {
            const auto *param = item->as<ParamItem>();
            if (param->inHeader)
                return; // printed in the module header
            put(pad, param->isLocal ? "localparam " : "parameter ",
                param->name, " = ", param->value, ";\n");
            return;
          }
          case ItemKind::Net: {
            const auto *net = item->as<NetItem>();
            if (net->dir != PortDir::None)
                return; // printed in the module header (ANSI style)
            put(pad, net->net == NetKind::Reg ? "reg " : "wire ");
            if (net->range)
                put(*net->range, ' ');
            put(net->name);
            if (net->array)
                put(' ', *net->array);
            put(";\n");
            return;
          }
          case ItemKind::ContAssign: {
            const auto *assign = item->as<ContAssignItem>();
            put(pad, "assign ", assign->lhs, " = ", assign->rhs, ";\n");
            return;
          }
          case ItemKind::Always: {
            const auto *always = item->as<AlwaysItem>();
            put(pad, "always @");
            if (always->isComb) {
                put('*');
            } else {
                put('(');
                for (size_t i = 0; i < always->sens.size(); ++i)
                    put(i ? " or " : "",
                        always->sens[i].edge == EdgeKind::Posedge
                            ? "posedge "
                            : "negedge ",
                        always->sens[i].signal);
                put(')');
            }
            put('\n');
            stmt(always->body, indent + 1);
            return;
          }
          case ItemKind::Instance: {
            const auto *inst = item->as<InstanceItem>();
            put(pad, inst->moduleName);
            if (!inst->paramOverrides.empty()) {
                put(" #(");
                for (size_t i = 0; i < inst->paramOverrides.size(); ++i)
                    put(i ? ", " : "", '.', inst->paramOverrides[i].first,
                        '(', inst->paramOverrides[i].second, ')');
                put(')');
            }
            put(' ', inst->instName, " (\n");
            for (size_t i = 0; i < inst->conns.size(); ++i) {
                put(Pad{indent + 1}, '.', inst->conns[i].formal, '(');
                if (inst->conns[i].actual)
                    put(inst->conns[i].actual);
                put(')', i + 1 < inst->conns.size() ? ",\n" : "\n");
            }
            put(pad, ");\n");
            return;
          }
        }
    }

    void
    module(const Module &mod)
    {
        HWDBG_STAT_INC("printer.modules", 1);
        put("module ", mod.name);

        // Header parameters.
        std::vector<const ParamItem *> header_params;
        for (const auto &item : mod.items)
            if (item->kind == ItemKind::Param &&
                item->as<ParamItem>()->inHeader)
                header_params.push_back(item->as<ParamItem>());
        if (!header_params.empty()) {
            put(" #(\n");
            for (size_t i = 0; i < header_params.size(); ++i)
                put(Pad{1}, "parameter ", header_params[i]->name, " = ",
                    header_params[i]->value,
                    i + 1 < header_params.size() ? ",\n" : "\n");
            put(')');
        }

        // ANSI port list.
        put(" (\n");
        for (size_t i = 0; i < mod.ports.size(); ++i) {
            const NetItem *net = mod.findNet(mod.ports[i]);
            if (!net)
                panic("port '%s' of module '%s' has no declaration",
                      mod.ports[i].c_str(), mod.name.c_str());
            put(Pad{1}, net->dir == PortDir::Input ? "input " : "output ",
                net->net == NetKind::Reg ? "reg " : "wire ");
            if (net->range)
                put(*net->range, ' ');
            put(net->name, i + 1 < mod.ports.size() ? ",\n" : "\n");
        }
        put(");\n");

        for (const auto &item : mod.items)
            this->item(item, 1);
        put("endmodule\n");
    }

  private:
    /** Append each piece: text as it is, an expression or range
     *  printed, a Pad as spaces. */
    template <typename... Pieces>
    void
    put(const Pieces &...pieces)
    {
        (piece(pieces), ...);
    }

    void piece(std::string_view text) { out_ += text; }
    void piece(char c) { out_ += c; }
    void piece(const ExprPtr &e) { expr(e); }
    void
    piece(Pad pad)
    {
        out_.append(static_cast<size_t>(pad.indent) * 4, ' ');
    }
    void
    piece(const AstRange &range)
    {
        put('[', range.msb, ':', range.lsb, ']');
    }

    /** Print with parentheses when the context binds tighter. */
    void
    tight(const ExprPtr &expr, int min_prec)
    {
        bool parens = false;
        if (expr && expr->kind == ExprKind::Binary)
            parens = precedence(expr->as<BinaryExpr>()->op) < min_prec;
        else if (expr && expr->kind == ExprKind::Ternary)
            parens = min_prec > 0;
        if (parens)
            put('(', expr, ')');
        else
            this->expr(expr);
    }

    /** Comma-separated expressions. */
    void
    list(const std::vector<ExprPtr> &exprs)
    {
        for (size_t i = 0; i < exprs.size(); ++i)
            put(i ? ", " : "", exprs[i]);
    }

    std::string &out_;
};

} // namespace

std::string
printExpr(const ExprPtr &expr)
{
    std::string out;
    Printer(out).expr(expr);
    return out;
}

std::string
printStmt(const StmtPtr &stmt, int indent)
{
    std::string out;
    Printer(out).stmt(stmt, indent);
    return out;
}

std::string
printItem(const ItemPtr &item, int indent)
{
    std::string out;
    Printer(out).item(item, indent);
    return out;
}

std::string
printModule(const Module &mod)
{
    std::string out;
    Printer(out).module(mod);
    return out;
}

std::string
printDesign(const Design &design)
{
    std::string out;
    Printer printer(out);
    for (size_t i = 0; i < design.modules.size(); ++i) {
        if (i)
            out += '\n';
        printer.module(*design.modules[i]);
    }
    return out;
}

int
countCodeLines(const std::string &text)
{
    int count = 0;
    const char *p = text.data();
    const char *end = p + text.size();
    while (p < end) {
        const char *nl =
            static_cast<const char *>(std::memchr(p, '\n', end - p));
        const char *stop = nl ? nl : end;
        while (p < stop && (*p == ' ' || *p == '\t' || *p == '\r'))
            ++p;
        if (p < stop)
            ++count;
        p = stop + 1;
    }
    return count;
}

} // namespace hwdbg::hdl
