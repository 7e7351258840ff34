/**
 * @file
 * Abstract syntax tree for the hwdbg Verilog subset.
 *
 * The subset covers the synthesizable constructs used by the bug testbed
 * and by the debugging tools' generated instrumentation: modules with ANSI
 * port lists, parameters/localparams, wire/reg declarations (vectors and
 * memories), continuous assigns, always blocks (edge-triggered and
 * combinational), if/case statements, blocking and nonblocking assignments,
 * $display/$finish system tasks, and module instantiation with named port
 * connections.
 *
 * Nodes are heap-allocated and reference-counted (shared_ptr) so that the
 * instrumentation passes can share subtrees; cloneExpr()/cloneStmt() make
 * deep copies when a pass needs to rewrite a tree.
 */

#ifndef HWDBG_HDL_AST_HH
#define HWDBG_HDL_AST_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.hh"

namespace hwdbg::hdl
{

/**
 * A source file name, interned: every FileName of one spelling points
 * at one stored copy, so copying a SourceLoc copies a pointer. The
 * intern table is global and thread-safe; it keeps each name it has
 * seen for the life of the process.
 */
class FileName
{
  public:
    /** The empty name. */
    FileName();
    FileName(const std::string &name);
    FileName(const char *name) : FileName(std::string(name)) {}

    const std::string &str() const { return *name_; }
    operator const std::string &() const { return *name_; }
    const char *c_str() const { return name_->c_str(); }
    bool empty() const { return name_->empty(); }

    friend bool
    operator==(const FileName &a, const FileName &b)
    {
        return a.name_ == b.name_;
    }
    friend bool
    operator<(const FileName &a, const FileName &b)
    {
        return *a.name_ < *b.name_;
    }

  private:
    const std::string *name_;
};

std::ostream &operator<<(std::ostream &os, const FileName &name);

/** Position of a construct in the original source text. */
struct SourceLoc
{
    FileName file;
    int line = 0;
    int col = 0;

    std::string str() const;
};

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

enum class ExprKind
{
    Number,
    Id,
    Unary,
    Binary,
    Ternary,
    Concat,
    Repeat,
    Index,     ///< x[i]: bit select or memory element select
    Range,     ///< x[msb:lsb]: constant part select
};

enum class UnaryOp
{
    Neg,      ///< -x
    LogNot,   ///< !x
    BitNot,   ///< ~x
    RedAnd,   ///< &x
    RedOr,    ///< |x
    RedXor,   ///< ^x
};

enum class BinaryOp
{
    Add, Sub, Mul, Div, Mod,
    BitAnd, BitOr, BitXor,
    LogAnd, LogOr,
    Eq, Ne, Lt, Le, Gt, Ge,
    Shl, Shr,
};

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

struct Expr
{
    explicit Expr(ExprKind k) : kind(k) {}
    virtual ~Expr() = default;

    ExprKind kind;
    SourceLoc loc;

    /**
     * Self-determined width, filled in by the elaborator's width analysis;
     * 0 means not yet computed.
     */
    uint32_t width = 0;

    template <typename T>
    T *
    as()
    {
        return static_cast<T *>(this);
    }

    template <typename T>
    const T *
    as() const
    {
        return static_cast<const T *>(this);
    }
};

struct NumberExpr : Expr
{
    NumberExpr() : Expr(ExprKind::Number) {}

    Bits value;
    /** True when the literal carried an explicit width (e.g. 8'hff). */
    bool sized = false;
};

struct IdExpr : Expr
{
    IdExpr() : Expr(ExprKind::Id) {}

    std::string name;
    /** Signal table index filled in by sim lowering; -1 = unresolved. */
    int resolved = -1;
};

struct UnaryExpr : Expr
{
    UnaryExpr() : Expr(ExprKind::Unary) {}

    UnaryOp op = UnaryOp::BitNot;
    ExprPtr arg;
};

struct BinaryExpr : Expr
{
    BinaryExpr() : Expr(ExprKind::Binary) {}

    BinaryOp op = BinaryOp::Add;
    ExprPtr lhs;
    ExprPtr rhs;
};

struct TernaryExpr : Expr
{
    TernaryExpr() : Expr(ExprKind::Ternary) {}

    ExprPtr cond;
    ExprPtr thenExpr;
    ExprPtr elseExpr;
};

struct ConcatExpr : Expr
{
    ConcatExpr() : Expr(ExprKind::Concat) {}

    /** Parts in source order: parts[0] is the most significant. */
    std::vector<ExprPtr> parts;
};

struct RepeatExpr : Expr
{
    RepeatExpr() : Expr(ExprKind::Repeat) {}

    ExprPtr count; ///< must elaborate to a constant
    ExprPtr inner;
};

struct IndexExpr : Expr
{
    IndexExpr() : Expr(ExprKind::Index) {}

    std::string base;
    ExprPtr index;
    /** Signal table index filled in by sim lowering; -1 = unresolved. */
    int resolved = -1;
};

struct RangeExpr : Expr
{
    RangeExpr() : Expr(ExprKind::Range) {}

    std::string base;
    ExprPtr msb; ///< must elaborate to a constant
    ExprPtr lsb; ///< must elaborate to a constant
    /** Signal table index filled in by sim lowering; -1 = unresolved. */
    int resolved = -1;
    /** Constant bounds filled in by sim lowering. */
    uint32_t msbConst = 0;
    uint32_t lsbConst = 0;
};

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

enum class StmtKind
{
    Block,
    If,
    Case,
    Assign,   ///< blocking or nonblocking procedural assignment
    Display,
    Finish,
    Null,
};

struct Stmt;
using StmtPtr = std::shared_ptr<Stmt>;

struct Stmt
{
    explicit Stmt(StmtKind k) : kind(k) {}
    virtual ~Stmt() = default;

    StmtKind kind;
    SourceLoc loc;

    /**
     * Statement coverage id assigned by sim::buildCoverageItems(); -1
     * until a coverage table is built over the enclosing design. Ids
     * are deterministic (module-traversal order), so rebuilding the
     * table over the same elaborated module reassigns identical ids.
     */
    int32_t coverId = -1;

    template <typename T>
    T *
    as()
    {
        return static_cast<T *>(this);
    }

    template <typename T>
    const T *
    as() const
    {
        return static_cast<const T *>(this);
    }
};

struct BlockStmt : Stmt
{
    BlockStmt() : Stmt(StmtKind::Block) {}

    std::vector<StmtPtr> stmts;
};

struct IfStmt : Stmt
{
    IfStmt() : Stmt(StmtKind::If) {}

    ExprPtr cond;
    StmtPtr thenStmt;
    StmtPtr elseStmt; ///< may be null
};

struct CaseItem
{
    /** Empty labels means this is the default item. */
    std::vector<ExprPtr> labels;
    StmtPtr body;
};

struct CaseStmt : Stmt
{
    CaseStmt() : Stmt(StmtKind::Case) {}

    ExprPtr selector;
    std::vector<CaseItem> items;
    bool isCasez = false;
};

struct AssignStmt : Stmt
{
    AssignStmt() : Stmt(StmtKind::Assign) {}

    ExprPtr lhs; ///< Id, Index, Range, or Concat of those
    ExprPtr rhs;
    bool nonblocking = true;
};

struct DisplayStmt : Stmt
{
    DisplayStmt() : Stmt(StmtKind::Display) {}

    std::string format;
    std::vector<ExprPtr> args;
};

struct FinishStmt : Stmt
{
    FinishStmt() : Stmt(StmtKind::Finish) {}
};

struct NullStmt : Stmt
{
    NullStmt() : Stmt(StmtKind::Null) {}
};

// ---------------------------------------------------------------------
// Module items
// ---------------------------------------------------------------------

enum class ItemKind
{
    Param,
    Net,
    ContAssign,
    Always,
    Instance,
};

enum class NetKind { Wire, Reg };
enum class PortDir { None, Input, Output };

struct Item;
using ItemPtr = std::shared_ptr<Item>;

struct Item
{
    explicit Item(ItemKind k) : kind(k) {}
    virtual ~Item() = default;

    ItemKind kind;
    SourceLoc loc;

    template <typename T>
    T *
    as()
    {
        return static_cast<T *>(this);
    }

    template <typename T>
    const T *
    as() const
    {
        return static_cast<const T *>(this);
    }
};

struct ParamItem : Item
{
    ParamItem() : Item(ItemKind::Param) {}

    std::string name;
    ExprPtr value;
    bool isLocal = false;     ///< localparam
    bool inHeader = false;    ///< declared in #(...) header
};

/** Optional [msb:lsb] vector or memory bound; exprs must be constant. */
struct AstRange
{
    ExprPtr msb;
    ExprPtr lsb;
};

struct NetItem : Item
{
    NetItem() : Item(ItemKind::Net) {}

    NetKind net = NetKind::Wire;
    PortDir dir = PortDir::None;
    std::string name;
    std::optional<AstRange> range;  ///< vector bounds
    std::optional<AstRange> array;  ///< memory bounds (regs only)
};

struct ContAssignItem : Item
{
    ContAssignItem() : Item(ItemKind::ContAssign) {}

    ExprPtr lhs;
    ExprPtr rhs;
};

enum class EdgeKind { Posedge, Negedge };

struct SensItem
{
    EdgeKind edge = EdgeKind::Posedge;
    std::string signal;
};

struct AlwaysItem : Item
{
    AlwaysItem() : Item(ItemKind::Always) {}

    /** Empty when the block is combinational (always @*). */
    std::vector<SensItem> sens;
    bool isComb = false;
    StmtPtr body;
};

struct PortConn
{
    std::string formal;
    ExprPtr actual; ///< may be null for unconnected ports
};

struct InstanceItem : Item
{
    InstanceItem() : Item(ItemKind::Instance) {}

    std::string moduleName;
    std::string instName;
    std::vector<std::pair<std::string, ExprPtr>> paramOverrides;
    std::vector<PortConn> conns;
};

// ---------------------------------------------------------------------
// Modules and designs
// ---------------------------------------------------------------------

struct Module
{
    std::string name;
    SourceLoc loc;
    /** Port names in declaration order. */
    std::vector<std::string> ports;
    std::vector<ItemPtr> items;

    /** Find the declaration of @p net_name, or nullptr. */
    NetItem *findNet(const std::string &net_name) const;
};

using ModulePtr = std::shared_ptr<Module>;

struct Design
{
    std::vector<ModulePtr> modules;

    ModulePtr findModule(const std::string &name) const;
};

// ---------------------------------------------------------------------
// Construction and traversal helpers
// ---------------------------------------------------------------------

ExprPtr mkNum(const Bits &value, bool sized = true);
ExprPtr mkNum(uint32_t width, uint64_t value);
ExprPtr mkId(const std::string &name);
ExprPtr mkUnary(UnaryOp op, ExprPtr arg);
ExprPtr mkBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr mkTernary(ExprPtr cond, ExprPtr then_e, ExprPtr else_e);

/** !(arg); short-circuits constants and double negation. */
ExprPtr mkNot(ExprPtr arg);
/** lhs && rhs with constant folding of 1'b0/1'b1 operands. */
ExprPtr mkAnd(ExprPtr lhs, ExprPtr rhs);
/** lhs || rhs with constant folding of 1'b0/1'b1 operands. */
ExprPtr mkOr(ExprPtr lhs, ExprPtr rhs);
ExprPtr mkEq(ExprPtr lhs, ExprPtr rhs);
/** The literal 1'b1 / 1'b0. */
ExprPtr mkTrue();
ExprPtr mkFalse();

/** Deep copy. */
ExprPtr cloneExpr(const ExprPtr &expr);
StmtPtr cloneStmt(const StmtPtr &stmt);
ItemPtr cloneItem(const ItemPtr &item);
ModulePtr cloneModule(const Module &mod);

/**
 * Invoke @p fn on every expression of the tree, each node before its
 * operands, by reference: @p fn may replace the node it is given.
 */
void forEachExpr(ExprPtr &expr, const std::function<void(ExprPtr &)> &fn);
void forEachExpr(const StmtPtr &stmt,
                 const std::function<void(ExprPtr &)> &fn);
/** forEachExpr over the module's logic: continuous assigns, process
 *  bodies and instance connections. */
void forEachExpr(const Module &mod,
                 const std::function<void(ExprPtr &)> &fn);

/** Invoke @p fn on every identifier referenced by @p expr (incl. bases). */
void forEachIdent(const ExprPtr &expr,
                  const std::function<void(const std::string &)> &fn);

/** Rename every identifier in the tree via @p map (in place). */
void renameIdents(
    const ExprPtr &expr,
    const std::function<std::string(const std::string &)> &map);
void renameIdents(
    const StmtPtr &stmt,
    const std::function<std::string(const std::string &)> &map);

/** True if the two expressions are structurally identical. */
bool exprEquals(const ExprPtr &a, const ExprPtr &b);

/**
 * Structural equality over statements, items, modules, and designs.
 * Source locations and width annotations are ignored; everything the
 * printer is responsible for reproducing (names, operators, statement
 * shape, port order, declaration order) is compared. The fuzz
 * round-trip oracle uses these to check parse(print(d)) == d.
 */
bool stmtEquals(const StmtPtr &a, const StmtPtr &b);
bool itemEquals(const ItemPtr &a, const ItemPtr &b);
bool moduleEquals(const Module &a, const Module &b);
bool designEquals(const Design &a, const Design &b);

} // namespace hwdbg::hdl

#endif // HWDBG_HDL_AST_HH
