/**
 * @file
 * Known-bits abstract domain over subset-Verilog expressions.
 *
 * A KnownBits value records, per bit position, whether the analysis has
 * proven the bit's two-state value. The evaluator mirrors the width and
 * operator semantics of the cycle simulator / RefEval (context-width
 * propagation, zero extension, unsigned compares) so that any bit the
 * analysis claims is constant really is constant in every simulation.
 * Three-valued guard evaluation (triEval) layers truthiness on top:
 * definitely-false guards kill assignments, everything else survives.
 *
 * Precision is capped at 64 bits; wider expressions evaluate to
 * all-unknown, which is always sound.
 */

#ifndef HWDBG_ANALYZE_DOMAIN_HH
#define HWDBG_ANALYZE_DOMAIN_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hdl/ast.hh"

namespace hwdbg::analyze
{

/** Per-bit constancy facts for one value of @c width bits (<= 64). */
struct KnownBits
{
    uint32_t width = 1;
    /** Bit i of the mask set = bit i of the value is proven. */
    uint64_t known = 0;
    /** Proven bit values; zero where unknown. */
    uint64_t value = 0;

    static uint64_t
    maskOf(uint32_t width)
    {
        return width >= 64 ? ~0ULL : ((1ULL << width) - 1);
    }

    static KnownBits
    unknown(uint32_t width)
    {
        return {width, 0, 0};
    }

    static KnownBits
    constant(uint32_t width, uint64_t value)
    {
        return {width, maskOf(width), value & maskOf(width)};
    }

    bool
    fullyKnown() const
    {
        return (known & maskOf(width)) == maskOf(width);
    }

    bool
    anyKnown() const
    {
        return (known & maskOf(width)) != 0;
    }

    /** Definitely zero in every simulation. */
    bool
    knownZero() const
    {
        return fullyKnown() && value == 0;
    }

    /** Some bit is proven one, so the value is definitely nonzero. */
    bool
    knownNonzero() const
    {
        return (known & value & maskOf(width)) != 0;
    }

    /** Zero-extend or truncate to @p new_width. */
    KnownBits resized(uint32_t new_width) const;
};

/** Lattice join: keep bits proven equal on both sides. */
KnownBits joinKnown(const KnownBits &a, const KnownBits &b);

/** Three-valued truth value. */
enum class Tri { False, True, Unknown };

/**
 * Signal declarations of one elaborated module (where elaboration has
 * already folded every parameter away): widths, kinds, declaration
 * locations and order, computed without mutating the AST.
 */
class SignalTable
{
  public:
    explicit SignalTable(const hdl::Module &mod);

    struct Info
    {
        /** Vector width (memories: element width); 0 when the range
         *  cannot be sized. */
        uint32_t width = 1;
        bool isReg = false;
        bool isArray = false;
        hdl::PortDir dir = hdl::PortDir::None;
        hdl::SourceLoc loc;
    };

    /** Declaration info, or nullptr for unknown names. */
    const Info *find(const std::string &name) const;
    /** Every signal, in name order. */
    const std::map<std::string, Info> &all() const { return sigs_; }
    /** Every signal name, in declaration order. */
    const std::vector<std::string> &order() const { return order_; }

  private:
    std::map<std::string, Info> sigs_;
    std::vector<std::string> order_;
};

/**
 * Value facts per signal. A missing entry (or std::nullopt) is bottom:
 * no fact computed yet, used by the optimistic global fixpoint.
 */
using Env = std::map<std::string, std::optional<KnownBits>>;

/**
 * Self-determined width of @p expr under @p sigs, mirroring
 * RefEval::selfWidth. Returns 0 for expressions it cannot size
 * (unknown identifiers, non-constant part selects).
 */
uint32_t selfWidth(const hdl::ExprPtr &expr, const SignalTable &sigs);

/**
 * Abstract evaluation of @p expr at context width @p ctx_width
 * (0 = self-determined), mirroring RefEval::evalE. Returns std::nullopt
 * (bottom) when a referenced signal has no fact yet in @p env.
 */
std::optional<KnownBits> kbEval(const hdl::ExprPtr &expr,
                                uint32_t ctx_width,
                                const SignalTable &sigs, const Env &env);

/**
 * Three-valued truthiness of @p expr: False only when the expression is
 * proven zero, True only when proven nonzero. Bottom evaluates to
 * std::nullopt.
 */
std::optional<Tri> triEval(const hdl::ExprPtr &expr,
                           const SignalTable &sigs, const Env &env);

} // namespace hwdbg::analyze

#endif // HWDBG_ANALYZE_DOMAIN_HH
