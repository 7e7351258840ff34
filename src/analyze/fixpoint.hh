/**
 * @file
 * Whole-design known-bits fixpoint.
 *
 * The solver joins every assignment's abstract value into its target
 * signal, worklist-iterating until the environment stabilizes. Guards
 * are evaluated three-valued: a definitely-false guard makes its
 * assignment dead (it contributes nothing, and the const pass reports
 * it); everything else contributes. Registers additionally join their
 * two-state initial value (zero) unless a combinational process
 * provably assigns them on every activation path — that per-process
 * fact comes from the must-assign walk (context.hh).
 *
 * The iteration is optimistic (signals start at bottom, rise
 * monotonically toward all-unknown), so the result is the least — most
 * precise — sound fixpoint of the abstract transfer functions.
 */

#ifndef HWDBG_ANALYZE_FIXPOINT_HH
#define HWDBG_ANALYZE_FIXPOINT_HH

#include <set>
#include <string>
#include <vector>

#include "analyze/domain.hh"
#include "analyze/facts.hh"

namespace hwdbg::analyze
{

/** Fixpoint over a module's assignments (Context::assigns());
 *  the per-assign vectors are indexed like that list. */
struct ConstFixpoint
{
    /** Final facts; a remaining std::nullopt means the signal is part
     *  of a combinational cycle and never settled (treat as unknown). */
    Env env;
    /** Per assign: guard proven false at the fixpoint (dead). */
    std::vector<uint8_t> deadGuard;
    /** Per assign: non-literal guard proven true at the fixpoint. */
    std::vector<uint8_t> trueGuard;
    /** Signals connected to a primitive instance (facts forced to
     *  unknown: the IP may drive them). */
    std::set<std::string> primConnected;

    /** Fact for @p name with bottom widened to all-unknown. */
    KnownBits factOf(const std::string &name,
                     const SignalTable &sigs) const;
};

/** Read it through Context::fixpoint(). */
ConstFixpoint solveConstants(
    const hdl::Module &mod, const SignalTable &sigs,
    const std::vector<GuardedAssign> &assigns,
    const AssignIndex &assignsOf);

} // namespace hwdbg::analyze

#endif // HWDBG_ANALYZE_FIXPOINT_HH
