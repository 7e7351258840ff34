/**
 * @file
 * Rule check entry points, grouped by the module file implementing them.
 * Each function reads facts from the analyze::Context and reports any
 * findings; the context stamps the registry's rule id, severity and
 * subclass on them. The comb-loop rule is analyze::checkCombLoop.
 */

#ifndef HWDBG_LINT_RULES_HH
#define HWDBG_LINT_RULES_HH

#include "analyze/context.hh"

namespace hwdbg::lint
{

using analyze::conjuncts;
using analyze::Context;
using analyze::forEachStmt;
using analyze::mentions;

// rules_style.cc — coding-style rules over process bodies.
void checkIncompleteCase(Context &ctx);
void checkInferredLatch(Context &ctx);
void checkBlockingInSeq(Context &ctx);
void checkNonblockingInComb(Context &ctx);
void checkWidthTruncation(Context &ctx);

// rules_structure.cc — netlist-structure rules.
void checkMultiDriven(Context &ctx);
void checkUndriven(Context &ctx);
void checkUnusedSignal(Context &ctx);
void checkUnusedInput(Context &ctx);
void checkFifoNoBackpressure(Context &ctx);

// rules_state.cc — FSM and state-flag rules.
void checkFsmUnreachable(Context &ctx);
void checkFsmNoExit(Context &ctx);
void checkStickyFlag(Context &ctx);
void checkEnableDeadlock(Context &ctx);

// rules_handshake.cc — valid/ready protocol rules.
void checkHandshakeDrop(Context &ctx);
void checkHandshakeUnstable(Context &ctx);

} // namespace hwdbg::lint

#endif // HWDBG_LINT_RULES_HH
