/**
 * @file
 * Internal declarations of the analyze passes (one per passes_*.cc).
 */

#ifndef HWDBG_ANALYZE_PASSES_HH
#define HWDBG_ANALYZE_PASSES_HH

namespace hwdbg::analyze
{

class Context;

void passConst(Context &ctx);
void passXinit(Context &ctx);
void passRace(Context &ctx);
void passCdc(Context &ctx);

} // namespace hwdbg::analyze

#endif // HWDBG_ANALYZE_PASSES_HH
