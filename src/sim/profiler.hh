/**
 * @file
 * Simulator profiler: attribute simulation cost to design constructs.
 *
 * Two pieces:
 *
 *  - SimCounters: a per-construct counter block the Simulator fills in
 *    while it runs (Simulator::enableProfiling()). Eval counts and
 *    toggle counts are deterministic functions of the stimulus; wall
 *    time per construct is sampled with steady_clock around each
 *    process/assign evaluation (only while profiling — the unprofiled
 *    simulator takes a single branch per construct).
 *
 *  - profileDesign(): the `hwdbg profile` engine. Drives an elaborated
 *    design with the seeded random Stimulus (sim/stimulus.hh) that
 *    `hwdbg cover` and `hwdbg trace` use on bare files, then ranks
 *    processes/always-blocks/assigns by wall
 *    time or eval count and the design's signals by toggle count —
 *    turning "the simulator is slow" into a list of hot constructs
 *    with source locations.
 */

#ifndef HWDBG_SIM_PROFILER_HH
#define HWDBG_SIM_PROFILER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "hdl/ast.hh"
#include "sim/backend.hh"

namespace hwdbg::sim
{

/** Raw per-construct tallies, indexed like the LoweredDesign tables. */
struct SimCounters
{
    std::vector<uint64_t> assignEvals;
    std::vector<uint64_t> combEvals;
    std::vector<uint64_t> clockedEvals;
    std::vector<double> assignNs;
    std::vector<double> combNs;
    std::vector<double> clockedNs;
    /** Value-changing stores per signal id. */
    std::vector<uint64_t> toggles;
    /** settleHist[i] = settle calls that took exactly i iterations
     *  (capped at the vector's last slot). */
    std::vector<uint64_t> settleHist;
    uint64_t settleCalls = 0;
    uint32_t maxSettleDepth = 0;
};

struct ProfileOptions
{
    uint32_t cycles = 2000;
    uint64_t seed = 1;
    enum class Rank { Time, Evals };
    /** Ranking key; Evals is fully deterministic (golden tests). */
    Rank rank = Rank::Time;
    /** Max process rows in the report; 0 = all. */
    uint32_t limit = 20;
    /** Max signal rows in the report; 0 = all. */
    uint32_t signalLimit = 10;
    /** Execution backend (--backend); empty runs the interpreter. The
     *  per-construct counters are backend-independent, so eval/toggle
     *  ranks stay comparable across backends. */
    BackendFactory backend;
};

struct ProfileRow
{
    std::string kind;  ///< "seq", "comb", or "assign"
    std::string label; ///< e.g. "always @(posedge clk) -> state, out"
    std::string loc;   ///< "file:line:col" ("" when unknown)
    uint64_t evals = 0;
    double ms = 0;
    /** Share of the total attributed time, 0..100. */
    double pctTime = 0;
};

struct SignalToggles
{
    std::string name;
    uint64_t toggles = 0;
};

struct ProfileReport
{
    std::string top;
    uint64_t seed = 0;
    uint32_t cyclesRequested = 0;
    uint64_t cyclesRun = 0;
    bool finished = false;
    double wallMs = 0;
    uint64_t settleCalls = 0;
    uint32_t maxSettleDepth = 0;
    /** settle calls by iteration count (index = iterations). */
    std::vector<uint64_t> settleHist;
    /** Every construct, ranked per ProfileOptions::rank. */
    std::vector<ProfileRow> rows;
    /** Signals ranked by toggle count (zero-toggle signals dropped). */
    std::vector<SignalToggles> signals;
};

/** Run the profiling stimulus over @p elaborated and build the report. */
ProfileReport profileDesign(hdl::ModulePtr elaborated,
                            const ProfileOptions &opts);

std::string renderProfileText(const ProfileReport &report,
                              const ProfileOptions &opts);
std::string renderProfileJson(const ProfileReport &report,
                              const ProfileOptions &opts);

} // namespace hwdbg::sim

#endif // HWDBG_SIM_PROFILER_HH
