/**
 * @file
 * The coverage snapshot: a self-contained model of one design's
 * coverage, serializable to the versioned hwdbg-cover JSON format.
 *
 * A Snapshot is built either live (from the sim layer's CoverageItems
 * + CoverageCollector after a run) or by parsing a coverage file.
 * Reports and merging operate on the Snapshot, so there is exactly
 * one serialization path and one parse path; the parse path and
 * `hwdbg obscheck` check the file against one schema first.
 *
 * File format (format "hwdbg-cover", version 1):
 *
 *   {"format":"hwdbg-cover","version":1,
 *    "build":{...},                      // provenance of the collector
 *    "design":{"top":...,"fingerprint":"0x..."},
 *    "workloads":[...],                  // sorted, unique
 *    "signals":[{"name","width","scope","rise","fall"}...],
 *    "statements":[{"kind","loc","scope","hit"}...],
 *    "arms":[{"stmt","label","taken"}...],
 *    "fsms":[{"state_var","states","seen","transitions",
 *             "unexpected_states","unexpected_transitions"}...],
 *    "summary":{...}}                    // derived; ignored on parse
 *
 * Bit maps ("rise"/"fall") are hex strings of the packed per-signal
 * bits; 64-bit values (fingerprint, state encodings) are hex strings
 * because JSON numbers cannot carry them exactly.
 *
 * Merging requires equal design fingerprints and is a pure union
 * (bitmap OR, workload/unexpected-set union), which makes it
 * associative, commutative, and idempotent by construction — the
 * property tests/cover/test_cover_json.cc pins down.
 */

#ifndef HWDBG_COVER_SNAPSHOT_HH
#define HWDBG_COVER_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analyze/facts.hh"
#include "obs/json.hh"
#include "sim/coverage.hh"

namespace hwdbg::cover
{

struct Snapshot
{
    /** Provenance of the collector (from the file when parsed). */
    obs::BuildInfo build;
    std::string top;
    uint64_t fingerprint = 0;
    /** Sorted unique workload labels (e.g. "bug:D3", "seed:42"). */
    std::vector<std::string> workloads;

    struct Signal
    {
        std::string name;
        uint32_t width = 1;
        std::string scope;
        /** Bit-packed 0->1 / 1->0 observations, LSB first. */
        std::vector<uint64_t> rise, fall;
    };

    struct Stmt
    {
        std::string kind;
        std::string loc;
        std::string scope;
        bool hit = false;
    };

    struct Arm
    {
        uint32_t stmt = 0;
        std::string label;
        bool taken = false;
    };

    struct FsmTrans
    {
        bool hasFrom = false;
        uint64_t from = 0, to = 0;
        bool seen = false;
    };

    struct Fsm
    {
        std::string stateVar;
        std::vector<uint64_t> states;
        std::vector<bool> seen;
        std::vector<FsmTrans> transitions;
        /** Sorted unique observations outside the declared sets. */
        std::vector<uint64_t> unexpectedStates;
        std::vector<std::pair<uint64_t, uint64_t>>
            unexpectedTransitions;
    };

    std::vector<Signal> signals;
    std::vector<Stmt> statements;
    std::vector<Arm> arms;
    std::vector<Fsm> fsms;

    sim::CoverageTotals totals() const;
};

/** Name of a statement kind as recorded in coverage files. */
const char *stmtKindName(hdl::StmtKind kind);

/** Per-instance-scope rollup of a snapshot, sorted by scope name. */
struct ScopeTotals
{
    std::string scope;
    sim::CoverageTotals totals;
};
std::vector<ScopeTotals> scopeRollups(const Snapshot &snap);

/** "87.5"-style fixed-point percentage (deterministic rendering). */
std::string coverPct(uint64_t covered, uint64_t total);

/** Convert detected FSMs (analyze::Context::fsms()) into sim-layer
 *  coverage specs. */
std::vector<sim::FsmCoverSpec>
fsmSpecs(const std::vector<analyze::FsmInfo> &fsms);

/** fsmSpecs() of the FSMs of @p mod, over a one-off Context (for
 *  benchmark code that composes the coverage layers by hand). */
std::vector<sim::FsmCoverSpec> fsmSpecsFor(const hdl::Module &mod);

/** Capture @p collector's state into a Snapshot. */
Snapshot snapshotFrom(const sim::CoverageItems &items,
                      const sim::CoverageCollector &collector,
                      const std::string &top,
                      const std::string &workload);

/** Serialize (including the derived "summary" section). */
std::string toJson(const Snapshot &snap);

/**
 * Validate a coverage file against its schema, then read it. Returns
 * true on success; on failure sets @p error and leaves @p out
 * unspecified.
 */
bool parseSnapshot(const std::string &text, Snapshot *out,
                   std::string *error);

/** Schema check for `hwdbg obscheck`: "" when valid, else the reason. */
std::string checkCoverageJson(const std::string &text);

/**
 * Union @p src into @p dst. Returns "" on success, else the reason
 * (mismatched fingerprint/shape).
 */
std::string mergeInto(Snapshot &dst, const Snapshot &src);

} // namespace hwdbg::cover

#endif // HWDBG_COVER_SNAPSHOT_HH
