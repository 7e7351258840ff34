/**
 * @file
 * Coverage instrumentation over the cycle simulator.
 *
 * Coverage is split into a static side and a dynamic side:
 *
 *  - CoverageItems enumerates everything coverable in an elaborated
 *    design: every always-block statement (statement coverage), every
 *    if/case arm (branch coverage), every signal bit (toggle
 *    coverage), and — when FSM specs are supplied — every declared FSM
 *    state and transition. Enumeration is a deterministic traversal of
 *    the module, so ids are stable across runs and across processes:
 *    the same elaborated design always yields the same tables. Ids
 *    are written into Stmt::coverId so the simulator hot path marks
 *    statements with a single array index, no lookup.
 *
 *  - CoverageCollector owns flat bitmaps over those ids. Statement,
 *    arm and store marks come from the backends through the nullable
 *    EvalContext::cover sink, so detached simulation pays one
 *    predictable branch per site; poke toggles and per-eval FSM
 *    sampling come through the simulator's observer list.
 *    bench/hook_overhead keeps both costs honest.
 *
 * The sim layer cannot depend on the analyze layer, so FSM enumeration
 * arrives as plain data (FsmCoverSpec) extracted by the caller from
 * the design's analyze::Context::fsms() (cover::fsmSpecs).
 */

#ifndef HWDBG_SIM_COVERAGE_HH
#define HWDBG_SIM_COVERAGE_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/eval.hh"

namespace hwdbg::sim
{

/** One FSM to cover, as plain data (no analysis dependency). */
struct FsmCoverSpec
{
    /** Elaborated state register name. */
    std::string stateVar;
    /** Declared state encodings, in detection order. */
    std::vector<uint64_t> states;

    struct Transition
    {
        /** False = wildcard source (matches any current state). */
        bool hasFrom = false;
        uint64_t from = 0;
        uint64_t to = 0;
    };
    std::vector<Transition> transitions;

    /** Signal id of stateVar; resolved by buildCoverageItems(). */
    int sig = -1;
};

/**
 * Static coverage tables for one elaborated design. Must outlive any
 * CoverageCollector built over it; building the tables stamps
 * Stmt::coverId into the design's AST.
 */
struct CoverageItems
{
    struct StmtItem
    {
        const hdl::Stmt *stmt = nullptr;
        hdl::StmtKind kind = hdl::StmtKind::Null;
        hdl::SourceLoc loc;
        /** Instance scope ("(top)" for top-level statements). */
        std::string scope;
        /** First arm id for If/Case statements; -1 otherwise. */
        int32_t armBase = -1;
        /** Number of arms (If: 2; Case: items plus implicit no-match). */
        uint32_t armCount = 0;
    };

    struct ArmItem
    {
        uint32_t stmtId = 0;
        /** "then", "else", case labels, "default", or "no match". */
        std::string label;
    };

    struct SignalItem
    {
        int sig = -1;
        std::string name;
        uint32_t width = 1;
        std::string scope;
        /** Offset of this signal's bit 0 in the rise/fall bitmaps. */
        uint32_t bitOffset = 0;
    };

    std::vector<StmtItem> statements;
    std::vector<ArmItem> arms;
    std::vector<SignalItem> signals;
    /** Signal id -> index into signals (every signal is tracked). */
    std::vector<int32_t> sigSlot;
    std::vector<FsmCoverSpec> fsms;
    /** Total tracked bits (rise/fall bitmap length). */
    uint32_t toggleBits = 0;

    /**
     * A fingerprint of the enumeration (counts + FNV over names and
     * locs). Coverage files record it; merging across differing
     * designs is refused.
     */
    uint64_t fingerprint() const;
};

/**
 * Enumerate coverable items over @p design and stamp Stmt::coverId.
 * @p fsms entries with unknown state registers are dropped.
 */
CoverageItems buildCoverageItems(const LoweredDesign &design,
                                 std::vector<FsmCoverSpec> fsms = {});

/** Instance scope of a flattened name ("(top)" when not inside one). */
std::string coverScopeOf(const std::string &name);

/** Aggregate counts over one collector or snapshot. */
struct CoverageTotals
{
    uint64_t stmtTotal = 0, stmtHit = 0;
    uint64_t armTotal = 0, armTaken = 0;
    /** Toggle counts are per direction: 2 goals per tracked bit. */
    uint64_t toggleTotal = 0, toggleHit = 0;
    uint64_t fsmStateTotal = 0, fsmStateHit = 0;
    uint64_t fsmTransTotal = 0, fsmTransHit = 0;

    uint64_t covered() const
    {
        return stmtHit + armTaken + toggleHit + fsmStateHit + fsmTransHit;
    }
    uint64_t total() const
    {
        return stmtTotal + armTotal + toggleTotal + fsmStateTotal +
               fsmTransTotal;
    }
};

/**
 * Dynamic coverage bitmaps plus the mark methods the simulator hot
 * path calls. Marks are idempotent (bit set), so replaying stimulus
 * after a snapshot restore cannot distort coverage.
 */
class CoverageCollector : public Observer
{
  public:
    explicit CoverageCollector(const CoverageItems &items);

    const CoverageItems &items() const { return *items_; }

    /** Statement executed. */
    void
    onStmt(const hdl::Stmt *stmt)
    {
        ++events_;
        int32_t id = stmt->coverId;
        if (id >= 0 && static_cast<uint32_t>(id) < stmtCount_)
        {
            stmtWords_[id >> 6] |= uint64_t(1) << (id & 63);
            if (!execCounts_.empty())
                ++execCounts_[id];
        }
    }

    /** Branch arm @p arm of statement @p stmt chosen. */
    void
    onArm(const hdl::Stmt *stmt, uint32_t arm)
    {
        ++events_;
        int32_t id = stmt->coverId;
        if (id < 0 || static_cast<uint32_t>(id) >= stmtCount_)
            return;
        const auto &item = items_->statements[id];
        if (item.armBase < 0 || arm >= item.armCount)
            return;
        uint32_t a = static_cast<uint32_t>(item.armBase) + arm;
        armWords_[a >> 6] |= uint64_t(1) << (a & 63);
    }

    /** Value-changing store of @p newv over @p oldv on signal @p sig. */
    void onStore(int sig, const Bits &oldv, const Bits &newv);

    /** A poked input toggles like any other store. */
    void onPoke(int sig, const Bits &before, const Bits &after) override
    {
        onStore(sig, before, after);
    }

    /** Sample FSM state registers after the eval settled. */
    void onEval(EvalContext &ctx) override;

    /**
     * Re-seed FSM last-state tracking from current values (attach or
     * snapshot restore). Credits the state currently occupied
     * (idempotent) but records no transition — time travel must not
     * fabricate arcs the design never took.
     */
    void resync(EvalContext &ctx) override;

    /** Mark hook executions so far (the bench overhead currency). */
    uint64_t events() const { return events_; }

    /**
     * Start per-statement execution counting (the signal virtual line
     * breakpoints poll). Idempotent; until enabled the hot path pays
     * one predictable branch per onStmt. Counts are monotonic across
     * snapshot restores — consumers compare deltas, not absolutes.
     */
    void enableStmtCounts()
    {
        if (execCounts_.empty())
            execCounts_.assign(stmtCount_, 0);
    }
    bool stmtCountsEnabled() const { return !execCounts_.empty(); }
    uint64_t stmtExecCount(uint32_t id) const
    {
        return id < execCounts_.size() ? execCounts_[id] : 0;
    }

    bool stmtHit(uint32_t id) const
    {
        return (stmtWords_[id >> 6] >> (id & 63)) & 1;
    }
    bool armTaken(uint32_t id) const
    {
        return (armWords_[id >> 6] >> (id & 63)) & 1;
    }
    bool bitRose(uint32_t bit) const
    {
        return (riseWords_[bit >> 6] >> (bit & 63)) & 1;
    }
    bool bitFell(uint32_t bit) const
    {
        return (fallWords_[bit >> 6] >> (bit & 63)) & 1;
    }

    const std::vector<uint64_t> &stmtWords() const { return stmtWords_; }
    const std::vector<uint64_t> &armWords() const { return armWords_; }
    const std::vector<uint64_t> &riseWords() const { return riseWords_; }
    const std::vector<uint64_t> &fallWords() const { return fallWords_; }

    /** Per-FSM dynamic coverage. */
    struct FsmState
    {
        std::vector<bool> stateSeen;
        std::vector<bool> transSeen;
        /** Encodings observed that no declared state matches. */
        std::set<uint64_t> unexpectedStates;
        /** (from, to) pairs observed that no declared arc matches. */
        std::set<std::pair<uint64_t, uint64_t>> unexpectedTransitions;
    };
    const FsmState &fsmState(size_t idx) const
    {
        return fsms_[idx].state;
    }

    CoverageTotals totals() const;

  private:
    const CoverageItems *items_;
    uint32_t stmtCount_ = 0;
    std::vector<uint64_t> stmtWords_, armWords_, riseWords_, fallWords_;
    /** Per-statement execution counters; empty until enableStmtCounts. */
    std::vector<uint64_t> execCounts_;

    struct FsmRuntime
    {
        int sig = -1;
        bool hasLast = false;
        uint64_t last = 0;
        /** Encoding -> state index. */
        std::map<uint64_t, uint32_t> stateIdx;
        /** (from, to) -> transition index (exact-source arcs). */
        std::map<std::pair<uint64_t, uint64_t>, uint32_t> exactTrans;
        /** to -> transition index (wildcard-source arcs). */
        std::map<uint64_t, uint32_t> wildTrans;
        FsmState state;
    };
    std::vector<FsmRuntime> fsms_;
    uint64_t events_ = 0;

    void observeState(FsmRuntime &fsm, uint64_t cur);
};

} // namespace hwdbg::sim

#endif // HWDBG_SIM_COVERAGE_HH
