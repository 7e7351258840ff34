/**
 * @file
 * The time-travel debugger engine: deterministic replay + checkpoints
 * over sim::Simulator, with the paper's monitors surfaced as events.
 *
 * The engine owns a simulator over an (optionally instrumented) flat
 * module and a recorded stimulus tape. Execution only ever moves
 * forward by applying tape steps; "backwards" motion restores the
 * nearest checkpoint at or before the target and quietly replays up to
 * it. Because the design is deterministic and the tape captures every
 * poke, a position's state is a pure function of the tape prefix —
 * travelling to the same position always lands in the bit-identical
 * state (the property tests/sim/test_snapshot.cc pins down).
 *
 * Paper-tool integration: instrumentForDebug() chains the FSM Monitor,
 * Dependency Monitor, and LossCheck passes over the design before the
 * engine is built; at run time the engine parses the monitors'
 * $display markers appended by each step into DebugEvents
 * ("fsm:<var>", "dep:<var>", "loss:<reg>") that breakpoints can match
 * (`break event fsm:bus_state`) — the interactive loop the paper's
 * batch tools feed.
 */

#ifndef HWDBG_DEBUG_ENGINE_HH
#define HWDBG_DEBUG_ENGINE_HH

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/losscheck.hh"
#include "debug/breakpoint.hh"
#include "debug/checkpoint.hh"
#include "sim/coverage.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

namespace hwdbg::analysis
{
class DepGraph;
}

namespace hwdbg::debug
{

/** Which paper tools to weave into the debugged design. */
struct InstrumentConfig
{
    bool fsm = false;
    /** Variable for Dependency Monitor (empty = off). */
    std::string depVariable;
    int depCycles = 4;
    std::optional<core::LossCheckOptions> lossCheck;
    /** Elaborated constants; used for symbolic FSM state names. */
    std::map<std::string, Bits> constants;
};

struct InstrumentResult
{
    hdl::ModulePtr module;
    int generatedLines = 0;
};

/** Apply the configured monitors to @p mod (behavior-preserving). */
InstrumentResult instrumentForDebug(const hdl::Module &mod,
                                    const InstrumentConfig &cfg);

/**
 * Parse a stimulus vector file into a tape. Format (documented in
 * DESIGN.md §11): one line per eval step; `#` starts a comment; a lone
 * `-` is a step with no pokes; otherwise whitespace-separated
 * `signal=value` tokens (value is a Verilog literal like 8'hff or a
 * decimal), applied in order before the step's eval.
 */
sim::StimulusTape loadStimulusFile(const std::string &path);

struct EngineOptions
{
    /** Stimulus steps between periodic checkpoints (0 = only the
     *  initial snapshot). */
    uint64_t checkpointInterval = 128;
    size_t checkpointCapacity = 64;
    /** Constants for symbolic state names in event details. */
    std::map<std::string, Bits> constants;
    /** Execution backend (--backend); empty runs the interpreter.
     *  Installed before the initial checkpoint so the whole session —
     *  including time travel — replays on the chosen backend. */
    sim::BackendFactory backend;
    /** Content-addressed checkpoint store shared across sessions (the
     *  serve layer's SnapshotStore); null keeps snapshots private. The
     *  pointee must outlive the engine. */
    SnapshotInterner *snapshots = nullptr;
};

class Engine
{
  public:
    enum class StopReason
    {
        None,       ///< landed exactly where asked
        Breakpoint, ///< a breakpoint/watchpoint/event break fired
        UntilTrue,  ///< run-until condition became true
        EndOfTape,  ///< recorded stimulus exhausted
        Finished,   ///< design executed $finish
    };

    struct StopInfo
    {
        StopReason reason = StopReason::None;
        /** Breakpoint ids that fired on the stopping step. */
        std::vector<int> breakpoints;
        /** Events emitted by the stopping step. */
        std::vector<DebugEvent> events;
    };

    /** Shared-tape form: many sessions replaying the same recorded
     *  stimulus reference one immutable tape (the serve layer's design
     *  cache hands every session the same pointer). */
    Engine(hdl::ModulePtr module,
           std::shared_ptr<const sim::StimulusTape> tape,
           EngineOptions opts = {});
    /** Owning convenience form for single-session use. */
    Engine(hdl::ModulePtr module, sim::StimulusTape tape,
           EngineOptions opts = {});
    ~Engine();

    // ---- execution control -------------------------------------------
    /** Advance @p n primary-clock cycles (breakpoints can stop early). */
    StopInfo stepCycles(uint64_t n);
    /** Run until a breakpoint, $finish, or the end of the tape. */
    StopInfo run();
    /** Run until @p expr_text evaluates true (raises HdlError on a
     *  malformed or unresolvable expression). */
    StopInfo runUntil(const std::string &expr_text);

    // ---- time travel -------------------------------------------------
    /** Travel so the cycle counter reads @p target (restore + replay
     *  when backwards, quiet advance when forwards). */
    StopInfo gotoCycle(uint64_t target);
    /** Travel @p n cycles backwards (clamped at cycle 0). */
    StopInfo reverseStep(uint64_t n);

    // ---- inspection --------------------------------------------------
    uint64_t cycle() const;
    /** Stimulus steps applied so far (the tape position). */
    uint64_t position() const { return pos_; }
    /** Total steps on the recorded stimulus tape. */
    uint64_t tapeSize() const { return tape_->steps.size(); }
    bool atEnd() const { return pos_ >= tape_->steps.size(); }
    bool finished() const;

    /** Evaluate a Verilog expression against current state. */
    Bits evalNow(const std::string &expr_text);

    /** k-cycle dependency chain of @p reg with current values,
     *  sorted by (distance, name) — the `backtrace` command. */
    struct BacktraceEntry
    {
        std::string reg;
        int distance = 0;
        Bits value;
    };
    std::vector<BacktraceEntry> backtrace(const std::string &reg, int k);

    /** Every paper-tool event in the log up to the current position. */
    std::vector<DebugEvent> allEvents() const;
    /** Last @p n $display lines up to the current position. */
    std::vector<sim::EvalContext::LogLine> recentLog(size_t n) const;

    // ---- coverage ----------------------------------------------------
    /**
     * Structural coverage accumulated over the session. Always on:
     * the collector's hooks are cheap, time travel re-marks
     * idempotently (replayed goals are already set), and restoreState
     * re-seeds FSM sampling without fabricating transitions — so the
     * totals are monotone no matter how the user moves through time.
     */
    const sim::CoverageItems &coverageItems() const
    {
        return coverItems_;
    }
    const sim::CoverageCollector &coverage() const { return *cover_; }

    /** Totals now, plus the goals newly covered since the previous
     *  call — the live delta behind the REPL's `cover` command. */
    struct CoverageSummary
    {
        sim::CoverageTotals totals;
        uint64_t newlyCovered = 0;
    };
    CoverageSummary coverageSummary();

    // ---- recording ---------------------------------------------------
    /**
     * Live trace recording over the session's simulator (the REPL's
     * `record` command). Safe under time travel: rows are keyed on the
     * simulator's eval sequence number, so checkpoint restore + replay
     * neither fabricates nor drops a change. recordStop() keeps the
     * capture for recordDump(); recordStart() replaces it.
     */
    void recordStart(const trace::TraceConfig &cfg);
    void recordStop();
    /** Assemble the capture (attached or stopped). */
    trace::TraceDump recordDump() const;
    /** The live/stopped recorder, or null before any record start. */
    const trace::TraceRecorder *recorder() const
    {
        return recorder_.get();
    }
    bool recording() const
    {
        return recorder_ && recorder_->attached();
    }

    BreakpointSet &breakpoints() { return bps_; }
    sim::Simulator &sim() { return sim_; }
    const sim::Simulator &sim() const { return sim_; }
    const CheckpointRing &checkpoints() const { return ring_; }
    /** Steps re-executed by time travel (replay cost so far). */
    uint64_t replayedSteps() const { return replayedSteps_; }

    /** Parse + annotate an expression against this design. */
    hdl::ExprPtr parseExpr(const std::string &expr_text) const;

    /**
     * Add an hgdb-style virtual breakpoint at a source location, with
     * an optional enable condition (empty = unconditional). Resolves
     * (@p file, @p line) against the elaborated design's statement
     * locations; raises HdlError when no executable statement matches.
     * Returns the breakpoint id.
     */
    int addLineBreakpoint(const std::string &file, uint32_t line,
                          const std::string &cond_text);

  private:
    /** Apply the next tape step; returns the events it emitted. */
    std::vector<DebugEvent> stepOnce(bool quiet);
    /** Restore to tape position @p target (< pos_) via checkpoints. */
    void restoreTo(uint64_t target);
    /** Cycle count after @p position steps. */
    uint64_t cycleAtPos(uint64_t position) const;
    std::vector<DebugEvent> eventsFromLog(size_t log_from) const;

    sim::Simulator sim_;
    std::shared_ptr<const sim::StimulusTape> tape_;
    EngineOptions opts_;
    BreakpointSet bps_;
    CheckpointRing ring_;
    sim::CoverageItems coverItems_;
    std::unique_ptr<sim::CoverageCollector> cover_;
    std::unique_ptr<trace::TraceRecorder> recorder_;
    /** covered() at the last coverageSummary() call. */
    uint64_t lastCovered_ = 0;

    /** Tape position: steps applied so far. */
    uint64_t pos_ = 0;
    /** cycleAt_[i] = cycle counter after applying step i (grows on
     *  first visit; replay revisits reproduce the same values). */
    std::vector<uint64_t> cycleAt_;
    uint64_t replayedSteps_ = 0;

    /** Lazily-built dependency graph for backtrace. */
    std::unique_ptr<analysis::DepGraph> depGraph_;
};

const char *stopReasonName(Engine::StopReason reason);

} // namespace hwdbg::debug

#endif // HWDBG_DEBUG_ENGINE_HH
