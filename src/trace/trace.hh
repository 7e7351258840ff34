/**
 * @file
 * ILA-style trace recording over the simulator facade.
 *
 * The paper's recording IP captures *the window around an event*
 * instead of a full waveform: a trigger arms a capacity-bounded buffer
 * that keeps pre-trigger history in a ring and then fills a post-trigger
 * window. This subsystem is the software model of that IP:
 *
 *  - TraceConfig names signals by glob over the elaborated design
 *    (vectors and memory words included), a trigger condition over real
 *    Verilog expressions (edge or change semantics, like debugger
 *    breakpoints), and a bytes-of-buffer budget from which the ring
 *    depth is derived — the capture half of a future overlay cost model.
 *  - TraceRecorder is a sim::Observer, so it records identically on
 *    any backend (interp or bytecode), and any number of recorders
 *    record side by side; bench/hook_overhead gates the detached cost.
 *  - Recording is value-change based: an eval contributes a row only
 *    when a traced signal changed (the first observed eval anchors the
 *    dump with a full row).
 *
 * Snapshot/restore safety ("frontier semantics"): rows are keyed on the
 * simulator's monotonic eval sequence number. Time travel restores an
 * older sequence number and deterministically replays the same tape, so
 * replayed evals reproduce already-recorded values bit-for-bit — the
 * recorder skips them instead of double-recording, and resumes at the
 * frontier. Travel can therefore neither fabricate nor drop a change.
 */

#ifndef HWDBG_TRACE_TRACE_HH
#define HWDBG_TRACE_TRACE_HH

#include <deque>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace hwdbg::trace
{

/** What to record: signals, trigger, and a capacity budget. */
struct TraceConfig
{
    /** Glob patterns over elaborated signal names ('*' and '?'); a
     *  bare memory name traces every word as "name[i]". Empty list
     *  means trace everything. */
    std::vector<std::string> signals;

    /** Trigger condition: a Verilog expression over design signals.
     *  Default semantics fire on the rising edge of the condition
     *  (false -> true between evals, like expression breakpoints); a
     *  "change:" prefix fires whenever the expression's value changes.
     *  Empty = no trigger: the ring free-runs and the dump holds the
     *  last `depth` change rows. */
    std::string trigger;

    /** Capacity budget in bytes; ring depth = budget / bytes-per-row.
     *  A budget smaller than one row records nothing (drops count);
     *  one above 2^53 - 1 is refused. */
    uint64_t budgetBytes = 4096;

    /** Percent of the ring reserved for pre-trigger history (the rest
     *  is the post-trigger window, which always keeps at least one row
     *  when the depth allows any). Ignored without a trigger. */
    uint32_t prePct = 50;
};

/** One recorded signal (a scalar/vector, or one word of a memory). */
struct TracedSignal
{
    int sig = -1;
    /** Memory word index; -1 for scalars/vectors. */
    int element = -1;
    /** Display name ("state", "mem[3]"). */
    std::string name;
    uint32_t width = 0;
    /** Declaration source location ("file:line"; empty if unknown). */
    std::string loc;
};

/** A finished capture: geometry, outcome, and the recorded window. */
struct TraceDump
{
    std::string top;
    std::string workload;
    std::string backend;
    TraceConfig config;

    /** Derived geometry. */
    uint64_t rowBytes = 0;
    uint64_t depth = 0;
    uint64_t preDepth = 0;
    uint64_t postDepth = 0;

    /** Trigger outcome. */
    bool armed = false;
    bool fired = false;
    uint64_t triggerSeq = 0;
    uint64_t triggerCycle = 0;
    uint64_t triggerFires = 0;

    /** Change rows observed / rows that fell outside the window. */
    uint64_t samples = 0;
    uint64_t drops = 0;

    std::vector<TracedSignal> signals;

    struct Row
    {
        uint64_t seq = 0;
        uint64_t cycle = 0;
        /** One value per entry of `signals`, same order. */
        std::vector<Bits> values;
    };
    /** The captured window in time order (seq strictly increasing). */
    std::vector<Row> rows;
};

/** Match @p name against a glob pattern ('*' any run, '?' one char). */
bool matchGlob(const std::string &pattern, const std::string &name);

/**
 * Resolve @p cfg's signal globs against @p design. Memory signals
 * expand to one entry per word; a pattern matching the bare memory
 * name selects all words. Results are in design signal order. Raises
 * HdlError when no signal matches.
 */
std::vector<TracedSignal>
resolveSignals(const sim::LoweredDesign &design, const TraceConfig &cfg);

/**
 * The recording engine. Construction resolves the config against the
 * simulator's design (raising HdlError on bad globs or trigger text);
 * attach() hooks the simulator and recording runs until detach() or
 * destruction. dump() may be called attached or detached.
 */
class TraceRecorder : public sim::Observer
{
  public:
    TraceRecorder(sim::Simulator &sim, const TraceConfig &cfg);
    ~TraceRecorder() override;

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** Start recording (attaches to the simulator's observers). */
    void attach();
    /** Stop recording; recorded state is kept for dump(). */
    void detach();
    bool attached() const { return attached_; }

    // sim::Observer
    void onEval(sim::EvalContext &ctx) override;
    void resync(sim::EvalContext &ctx) override;

    /** Assemble the captured window. */
    TraceDump dump(const std::string &workload) const;

    const std::vector<TracedSignal> &signals() const { return signals_; }
    uint64_t rowBytes() const { return rowBytes_; }
    uint64_t depth() const { return depth_; }
    uint64_t samples() const { return samples_; }
    uint64_t drops() const { return drops_; }
    uint64_t triggerFires() const { return fires_; }
    bool triggered() const { return fired_; }

  private:
    enum class State
    {
        Rolling,   ///< no trigger: free-running ring
        Armed,     ///< pre-trigger ring, waiting for the trigger
        Triggered, ///< filling the post-trigger window
        Done       ///< window full; further changes are drops
    };

    void readRow(const sim::EvalContext &ctx,
                 std::vector<Bits> *out) const;

    sim::Simulator &sim_;
    TraceConfig cfg_;
    std::vector<TracedSignal> signals_;

    /** Parsed trigger (null when cfg.trigger is empty). */
    hdl::ExprPtr trig_;
    /** True = fire on any value change; false = rising-edge. */
    bool trigChange_ = false;
    bool trigLastBool_ = false;
    Bits trigLastValue_;

    uint64_t rowBytes_ = 0;
    uint64_t depth_ = 0;
    uint64_t preDepth_ = 0;
    uint64_t postDepth_ = 0;

    State state_ = State::Rolling;
    bool attached_ = false;
    bool started_ = false;
    bool fired_ = false;
    uint64_t lastSeq_ = 0;
    uint64_t triggerSeq_ = 0;
    uint64_t triggerCycle_ = 0;
    uint64_t postRemaining_ = 0;
    uint64_t samples_ = 0;
    uint64_t drops_ = 0;
    uint64_t fires_ = 0;

    /** Last observed value per traced signal (change detection). */
    std::vector<Bits> last_;
    /** Pre-trigger ring (rolling window). */
    std::deque<TraceDump::Row> ring_;
    /** Post-trigger rows, in order. */
    std::vector<TraceDump::Row> post_;
};

} // namespace hwdbg::trace

#endif // HWDBG_TRACE_TRACE_HH
