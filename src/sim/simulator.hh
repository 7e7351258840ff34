/**
 * @file
 * Two-state cycle simulator for elaborated designs (Verilator substitute).
 *
 * Usage mirrors Verilator's C++ API: the testbench pokes top-level inputs
 * (including clocks), then calls eval(). eval() settles combinational
 * logic, detects clock edges against the previous eval, executes
 * triggered processes with pre-edge values, commits nonblocking
 * assignments, updates primitives, and re-settles.
 *
 * Execution of design logic is delegated to a pluggable Backend
 * (sim/backend.hh): the AST interpreter is the reference engine and the
 * default; setBackend() swaps in an alternative (e.g. the compiled
 * bytecode backend from src/compile) at any eval() boundary.
 *
 * Semantics (documented deviations from full event-driven Verilog):
 *  - Two-state logic; registers initialize to zero (Verilator default).
 *  - Combinational logic settles by bounded fixpoint iteration; failure
 *    to settle raises HdlError ("combinational loop").
 *  - Clocks must be top-level inputs driven by the testbench.
 *  - $display in combinational processes is ignored (warned once).
 */

#ifndef HWDBG_SIM_SIMULATOR_HH
#define HWDBG_SIM_SIMULATOR_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/backend.hh"
#include "sim/primitives.hh"

namespace hwdbg::sim
{

struct SimCounters;
class CoverageCollector;

/**
 * One eval() step of recorded stimulus: the pokes applied since the
 * previous eval, in poke order (later pokes of the same signal win,
 * exactly as they did live).
 */
struct StimulusStep
{
    std::vector<std::pair<std::string, Bits>> pokes;
};

/**
 * A replayable stimulus recording grouped by eval() call. Applying the
 * steps in order to a freshly-constructed (or snapshot-restored)
 * simulator of the same design reproduces the recorded trajectory
 * bit-for-bit: the design is deterministic and the tape captures every
 * external input.
 */
struct StimulusTape
{
    std::vector<StimulusStep> steps;
    size_t sizeBytes() const;
};

class Simulator;

/**
 * Records every poke()/eval() of a simulator into a StimulusTape, one
 * StimulusStep per eval(), from construction until destruction.
 */
class StimulusRecorder : public Observer
{
  public:
    StimulusRecorder(Simulator &sim, StimulusTape &tape);
    ~StimulusRecorder() override;

    StimulusRecorder(const StimulusRecorder &) = delete;
    StimulusRecorder &operator=(const StimulusRecorder &) = delete;

    void onPoke(int sig, const Bits &before, const Bits &after) override;
    void onEval(EvalContext &ctx) override;
    /** Drops pokes not yet followed by an eval(). */
    void resync(EvalContext &ctx) override;

  private:
    Simulator &sim_;
    StimulusTape &tape_;
    /** Pokes since the last eval(). */
    StimulusStep pending_;
};

/**
 * A complete copy of simulator state at an eval() boundary: signal and
 * memory values, the cycle counter, the $display log, clock-edge
 * detection state, any pending nonblocking assignments, and the opaque
 * per-primitive state blobs (FIFO queues, RAM contents, recorder
 * buffers). restoreState() on the same-design simulator resumes
 * execution as if the intervening evals never happened. Snapshots are
 * backend-independent: a snapshot taken under one backend restores
 * under any other.
 */
struct SimSnapshot
{
    std::vector<Bits> values;
    std::vector<std::vector<Bits>> arrays;
    uint64_t cycle = 0;
    uint64_t evalSeq = 0;
    bool finished = false;
    std::vector<EvalContext::LogLine> log;
    std::map<std::string, bool> prevClocks;
    std::vector<bool> prevPrimClocks;
    bool primaryClockRaw = false;
    using PendingNba = sim::PendingNba;
    std::vector<PendingNba> nba;
    /** Serialized dynamic state, one blob per primitive instance. */
    std::vector<std::vector<uint8_t>> primStates;

    /** Approximate in-memory footprint (the bench/metrics currency). */
    size_t sizeBytes() const;
};

/**
 * FNV-1a 64 over a canonical byte serialization of every snapshot
 * field. Two snapshots hash equal iff they describe the same simulator
 * state, independent of backend, so the serve-layer snapshot store can
 * content-address checkpoints and dedup sessions replaying the same
 * stimulus prefix.
 */
uint64_t snapshotFingerprint(const SimSnapshot &snap);

class Simulator
{
  public:
    /** Build a simulator over an elaborated (flat) module. */
    explicit Simulator(hdl::ModulePtr elaborated);
    ~Simulator();

    /**
     * Attribute eval counts, per-construct wall time, and signal
     * toggles into @p counters (sized here) until detached with
     * nullptr. The unprofiled path costs one branch per construct.
     */
    void enableProfiling(SimCounters *counters);

    /**
     * Mark statement/branch/toggle/FSM coverage into @p collector
     * (built over this design's CoverageItems) until detached with
     * nullptr: sets the per-construct sink (EvalContext::cover) and
     * attaches the collector as an observer for its poke toggles and
     * per-eval FSM sampling.
     */
    void enableCoverage(CoverageCollector *collector);

    /**
     * Add @p observer to the end of the observer list and resync() it
     * from current state, so attaching mid-run observes from here on.
     * Observers attach and detach outside their own callbacks.
     */
    void attach(Observer *observer);
    /** Remove @p observer from the list (no-op when not attached). */
    void detach(Observer *observer);

    /**
     * Replace the execution backend (null factory restores the
     * interpreter). Legal at any eval() boundary: pending nonblocking
     * assignments and all state carry over, so swapping backends
     * mid-run does not perturb the trajectory.
     */
    void setBackend(const BackendFactory &factory);

    /** Identifier of the active backend ("interp", "bytecode"). */
    const char *backendName() const { return backend_->name(); }

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    const LoweredDesign &design() const { return design_; }

    /**
     * The shared evaluation context. Flushes backend-held state first,
     * so callers holding the reference across an eval() (debugger, VCD
     * writer, breakpoints) must re-call between reads — cheap for the
     * interpreter (no-op), a state publish for compiled backends.
     */
    EvalContext &context()
    {
        backend_->flush();
        return ctx_;
    }

    void poke(const std::string &signal, const Bits &value);
    void poke(const std::string &signal, uint64_t value);
    Bits peek(const std::string &signal) const;
    uint64_t peekU64(const std::string &signal) const;
    Bits peekArray(const std::string &signal, uint64_t index) const;

    /** Settle logic and process any clock edges since the last eval. */
    void eval();

    /**
     * Override the execution order of clocked processes within one
     * eval(): triggered processes run in increasing @p order rank
     * instead of declaration order. @p order must be a permutation of
     * 0..N-1 over design().clockedProcs(); an empty vector restores
     * declaration order. Blocking-write visibility and the nonblocking
     * commit order follow the execution order, so permuting it exposes
     * scheduler races (the fuzz Order oracle's probe).
     */
    void setProcessOrder(std::vector<size_t> order);

    /** Replay one recorded step: apply its pokes, then eval(). */
    void applyStep(const StimulusStep &step);

    /** Copy the complete simulator state (checkpoint support). */
    SimSnapshot saveState() const;

    /**
     * Restore a snapshot taken from a simulator of the same design.
     * Deterministic replay of the original stimulus from here
     * reproduces the original trajectory bit-for-bit.
     */
    void restoreState(const SimSnapshot &snap);

    bool finished() const { return ctx_.finished; }

    /**
     * The $display log. Formatting is deferred out of the hot eval
     * loop; this accessor drains (renders) any pending entries first.
     * Logically const: draining changes no simulated state, only
     * materializes text that was already determined.
     */
    const std::vector<EvalContext::LogLine> &log() const
    {
        const_cast<EvalContext &>(ctx_).drainLog();
        return ctx_.log;
    }

    /** Log line count without formatting (pending included). */
    size_t logSize() const { return ctx_.logSize(); }

    /** Number of posedges seen on the primary clock ("clk"). */
    uint64_t cycle() const { return ctx_.cycle; }

    /** Monotonic eval() count (ctx.evalSeq; snapshots restore it). */
    uint64_t evalSeq() const { return ctx_.evalSeq; }

    /** Primitive model by flattened instance name (null if absent). */
    Primitive *primitive(const std::string &inst_name) const;
    /** All primitive models. */
    const std::vector<std::unique_ptr<Primitive>> &primitives() const
    {
        return prims_;
    }

  private:
    friend class Backend;

    void noteSettle(size_t iters, size_t work);
    /** Run the clocked processes in triggered_ and the primitive clock
     *  edges in @p prim_triggered, commit NBAs, and re-settle. */
    void runTriggered(const std::vector<size_t> &prim_triggered);

    hdl::ModulePtr mod_;
    LoweredDesign design_;
    EvalContext ctx_;
    SimCounters *prof_ = nullptr;
    /** Attached observers, in attach order. */
    std::vector<Observer *> observers_;

    std::unique_ptr<Backend> backend_;

    std::vector<std::unique_ptr<Primitive>> prims_;

    /** The clock signals of the clocked processes' sensitivity items,
     *  one slot each, in name order (the snapshot's prevClocks keys). */
    struct ClockSlot
    {
        std::string name;
        int sig;
    };
    std::vector<ClockSlot> clocks_;
    /** Level of each clock slot at the previous eval. */
    std::vector<bool> prevClocks_;
    /** Per sensitivity item: its clock slot and edge. */
    struct SensSlot
    {
        uint32_t slot;
        hdl::EdgeKind edge;
    };
    /** Sensitivity items of clocked process pi: sens_[sensBegin_[pi]]
     *  up to sens_[sensBegin_[pi + 1]]. */
    std::vector<SensSlot> sens_;
    std::vector<uint32_t> sensBegin_;
    /** Per-eval scratch: clock levels now, and triggered processes. */
    std::vector<bool> clockNow_;
    std::vector<size_t> triggered_;
    /** Clock port expressions of primitives: (prim index, port). */
    struct PrimClock
    {
        size_t prim;
        std::string port;
        hdl::ExprPtr expr;
    };
    std::vector<PrimClock> primClocks_;
    std::vector<bool> prevPrimClocks_;
    /** Signals read by primitive clock expressions (flushed pre-read). */
    std::vector<int> primClockSigs_;

    /** Execution rank per clocked process; empty = declaration order. */
    std::vector<size_t> procOrder_;

    int primaryClockId_ = -1;
    /** Clock slot of the primary clock, or -1 when it drives no
     *  process. */
    int primaryClockSlot_ = -1;
    /** Last seen level of the primary clock when it drives no process. */
    bool primaryClockRaw_ = false;
};

} // namespace hwdbg::sim

#endif // HWDBG_SIM_SIMULATOR_HH
