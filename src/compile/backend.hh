/**
 * @file
 * The compiled bytecode simulation backend.
 *
 * BytecodeBackend lowers the design once at construction, folding
 * nothing and building no static-analysis fact, so construction costs
 * tens of microseconds on a testbed design. It then executes settle
 * passes, clocked processes, and the nonblocking commit queue over a
 * dense word slab. State is reconciled with the
 * shared EvalContext only at the seam's flush/load points, so every
 * tool above the Simulator facade (snapshots, coverage, profiler, the
 * debugger) observes values identical to the interpreter's.
 */

#ifndef HWDBG_COMPILE_BACKEND_HH
#define HWDBG_COMPILE_BACKEND_HH

#include "compile/bytecode.hh"
#include "sim/backend.hh"

namespace hwdbg::compile
{

class BytecodeBackend final : public sim::Backend
{
  public:
    explicit BytecodeBackend(sim::Simulator &sim);

    const char *name() const override { return "bytecode"; }
    void settleComb() override;
    void execClocked(size_t pi) override;
    void commitNba() override;
    void onPoke(int sig) override;
    bool signalBool(int sig) override;
    void flush() override;
    void flushSignal(int sig) override;
    void load() override;
    void exportNba(std::vector<sim::PendingNba> &out) const override;
    void importNba(const std::vector<sim::PendingNba> &in) override;

  private:
    void run(const Program::Chunk &chunk);
    void doStore(const StoreDesc &sd);
    /** applyStore() over the slab: same change detection, coverage,
     *  and toggle side effects as the interpreter's. */
    void applySlab(const sim::StoreTarget &target, const Word *val,
                   uint32_t val_w);
    void loadSignal(int sig);

    Program prog_;
    std::vector<Word> slab_;
    /** Settle snapshot of the slab's state region. */
    std::vector<Word> before_;
    /** Resize buffer for store change detection (max signal words). */
    std::vector<Word> scratch_;

    /** Pending nonblocking writes: targets resolved at push time,
     *  values appended to a word arena (no Bits on the hot path). */
    struct NbaEntry
    {
        sim::StoreTarget target;
        uint32_t off = 0;
        uint32_t width = 0;
    };
    std::vector<NbaEntry> nba_;
    std::vector<Word> nbaWords_;

    bool warnedCombDisplay_ = false;
};

/** Factory handed to Simulator::setBackend / tool options. */
sim::BackendFactory makeBytecodeBackend();

/** Factory for a --backend / backend= name: "interp" (the empty
 *  factory) or "bytecode"; anything else raises an HdlError. */
sim::BackendFactory backendByName(const std::string &name);

} // namespace hwdbg::compile

#endif // HWDBG_COMPILE_BACKEND_HH
