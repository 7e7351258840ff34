/**
 * @file
 * Behavioral models of the blackbox IPs used by the testbed designs.
 *
 * The paper's designs use vendor IPs that its tools treat as blackboxes
 * with developer-provided dependency models (§5): altsyncram (block RAM),
 * scfifo (single-clock FIFO), dcfifo (dual-clock FIFO). The paper's
 * SignalCat additionally generates instances of a recording IP (Intel
 * SignalTap / Xilinx ILA); hwdbg models that as the signal_recorder
 * primitive. The simulator evaluates these models; the synthesis
 * estimator costs them analytically; the analysis framework uses their
 * port dependency models (see analyze/depgraph and analyze/relations).
 */

#ifndef HWDBG_SIM_PRIMITIVES_HH
#define HWDBG_SIM_PRIMITIVES_HH

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/eval.hh"

namespace hwdbg::sim
{

/** Base class for simulated blackbox IPs. */
class Primitive
{
  public:
    Primitive(const hdl::InstanceItem *inst, const LoweredDesign &design);
    virtual ~Primitive() = default;

    const std::string &name() const { return inst_->instName; }
    const std::string &type() const { return inst_->moduleName; }

    /** Ports that behave as clocks (edge-sampled by the simulator). */
    virtual std::vector<std::string> clockPorts() const = 0;

    /** Called once before simulation; drives initial output values. */
    virtual void reset(EvalContext &ctx) = 0;

    /**
     * Called on the rising edge of @p clock_port. Inputs must be sampled
     * before any state update; outputs are driven post-edge.
     */
    virtual void clockEdge(const std::string &clock_port,
                           EvalContext &ctx) = 0;

    /** Resolved parameter value (fatal when absent and no default). */
    uint64_t param(const std::string &name, int64_t def = -1) const;

    /**
     * Append the dynamic state (queues, memories, capture buffers) to
     * @p out as an opaque blob; the base class has none. Snapshot
     * support: Simulator::saveState() collects one blob per instance.
     */
    virtual void saveState(std::vector<uint8_t> &out) const;

    /**
     * Restore state written by saveState(); @p cursor advances past the
     * consumed bytes (fatal on a truncated blob).
     */
    virtual void restoreState(const uint8_t *&cursor, const uint8_t *end);

  protected:
    bool hasPort(const std::string &formal) const;
    Bits readPort(const std::string &formal, EvalContext &ctx,
                  uint32_t width) const;
    void writePort(const std::string &formal, const Bits &value,
                   EvalContext &ctx) const;

    const hdl::InstanceItem *inst_;
    std::map<std::string, uint64_t> params_;
    std::map<std::string, hdl::ExprPtr> conns_;
};

/** Intel-style single-clock FIFO (normal read mode: q valid after rdreq).
 *
 * Parameters: WIDTH, DEPTH. Ports: clock, sclr, data, wrreq, rdreq, q,
 * empty, full, usedw.
 */
class Scfifo : public Primitive
{
  public:
    Scfifo(const hdl::InstanceItem *inst, const LoweredDesign &design);

    std::vector<std::string> clockPorts() const override;
    void reset(EvalContext &ctx) override;
    void clockEdge(const std::string &clock_port, EvalContext &ctx)
        override;

    size_t occupancy() const { return queue_.size(); }

    void saveState(std::vector<uint8_t> &out) const override;
    void restoreState(const uint8_t *&cursor, const uint8_t *end) override;

  private:
    void driveStatus(EvalContext &ctx);

    uint32_t width_;
    uint32_t depth_;
    std::deque<Bits> queue_;
    Bits qReg_;
};

/** Dual-clock FIFO. Parameters: WIDTH, DEPTH. Ports: wrclk, rdclk, data,
 *  wrreq, rdreq, q, wrfull, rdempty, wrusedw.
 */
class Dcfifo : public Primitive
{
  public:
    Dcfifo(const hdl::InstanceItem *inst, const LoweredDesign &design);

    std::vector<std::string> clockPorts() const override;
    void reset(EvalContext &ctx) override;
    void clockEdge(const std::string &clock_port, EvalContext &ctx)
        override;

    void saveState(std::vector<uint8_t> &out) const override;
    void restoreState(const uint8_t *&cursor, const uint8_t *end) override;

  private:
    uint32_t width_;
    uint32_t depth_;
    std::deque<Bits> queue_;
    Bits qReg_;
};

/** Simple-dual-port block RAM with 1-cycle read latency.
 *
 * Parameters: WIDTH, NUMWORDS. Ports: clock0, wren_a, address_a, data_a,
 * address_b, q_b.
 */
class Altsyncram : public Primitive
{
  public:
    Altsyncram(const hdl::InstanceItem *inst, const LoweredDesign &design);

    std::vector<std::string> clockPorts() const override;
    void reset(EvalContext &ctx) override;
    void clockEdge(const std::string &clock_port, EvalContext &ctx)
        override;

    void saveState(std::vector<uint8_t> &out) const override;
    void restoreState(const uint8_t *&cursor, const uint8_t *end) override;

  private:
    uint32_t width_;
    uint32_t numWords_;
    std::vector<Bits> mem_;
    Bits qReg_;
};

/**
 * Data-recording IP (models Intel SignalTap / Xilinx ILA as used by
 * SignalCat). Captures {cycle, data} whenever valid && arm.
 *
 * Parameters:
 *  - WIDTH, DEPTH: entry width and buffer depth.
 *  - MODE: 0 = capture the first DEPTH entries then stop (post-trigger
 *    window); 1 = ring buffer holding the most recent DEPTH entries
 *    (pre-trigger window, §4.1's "capture a fixed interval before the
 *    user-provided event").
 *
 * Ports: clk, arm (start event, level), valid, data, stop (optional:
 * freezes the buffer permanently once asserted - the stop event).
 */
class SignalRecorder : public Primitive
{
  public:
    struct Entry
    {
        uint64_t cycle;
        Bits data;
    };

    SignalRecorder(const hdl::InstanceItem *inst,
                   const LoweredDesign &design);

    std::vector<std::string> clockPorts() const override;
    void reset(EvalContext &ctx) override;
    void clockEdge(const std::string &clock_port, EvalContext &ctx)
        override;

    /** Captured entries in chronological order (ring mode unrolled). */
    std::vector<Entry> entries() const;
    bool overflowed() const { return overflowed_; }
    bool stopped() const { return stopped_; }
    uint32_t dataWidth() const { return width_; }
    bool ringMode() const { return ring_; }

    void saveState(std::vector<uint8_t> &out) const override;
    void restoreState(const uint8_t *&cursor, const uint8_t *end) override;

  private:
    uint32_t width_;
    uint32_t depth_;
    bool ring_;
    std::vector<Entry> buffer_;
    size_t next_ = 0;
    bool wrappedAround_ = false;
    bool overflowed_ = false;
    bool stopped_ = false;
};

/** Instantiate the model for a primitive instance. */
std::unique_ptr<Primitive> makePrimitive(const hdl::InstanceItem *inst,
                                         const LoweredDesign &design);

} // namespace hwdbg::sim

#endif // HWDBG_SIM_PRIMITIVES_HH
