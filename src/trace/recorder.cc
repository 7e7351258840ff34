#include "trace/trace.hh"

#include <algorithm>

#include "common/logging.hh"
#include "hdl/parser.hh"
#include "obs/jsoncheck.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/eval.hh"

namespace hwdbg::trace
{

bool
matchGlob(const std::string &pattern, const std::string &name)
{
    // Iterative wildcard match with single-star backtracking.
    size_t p = 0, n = 0;
    size_t star = std::string::npos, mark = 0;
    while (n < name.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == name[n])) {
            ++p;
            ++n;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = n;
        } else if (star != std::string::npos) {
            p = star + 1;
            n = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

namespace
{

/** Declaration location of @p name in @p design's module, or "". */
std::string
declLoc(const sim::LoweredDesign &design, const std::string &name)
{
    const hdl::NetItem *net = design.module().findNet(name);
    if (!net || !net->loc.line)
        return "";
    return net->loc.str();
}

bool
matchAny(const std::vector<std::string> &patterns,
         const std::string &name)
{
    if (patterns.empty())
        return true;
    for (const auto &pattern : patterns)
        if (matchGlob(pattern, name))
            return true;
    return false;
}

} // namespace

std::vector<TracedSignal>
resolveSignals(const sim::LoweredDesign &design, const TraceConfig &cfg)
{
    std::vector<TracedSignal> out;
    for (size_t i = 0; i < design.numSignals(); ++i) {
        int id = static_cast<int>(i);
        const sim::SignalInfo &sig = design.info(id);
        if (sig.arraySize == 0) {
            if (!matchAny(cfg.signals, sig.name))
                continue;
            out.push_back(TracedSignal{id, -1, sig.name, sig.width,
                                       declLoc(design, sig.name)});
            continue;
        }
        // A memory: the bare name selects every word; an explicit
        // "name[i]" pattern selects single words.
        bool whole = matchAny(cfg.signals, sig.name);
        std::string loc = declLoc(design, sig.name);
        for (uint32_t w = 0; w < sig.arraySize; ++w) {
            std::string word =
                sig.name + "[" + std::to_string(w) + "]";
            if (!whole && !matchAny(cfg.signals, word))
                continue;
            out.push_back(TracedSignal{id, static_cast<int>(w),
                                       std::move(word), sig.width,
                                       loc});
        }
    }
    if (out.empty()) {
        std::string globs;
        for (const auto &pattern : cfg.signals)
            globs += (globs.empty() ? "" : ",") + pattern;
        fatal("trace: no signal matches '%s'", globs.c_str());
    }
    return out;
}

TraceRecorder::TraceRecorder(sim::Simulator &sim,
                             const TraceConfig &cfg)
    : sim_(sim), cfg_(cfg), signals_(resolveSignals(sim.design(), cfg))
{
    // The dump records the budget as a JSON integer, which stays
    // exact only up to 2^53 - 1.
    if (cfg_.budgetBytes > static_cast<uint64_t>(obs::kMaxSafeInteger))
        fatal("trace: budget %llu is above the largest a trace dump "
              "holds (%llu)",
              static_cast<unsigned long long>(cfg_.budgetBytes),
              static_cast<unsigned long long>(obs::kMaxSafeInteger));
    std::string trigger_text = cfg_.trigger;
    if (trigger_text.rfind("change:", 0) == 0) {
        trigChange_ = true;
        trigger_text = trigger_text.substr(7);
    }
    if (!trigger_text.empty()) {
        trig_ = hdl::parseExprText(trigger_text);
        sim_.design().annotateExpr(trig_);
    } else if (trigChange_) {
        fatal("trace: 'change:' trigger needs an expression");
    }

    // Row cost: seq + cycle headers plus each signal's packed bytes —
    // the byte currency the overlay cost model will share.
    rowBytes_ = 16;
    for (const auto &sig : signals_)
        rowBytes_ += (sig.width + 7) / 8;
    depth_ = cfg_.budgetBytes / rowBytes_;
    if (trig_) {
        uint32_t pct = std::min<uint32_t>(cfg_.prePct, 100);
        preDepth_ = depth_ * pct / 100;
        // The post window always keeps the trigger row when there is
        // any capacity at all.
        if (depth_ > 0 && preDepth_ == depth_)
            preDepth_ = depth_ - 1;
        postDepth_ = depth_ - preDepth_;
        state_ = State::Armed;
    } else {
        preDepth_ = depth_;
        postDepth_ = 0;
        state_ = State::Rolling;
    }
    last_.assign(signals_.size(), Bits());
}

TraceRecorder::~TraceRecorder()
{
    if (attached_)
        detach();
}

void
TraceRecorder::attach()
{
    if (attached_)
        return;
    attached_ = true;
    sim_.attach(this);
    HWDBG_STAT_INC("trace.attaches", 1);
}

void
TraceRecorder::detach()
{
    if (!attached_)
        return;
    attached_ = false;
    sim_.detach(this);
}

void
TraceRecorder::readRow(const sim::EvalContext &ctx,
                       std::vector<Bits> *out) const
{
    out->resize(signals_.size());
    for (size_t i = 0; i < signals_.size(); ++i) {
        const TracedSignal &sig = signals_[i];
        (*out)[i] = sig.element < 0
                        ? ctx.values[sig.sig]
                        : ctx.arrays[sig.sig][sig.element];
    }
}

void
TraceRecorder::resync(sim::EvalContext &ctx)
{
    // Behind the frontier: a time-travel restore. The coming replay is
    // deterministic and already recorded; onEval skips it by sequence
    // number, so baselines must stay at the frontier.
    if (ctx.evalSeq < lastSeq_)
        return;
    lastSeq_ = ctx.evalSeq;
    readRow(ctx, &last_);
    if (trig_) {
        if (trigChange_)
            trigLastValue_ = evalExpr(trig_, ctx);
        else
            trigLastBool_ = evalBool(trig_, ctx);
    }
}

void
TraceRecorder::onEval(sim::EvalContext &ctx)
{
    // Replayed eval (time travel): values are reproduced bit-for-bit
    // from the tape, and this row is already in the buffer.
    if (ctx.evalSeq <= lastSeq_)
        return;
    lastSeq_ = ctx.evalSeq;

    // Change detection against the last observed values.
    bool changed = !started_;
    std::vector<Bits> now;
    readRow(ctx, &now);
    if (!changed)
        for (size_t i = 0; i < now.size(); ++i)
            if (now[i] != last_[i]) {
                changed = true;
                break;
            }

    // Trigger edge/change detection runs on every eval, whether or
    // not any traced signal moved.
    if (trig_ && state_ != State::Done) {
        bool fire = false;
        if (trigChange_) {
            Bits value = evalExpr(trig_, ctx);
            fire = started_ && value != trigLastValue_;
            trigLastValue_ = std::move(value);
        } else {
            bool level = evalBool(trig_, ctx);
            fire = !trigLastBool_ && level;
            trigLastBool_ = level;
        }
        if (fire) {
            ++fires_;
            HWDBG_STAT_INC("trace.trigger_fires", 1);
            if (state_ == State::Armed) {
                fired_ = true;
                triggerSeq_ = ctx.evalSeq;
                triggerCycle_ = ctx.cycle;
                postRemaining_ = postDepth_;
                state_ = postRemaining_ ? State::Triggered
                                        : State::Done;
            }
        }
    }

    started_ = true;
    if (!changed)
        return;
    last_ = now;
    ++samples_;
    HWDBG_STAT_INC("trace.samples", 1);

    TraceDump::Row row{ctx.evalSeq, ctx.cycle, std::move(now)};
    switch (state_) {
      case State::Rolling:
      case State::Armed:
        // Bounded history ring: overwriting costs the oldest row. A
        // zero-depth ring (budget below one row) drops everything.
        if (preDepth_ == 0) {
            ++drops_;
            HWDBG_STAT_INC("trace.drops", 1);
            break;
        }
        if (ring_.size() == preDepth_) {
            ring_.pop_front();
            ++drops_;
            HWDBG_STAT_INC("trace.drops", 1);
        }
        ring_.push_back(std::move(row));
        break;
      case State::Triggered:
        post_.push_back(std::move(row));
        if (--postRemaining_ == 0)
            state_ = State::Done;
        break;
      case State::Done:
        ++drops_;
        HWDBG_STAT_INC("trace.drops", 1);
        break;
    }
}

TraceDump
TraceRecorder::dump(const std::string &workload) const
{
    obs::ObsSpan span("trace.dump");
    TraceDump out;
    out.top = sim_.design().module().name;
    out.workload = workload;
    out.backend = sim_.backendName();
    out.config = cfg_;
    out.rowBytes = rowBytes_;
    out.depth = depth_;
    out.preDepth = preDepth_;
    out.postDepth = postDepth_;
    out.armed = trig_ != nullptr;
    out.fired = fired_;
    out.triggerSeq = triggerSeq_;
    out.triggerCycle = triggerCycle_;
    out.triggerFires = fires_;
    out.samples = samples_;
    out.drops = drops_;
    out.signals = signals_;
    out.rows.reserve(ring_.size() + post_.size());
    out.rows.insert(out.rows.end(), ring_.begin(), ring_.end());
    out.rows.insert(out.rows.end(), post_.begin(), post_.end());
    return out;
}

} // namespace hwdbg::trace
