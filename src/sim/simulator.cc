#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "sim/coverage.hh"
#include "sim/profiler.hh"

namespace hwdbg::sim
{

using namespace hdl;

Simulator::Simulator(ModulePtr elaborated)
    : mod_(std::move(elaborated)), design_(mod_), ctx_(design_)
{
    for (const auto *inst : design_.prims()) {
        prims_.push_back(makePrimitive(inst, design_));
        Primitive *prim = prims_.back().get();
        for (const auto &port : prim->clockPorts()) {
            for (const auto &conn : inst->conns) {
                if (conn.formal == port && conn.actual) {
                    primClocks_.push_back(
                        PrimClock{prims_.size() - 1, port, conn.actual});
                }
            }
        }
    }
    prevPrimClocks_.assign(primClocks_.size(), false);
    for (const auto &pc : primClocks_)
        forEachIdent(pc.expr, [&](const std::string &name) {
            primClockSigs_.push_back(design_.requireSignal(name));
        });
    std::sort(primClockSigs_.begin(), primClockSigs_.end());
    primClockSigs_.erase(std::unique(primClockSigs_.begin(),
                                     primClockSigs_.end()),
                         primClockSigs_.end());

    std::vector<std::string> names;
    for (const auto *proc : design_.clockedProcs())
        for (const auto &sens : proc->sens)
            names.push_back(sens.signal);
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    for (const auto &name : names)
        clocks_.push_back(ClockSlot{name, design_.requireSignal(name)});
    prevClocks_.assign(clocks_.size(), false);
    clockNow_.assign(clocks_.size(), false);
    for (const auto *proc : design_.clockedProcs()) {
        sensBegin_.push_back(static_cast<uint32_t>(sens_.size()));
        for (const auto &sens : proc->sens) {
            auto at = std::lower_bound(names.begin(), names.end(),
                                       sens.signal);
            sens_.push_back(SensSlot{
                static_cast<uint32_t>(at - names.begin()), sens.edge});
        }
    }
    sensBegin_.push_back(static_cast<uint32_t>(sens_.size()));

    primaryClockId_ = design_.signalId("clk");
    auto clk = std::lower_bound(names.begin(), names.end(), "clk");
    if (clk != names.end() && *clk == "clk")
        primaryClockSlot_ = static_cast<int>(clk - names.begin());

    backend_ = std::make_unique<InterpBackend>(*this);

    for (auto &prim : prims_)
        prim->reset(ctx_);
    backend_->settleComb();

    // Seed edge detection with the clock expressions' actual initial
    // values: a primitive clocked on an inverting expression (e.g.
    // ~clk, as SignalCat generates for negedge displays) starts with
    // the expression already high, and a blanket "previously low"
    // assumption would manufacture a phantom first edge.
    for (size_t i = 0; i < primClocks_.size(); ++i)
        prevPrimClocks_[i] =
            !evalExpr(primClocks_[i].expr, ctx_).isZero();
}

Simulator::~Simulator() = default;

namespace
{

/** In-memory footprint of a Bits value (words + width header). */
size_t
bitsBytes(const Bits &bits)
{
    return 8 + ((bits.width() + 63) / 64) * 8;
}

} // namespace

size_t
StimulusTape::sizeBytes() const
{
    size_t total = sizeof(*this);
    for (const auto &step : steps) {
        total += sizeof(step);
        for (const auto &[name, value] : step.pokes)
            total += name.size() + bitsBytes(value);
    }
    return total;
}

size_t
SimSnapshot::sizeBytes() const
{
    size_t total = sizeof(*this);
    for (const auto &value : values)
        total += bitsBytes(value);
    for (const auto &array : arrays)
        for (const auto &element : array)
            total += bitsBytes(element);
    for (const auto &line : log)
        total += sizeof(line) + line.text.size();
    for (const auto &[name, level] : prevClocks)
        total += name.size() + sizeof(level);
    total += prevPrimClocks.size() / 8 + 1;
    for (const auto &write : nba)
        total += sizeof(write.target) + bitsBytes(write.value);
    for (const auto &blob : primStates)
        total += blob.size();
    return total;
}

namespace
{

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void
fnvBytes(uint64_t &h, const void *data, size_t len)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

void
fnvU64(uint64_t &h, uint64_t v)
{
    fnvBytes(h, &v, sizeof(v));
}

void
fnvStr(uint64_t &h, const std::string &s)
{
    fnvU64(h, s.size());
    fnvBytes(h, s.data(), s.size());
}

void
fnvBits(uint64_t &h, const Bits &bits)
{
    fnvU64(h, bits.width());
    fnvBytes(h, bits.rawWords(), bits.numWords() * sizeof(uint64_t));
}

} // namespace

uint64_t
snapshotFingerprint(const SimSnapshot &snap)
{
    uint64_t h = kFnvOffset;
    fnvU64(h, snap.values.size());
    for (const auto &value : snap.values)
        fnvBits(h, value);
    fnvU64(h, snap.arrays.size());
    for (const auto &array : snap.arrays) {
        fnvU64(h, array.size());
        for (const auto &element : array)
            fnvBits(h, element);
    }
    fnvU64(h, snap.cycle);
    fnvU64(h, snap.evalSeq);
    fnvU64(h, snap.finished ? 1 : 0);
    fnvU64(h, snap.log.size());
    for (const auto &line : snap.log) {
        fnvU64(h, line.cycle);
        fnvStr(h, line.text);
    }
    fnvU64(h, snap.prevClocks.size());
    for (const auto &[name, level] : snap.prevClocks) {
        fnvStr(h, name);
        fnvU64(h, level ? 1 : 0);
    }
    fnvU64(h, snap.prevPrimClocks.size());
    for (bool level : snap.prevPrimClocks)
        fnvU64(h, level ? 1 : 0);
    fnvU64(h, snap.primaryClockRaw ? 1 : 0);
    fnvU64(h, snap.nba.size());
    for (const auto &write : snap.nba) {
        fnvU64(h, static_cast<uint64_t>(write.target.sig));
        fnvU64(h, static_cast<uint64_t>(write.target.element));
        fnvU64(h, write.target.dropped ? 1 : 0);
        fnvU64(h, write.target.msb);
        fnvU64(h, write.target.lsb);
        fnvU64(h, write.target.whole ? 1 : 0);
        fnvBits(h, write.value);
    }
    fnvU64(h, snap.primStates.size());
    for (const auto &blob : snap.primStates) {
        fnvU64(h, blob.size());
        fnvBytes(h, blob.data(), blob.size());
    }
    return h;
}

void
Simulator::setBackend(const BackendFactory &factory)
{
    backend_->flush();
    std::vector<PendingNba> nba;
    backend_->exportNba(nba);
    if (factory)
        backend_ = factory(*this);
    else
        backend_ = std::make_unique<InterpBackend>(*this);
    if (!backend_)
        fatal("setBackend: factory returned no backend");
    backend_->importNba(nba);
    backend_->load();
}

StimulusRecorder::StimulusRecorder(Simulator &sim, StimulusTape &tape)
    : sim_(sim), tape_(tape)
{
    sim_.attach(this);
}

StimulusRecorder::~StimulusRecorder()
{
    sim_.detach(this);
}

void
StimulusRecorder::onPoke(int sig, const Bits &, const Bits &after)
{
    pending_.pokes.emplace_back(sim_.design().info(sig).name, after);
}

void
StimulusRecorder::onEval(EvalContext &)
{
    tape_.steps.push_back(std::move(pending_));
    pending_.pokes.clear();
}

void
StimulusRecorder::resync(EvalContext &)
{
    pending_.pokes.clear();
}

void
Simulator::applyStep(const StimulusStep &step)
{
    for (const auto &[name, value] : step.pokes)
        poke(name, value);
    eval();
}

SimSnapshot
Simulator::saveState() const
{
    // Logically const: publishing backend shadow state into the shared
    // context changes no observable simulator state.
    const_cast<Simulator *>(this)->backend_->flush();
    // Pending $display entries render into the log before it is
    // copied, so snapshots stay a plain vector of formatted lines.
    const_cast<EvalContext &>(ctx_).drainLog();
    SimSnapshot snap;
    snap.values = ctx_.values;
    snap.arrays = ctx_.arrays;
    snap.cycle = ctx_.cycle;
    snap.evalSeq = ctx_.evalSeq;
    snap.finished = ctx_.finished;
    snap.log = ctx_.log;
    for (size_t i = 0; i < clocks_.size(); ++i)
        snap.prevClocks.emplace(clocks_[i].name, prevClocks_[i]);
    snap.prevPrimClocks = prevPrimClocks_;
    snap.primaryClockRaw = primaryClockRaw_;
    backend_->exportNba(snap.nba);
    snap.primStates.resize(prims_.size());
    for (size_t i = 0; i < prims_.size(); ++i)
        prims_[i]->saveState(snap.primStates[i]);
    HWDBG_STAT_INC("sim.snapshots", 1);
    return snap;
}

void
Simulator::restoreState(const SimSnapshot &snap)
{
    if (snap.values.size() != ctx_.values.size() ||
        snap.primStates.size() != prims_.size())
        fatal("restoreState: snapshot is from a different design");
    ctx_.values = snap.values;
    ctx_.arrays = snap.arrays;
    ctx_.cycle = snap.cycle;
    ctx_.evalSeq = snap.evalSeq;
    ctx_.finished = snap.finished;
    ctx_.log = snap.log;
    ctx_.pendingLog.clear();
    ctx_.valuesChanged = false;
    for (size_t i = 0; i < clocks_.size(); ++i) {
        auto it = snap.prevClocks.find(clocks_[i].name);
        prevClocks_[i] = it != snap.prevClocks.end() && it->second;
    }
    prevPrimClocks_ = snap.prevPrimClocks;
    primaryClockRaw_ = snap.primaryClockRaw;
    backend_->importNba(snap.nba);
    backend_->load();
    for (size_t i = 0; i < prims_.size(); ++i) {
        const auto &blob = snap.primStates[i];
        const uint8_t *cursor = blob.data();
        prims_[i]->restoreState(cursor, blob.data() + blob.size());
    }
    // Restored state is a new baseline for every observer, never a
    // fabricated change.
    for (Observer *observer : observers_)
        observer->resync(ctx_);
    HWDBG_STAT_INC("sim.restores", 1);
}

void
Simulator::enableProfiling(SimCounters *counters)
{
    prof_ = counters;
    if (!prof_) {
        ctx_.toggles = nullptr;
        return;
    }
    prof_->assignEvals.assign(design_.assigns().size(), 0);
    prof_->assignNs.assign(design_.assigns().size(), 0);
    prof_->combEvals.assign(design_.combProcs().size(), 0);
    prof_->combNs.assign(design_.combProcs().size(), 0);
    prof_->clockedEvals.assign(design_.clockedProcs().size(), 0);
    prof_->clockedNs.assign(design_.clockedProcs().size(), 0);
    prof_->toggles.assign(design_.numSignals(), 0);
    if (prof_->settleHist.empty())
        prof_->settleHist.assign(65, 0);
    ctx_.toggles = &prof_->toggles;
}

void
Simulator::enableCoverage(CoverageCollector *collector)
{
    if (ctx_.cover)
        detach(ctx_.cover);
    ctx_.cover = collector;
    if (collector)
        attach(collector);
}

void
Simulator::attach(Observer *observer)
{
    observers_.push_back(observer);
    backend_->flush();
    observer->resync(ctx_);
}

void
Simulator::detach(Observer *observer)
{
    observers_.erase(
        std::remove(observers_.begin(), observers_.end(), observer),
        observers_.end());
}

void
Simulator::poke(const std::string &signal, const Bits &value)
{
    int id = design_.requireSignal(signal);
    const SignalInfo &sig = design_.info(id);
    if (sig.dir != PortDir::Input)
        fatal("poke: '%s' is not a top-level input", signal.c_str());
    Bits next = value.resized(sig.width);
    for (Observer *observer : observers_)
        observer->onPoke(id, ctx_.values[id], next);
    ctx_.values[id] = std::move(next);
    backend_->onPoke(id);
}

void
Simulator::poke(const std::string &signal, uint64_t value)
{
    int id = design_.requireSignal(signal);
    poke(signal, Bits(design_.info(id).width, value));
}

Bits
Simulator::peek(const std::string &signal) const
{
    int id = design_.requireSignal(signal);
    const_cast<Simulator *>(this)->backend_->flushSignal(id);
    return ctx_.values[id];
}

uint64_t
Simulator::peekU64(const std::string &signal) const
{
    return peek(signal).toU64();
}

Bits
Simulator::peekArray(const std::string &signal, uint64_t index) const
{
    int id = design_.requireSignal(signal);
    const SignalInfo &sig = design_.info(id);
    if (sig.arraySize == 0)
        fatal("peekArray: '%s' is not a memory", signal.c_str());
    if (index >= sig.arraySize)
        fatal("peekArray: index %llu out of range for '%s'",
              static_cast<unsigned long long>(index), signal.c_str());
    const_cast<Simulator *>(this)->backend_->flushSignal(id);
    return ctx_.arrays[id][index];
}

Primitive *
Simulator::primitive(const std::string &inst_name) const
{
    for (const auto &prim : prims_)
        if (prim->name() == inst_name)
            return prim.get();
    return nullptr;
}

void
Simulator::noteSettle(size_t iters, size_t work)
{
    HWDBG_STAT_INC("sim.settle_calls", 1);
    HWDBG_STAT_INC("sim.process_evals", iters * work);
    HWDBG_STAT_HIST("sim.settle_iters", iters);
    HWDBG_STAT_MAX("sim.max_settle_iters", iters);
    if (!prof_)
        return;
    ++prof_->settleCalls;
    prof_->maxSettleDepth =
        std::max<uint32_t>(prof_->maxSettleDepth,
                           static_cast<uint32_t>(iters));
    size_t slot = std::min(iters, prof_->settleHist.size() - 1);
    ++prof_->settleHist[slot];
}

void
Simulator::setProcessOrder(std::vector<size_t> order)
{
    if (order.empty()) {
        procOrder_.clear();
        return;
    }
    size_t n = design_.clockedProcs().size();
    if (order.size() != n)
        fatal("setProcessOrder: %zu ranks for %zu clocked processes",
              order.size(), n);
    std::vector<uint8_t> seen(n, 0);
    for (size_t pi : order) {
        if (pi >= n || seen[pi])
            fatal("setProcessOrder: not a permutation of 0..%zu",
                  n - 1);
        seen[pi] = 1;
    }
    // Store as rank-of-process so the eval loop can stable-sort the
    // triggered subset: procOrder_[pi] = execution rank of process pi.
    procOrder_.assign(n, 0);
    for (size_t rank = 0; rank < order.size(); ++rank)
        procOrder_[order[rank]] = rank;
}

void
Simulator::eval()
{
    ++ctx_.evalSeq;
    backend_->settleComb();

    // Detect clock edges on clocked processes.
    for (size_t i = 0; i < clocks_.size(); ++i)
        clockNow_[i] = backend_->signalBool(clocks_[i].sig);

    std::vector<size_t> &triggered = triggered_;
    triggered.clear();
    for (size_t pi = 0; pi + 1 < sensBegin_.size(); ++pi) {
        for (uint32_t k = sensBegin_[pi]; k < sensBegin_[pi + 1]; ++k) {
            bool before = prevClocks_[sens_[k].slot];
            bool after = clockNow_[sens_[k].slot];
            bool rising = !before && after;
            bool falling = before && !after;
            if ((sens_[k].edge == EdgeKind::Posedge && rising) ||
                (sens_[k].edge == EdgeKind::Negedge && falling)) {
                triggered.push_back(pi);
                break;
            }
        }
    }

    // Primitive clock expressions read the shared context directly;
    // publish the signals they reference first.
    for (int sig : primClockSigs_)
        backend_->flushSignal(sig);
    std::vector<size_t> prim_triggered;
    for (size_t i = 0; i < primClocks_.size(); ++i) {
        bool now = !evalExpr(primClocks_[i].expr, ctx_).isZero();
        bool before = prevPrimClocks_[i];
        if (!before && now)
            prim_triggered.push_back(i);
        prevPrimClocks_[i] = now;
    }

    bool primary_rose = false;
    if (primaryClockId_ >= 0) {
        bool now = backend_->signalBool(primaryClockId_);
        bool before = primaryClockSlot_ >= 0
                          ? prevClocks_[primaryClockSlot_]
                          : primaryClockRaw_;
        primary_rose = !before && now;
        primaryClockRaw_ = now;
    }
    if (primary_rose) {
        ++ctx_.cycle;
        HWDBG_STAT_INC("sim.cycles", 1);
    }

    prevClocks_ = clockNow_;

    if (!triggered.empty() || !prim_triggered.empty())
        runTriggered(prim_triggered);

    if (!observers_.empty()) {
        backend_->flush();
        for (Observer *observer : observers_)
            observer->onEval(ctx_);
    }
}

void
Simulator::runTriggered(const std::vector<size_t> &prim_triggered)
{
    std::vector<size_t> &triggered = triggered_;
    // Execute processes with pre-edge (settled) values; NBAs commit
    // together afterwards. Primitives also sample inputs pre-edge.
    if (!procOrder_.empty())
        std::stable_sort(triggered.begin(), triggered.end(),
                         [&](size_t a, size_t b) {
                             return procOrder_[a] < procOrder_[b];
                         });
    HWDBG_STAT_INC("sim.process_evals", triggered.size());
    using ProfClock = std::chrono::steady_clock;
    for (size_t pi : triggered) {
        ProfClock::time_point t0;
        if (prof_)
            t0 = ProfClock::now();
        backend_->execClocked(pi);
        if (prof_) {
            ++prof_->clockedEvals[pi];
            prof_->clockedNs[pi] +=
                std::chrono::duration<double, std::nano>(
                    ProfClock::now() - t0)
                    .count();
        }
    }
    if (!prim_triggered.empty()) {
        // Primitives read and write the shared context; reconcile the
        // backend's state around them.
        backend_->flush();
        for (size_t i : prim_triggered)
            prims_[primClocks_[i].prim]->clockEdge(primClocks_[i].port,
                                                   ctx_);
        backend_->load();
    }
    backend_->commitNba();

    backend_->settleComb();
}

} // namespace hwdbg::sim
