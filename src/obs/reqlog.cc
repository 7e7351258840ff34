#include "obs/reqlog.hh"

#include <ostream>

#include "obs/json.hh"

namespace hwdbg::obs
{

namespace
{

/** Latency ladder: 1 µs .. ~16.7 s in powers of two, +inf above. */
std::vector<uint64_t>
latencyBounds()
{
    std::vector<uint64_t> bounds;
    for (uint64_t b = 1; b <= (uint64_t{1} << 24); b *= 2)
        bounds.push_back(b);
    return bounds;
}

} // namespace

RequestLog::CommandStats::CommandStats() : latency(latencyBounds()) {}

RequestLog::RequestLog(size_t capacity, size_t slowCapacity)
    : capacity_(capacity ? capacity : 1),
      slowCapacity_(slowCapacity ? slowCapacity : 1)
{
}

void
RequestLog::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

bool
RequestLog::enabled() const
{
    return enabled_.load(std::memory_order_relaxed);
}

void
RequestLog::setSlowThresholdUs(uint64_t us)
{
    slowThresholdUs_.store(us, std::memory_order_relaxed);
}

uint64_t
RequestLog::slowThresholdUs() const
{
    return slowThresholdUs_.load(std::memory_order_relaxed);
}

void
RequestLog::setSpill(std::ostream *out)
{
    std::lock_guard<std::mutex> guard(mu_);
    spill_ = out;
}

uint64_t
RequestLog::nextRequestId()
{
    return nextId_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void
RequestLog::record(const RequestEvent &event)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> guard(mu_);
    if (ring_.size() >= capacity_)
        ring_.pop_front();
    ring_.push_back(event);
    ++requests_;
    if (!event.ok)
        ++errors_;
    if (event.latencyUs >= slowThresholdUs()) {
        ++slowCount_;
        if (slowRing_.size() >= slowCapacity_)
            slowRing_.pop_front();
        slowRing_.push_back(event);
    }
    auto &slot = commands_[event.cmd];
    if (!slot)
        slot = std::make_unique<CommandStats>();
    ++slot->count;
    if (!event.ok)
        ++slot->errors;
    slot->latency.record(event.latencyUs);
    if (spill_)
        *spill_ << eventJson(event) << "\n";
}

uint64_t
RequestLog::requests() const
{
    std::lock_guard<std::mutex> guard(mu_);
    return requests_;
}

uint64_t
RequestLog::errors() const
{
    std::lock_guard<std::mutex> guard(mu_);
    return errors_;
}

uint64_t
RequestLog::slowCount() const
{
    std::lock_guard<std::mutex> guard(mu_);
    return slowCount_;
}

std::vector<RequestEvent>
RequestLog::recent() const
{
    std::lock_guard<std::mutex> guard(mu_);
    return std::vector<RequestEvent>(ring_.begin(), ring_.end());
}

std::vector<RequestEvent>
RequestLog::slow() const
{
    std::lock_guard<std::mutex> guard(mu_);
    return std::vector<RequestEvent>(slowRing_.begin(), slowRing_.end());
}

std::vector<CommandSnapshot>
RequestLog::commands() const
{
    std::lock_guard<std::mutex> guard(mu_);
    std::vector<CommandSnapshot> out;
    out.reserve(commands_.size());
    for (const auto &[cmd, stats] : commands_) {
        CommandSnapshot snap;
        snap.cmd = cmd;
        snap.count = stats->count;
        snap.errors = stats->errors;
        snap.p50Us = stats->latency.quantile(0.50);
        snap.p95Us = stats->latency.quantile(0.95);
        snap.p99Us = stats->latency.quantile(0.99);
        snap.maxUs = stats->latency.max();
        out.push_back(std::move(snap));
    }
    return out;
}

void
RequestLog::reset()
{
    std::lock_guard<std::mutex> guard(mu_);
    ring_.clear();
    slowRing_.clear();
    commands_.clear();
    requests_ = 0;
    errors_ = 0;
    slowCount_ = 0;
}

std::string
RequestLog::eventJson(const RequestEvent &event)
{
    std::string out;
    JsonWriter(out, JsonWriter::Style::Spaced)
        .beginObject()
        .member("request", event.id)
        .member("session", event.session)
        .member("cmd", event.cmd)
        .member("ok", event.ok)
        .member("latency_us", event.latencyUs)
        .endObject();
    return out;
}

} // namespace hwdbg::obs
