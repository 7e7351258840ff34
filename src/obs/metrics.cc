#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/jsoncheck.hh"

namespace hwdbg::obs
{

namespace
{

std::vector<uint64_t>
defaultBounds()
{
    std::vector<uint64_t> bounds;
    for (uint64_t b = 1; b <= 65536; b *= 2)
        bounds.push_back(b);
    return bounds;
}

/**
 * The registry is a leaked singleton: instruments are never removed, so
 * references handed out to call-site statics stay valid through process
 * exit (including exit-time destructors of other globals).
 */
struct Registry
{
    std::mutex lock;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry &
registry()
{
    static Registry *r = new Registry;
    return *r;
}

} // namespace

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(bounds.empty() ? defaultBounds() : std::move(bounds)),
      counts_(bounds_.size() + 1)
{
    for (size_t i = 1; i < bounds_.size(); ++i)
        if (bounds_[i] <= bounds_[i - 1])
            panic("histogram bounds must be strictly increasing");
}

void
Histogram::record(uint64_t v)
{
    size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), v) -
               bounds_.begin();
    counts_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

uint64_t
Histogram::min() const
{
    uint64_t v = min_.load(std::memory_order_relaxed);
    return v == UINT64_MAX ? 0 : v;
}

uint64_t
Histogram::quantile(double q) const
{
    uint64_t total = count();
    if (total == 0)
        return 0;
    q = std::min(std::max(q, 0.0), 1.0);
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    if (rank == 0)
        rank = 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i].load(std::memory_order_relaxed);
        if (seen >= rank) {
            uint64_t bound = i < bounds_.size() ? bounds_[i] : max();
            return std::min(std::max(bound, min()), max());
        }
    }
    // Racing recorders can leave count() ahead of the bucket sums for
    // a moment; the largest observed sample is the honest answer.
    return max();
}

void
Histogram::reset()
{
    for (auto &c : counts_)
        c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(UINT64_MAX, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

std::atomic<bool> metricsOn{false};

void
enableMetrics(bool on)
{
    metricsOn.store(on, std::memory_order_relaxed);
}

void
resetMetrics()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> guard(r.lock);
    for (auto &[name, c] : r.counters)
        c->reset();
    for (auto &[name, g] : r.gauges)
        g->reset();
    for (auto &[name, h] : r.histograms)
        h->reset();
}

Counter &
counter(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> guard(r.lock);
    auto &slot = r.counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
gauge(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> guard(r.lock);
    auto &slot = r.gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
histogram(const std::string &name, const std::vector<uint64_t> &bounds)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> guard(r.lock);
    auto &slot = r.histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>(bounds);
    return *slot;
}

uint64_t
counterValue(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> guard(r.lock);
    auto it = r.counters.find(name);
    return it == r.counters.end() ? 0 : it->second->value();
}

std::string
metricsJson()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> guard(r.lock);
    std::string out;
    JsonWriter w(out, JsonWriter::Style::Spaced);
    w.beginObject().newline(2).key("build").raw(buildInfoJson());
    // One member per instrument, each on its own line.
    auto section = [&](const char *name, const auto &instruments,
                       auto &&write) {
        w.newline(2).key(name).beginObject();
        for (const auto &[key, inst] : instruments) {
            w.newline(4).key(key);
            write(*inst);
        }
        if (!instruments.empty())
            w.newline(2);
        w.endObject();
    };
    auto scalar = [&](const auto &inst) { w.value(inst.value()); };
    section("counters", r.counters, scalar);
    section("gauges", r.gauges, scalar);
    section("histograms", r.histograms, [&](const Histogram &h) {
        w.beginObject().key("buckets").beginArray();
        const auto &bounds = h.bounds();
        for (size_t i = 0; i <= bounds.size(); ++i) {
            w.beginArray();
            if (i < bounds.size())
                w.value(bounds[i]);
            else
                w.null();
            w.value(h.bucketCount(i)).endArray();
        }
        w.endArray()
            .member("count", h.count())
            .member("sum", h.sum())
            .member("min", h.min())
            .member("max", h.max())
            .endObject();
    });
    w.newline(0).endObject();
    out += '\n';
    return out;
}

namespace
{

/** [bound, count] buckets: increasing bounds, a final null (+inf)
 *  bound, and counts that sum to the histogram's "count". */
std::string
histogramRule(const JsonValue &hist)
{
    const auto &buckets = hist["buckets"].elems;
    double total = 0;
    double lastBound = -1;
    for (size_t i = 0; i < buckets.size(); ++i) {
        const auto &pair = buckets[i]->elems;
        std::string at = ".buckets[" + std::to_string(i) + "]: ";
        if (pair.size() != 2)
            return at + "not a [bound, count] pair";
        bool last = i + 1 == buckets.size();
        bool unbounded = pair[0]->kind == JsonValue::Kind::Null;
        if (last && !unbounded)
            return at + "final bucket bound must be null (+inf)";
        if (!last && unbounded)
            return at + "bucket bound is not a number";
        if (!last && pair[0]->number <= lastBound)
            return at + "bucket bounds not increasing";
        lastBound = pair[0]->number;
        if (!pair[1]->isNumber() || pair[1]->number < 0)
            return at + "bucket count invalid";
        total += pair[1]->number;
    }
    if (total != hist["count"].number)
        return ".count: bucket counts do not sum to \"count\"";
    return "";
}

} // namespace

std::string
checkMetricsJson(const std::string &text)
{
    static const Schema schema = ordered({
        {"build", buildSchema()},
        {"counters", mapOf(number(0))},
        {"gauges", mapOf(number(0))},
        {"histograms",
         mapOf(ordered({{"buckets", arrayOf(arrayOf(nullable(number())))},
                        {"count", number()},
                        {"sum", number()},
                        {"min", number()},
                        {"max", number()}},
                       histogramRule))},
    });
    return checkJson(schema, text);
}

std::string
metricsText()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> guard(r.lock);
    std::ostringstream out;
    for (const auto &[name, c] : r.counters)
        out << name << " " << c->value() << "\n";
    for (const auto &[name, g] : r.gauges)
        out << name << " " << g->value() << "\n";
    for (const auto &[name, h] : r.histograms) {
        out << name << " count=" << h->count() << " sum=" << h->sum()
            << " min=" << h->min() << " max=" << h->max() << " buckets=";
        const auto &bounds = h->bounds();
        for (size_t i = 0; i <= bounds.size(); ++i) {
            if (i)
                out << ",";
            if (i < bounds.size())
                out << "le" << bounds[i] << ":" << h->bucketCount(i);
            else
                out << "inf:" << h->bucketCount(i);
        }
        out << "\n";
    }
    return out.str();
}

bool
writeMetrics(const std::string &path)
{
    bool json = path.size() >= 5 &&
                path.compare(path.size() - 5, 5, ".json") == 0;
    std::ofstream out(path);
    if (!out) {
        warn("cannot write metrics file '%s'", path.c_str());
        return false;
    }
    out << (json ? metricsJson() : metricsText());
    return static_cast<bool>(out);
}

} // namespace hwdbg::obs
