/**
 * @file
 * Process-wide metrics registry in the gem5-stats spirit.
 *
 * Three instrument kinds, all safe to hit from any thread:
 *
 *  - Counter: monotonically increasing u64 (relaxed atomic add).
 *  - Gauge: last-written / maximum u64 (use setMax() from concurrent
 *    code so the stored value stays order-independent).
 *  - Histogram: fixed upper-bound buckets plus count/sum/min/max.
 *    Bucket i counts samples with value <= bounds[i]; the final
 *    implicit bucket is +inf.
 *
 * The fast path is lock-free: instruments are found once per call site
 * (a function-local static behind the HWDBG_STAT_* macros) and then
 * updated with relaxed atomics. The registry mutex is only taken at
 * first registration and at snapshot time.
 *
 * Recording is gated on a global enable flag (--metrics on the CLI,
 * enableMetrics() in tests): the disabled path of every macro is one
 * relaxed load and a branch, cheap enough to stay compiled into the
 * tier-1 build. Because every recorded quantity is a deterministic
 * function of the work performed (never of wall time or thread
 * interleaving), snapshots of the same workload are byte-identical no
 * matter how many threads ran it.
 *
 * NOTE: the HWDBG_STAT_* macros cache the instrument per call site, so
 * they are only correct with a fixed name. For dynamic names (e.g.
 * per-rule counters) call counter(name).inc() directly.
 */

#ifndef HWDBG_OBS_METRICS_HH
#define HWDBG_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace hwdbg::obs
{

class Counter
{
  public:
    void inc(uint64_t n = 1) { val_.fetch_add(n, std::memory_order_relaxed); }
    uint64_t value() const { return val_.load(std::memory_order_relaxed); }
    void reset() { val_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> val_{0};
};

class Gauge
{
  public:
    void set(uint64_t v) { val_.store(v, std::memory_order_relaxed); }
    /** Raise to @p v if larger (order-independent under concurrency). */
    void setMax(uint64_t v)
    {
        uint64_t cur = val_.load(std::memory_order_relaxed);
        while (cur < v &&
               !val_.compare_exchange_weak(cur, v,
                                           std::memory_order_relaxed)) {
        }
    }
    uint64_t value() const { return val_.load(std::memory_order_relaxed); }
    void reset() { val_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> val_{0};
};

class Histogram
{
  public:
    /** @p bounds must be strictly increasing; empty selects the
     *  default powers-of-two ladder 1,2,4,...,65536. */
    explicit Histogram(std::vector<uint64_t> bounds);

    void record(uint64_t v);

    const std::vector<uint64_t> &bounds() const { return bounds_; }
    /** Count in bucket @p i; bucket bounds_.size() is the +inf bucket. */
    uint64_t bucketCount(size_t i) const
    {
        return counts_[i].load(std::memory_order_relaxed);
    }
    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
    /** Smallest/largest recorded sample; 0 when empty. */
    uint64_t min() const;
    uint64_t max() const { return max_.load(std::memory_order_relaxed); }
    /**
     * Estimated sample value at quantile @p q in [0,1]: the upper
     * bound of the first bucket whose cumulative count reaches
     * ceil(q * count()), clamped into [min(), max()] so the estimate
     * never leaves the observed range (the +inf bucket reports
     * max()). An empty histogram returns 0 — the same convention as
     * min(), so p50/p95/p99 of a never-sampled latency render 0.
     */
    uint64_t quantile(double q) const;
    void reset();

  private:
    std::vector<uint64_t> bounds_;
    std::vector<std::atomic<uint64_t>> counts_;
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> min_{UINT64_MAX};
    std::atomic<uint64_t> max_{0};
};

/** The recording switch behind metricsEnabled(). */
extern std::atomic<bool> metricsOn;
/** True when metric recording is on (one inlined relaxed load). */
inline bool
metricsEnabled()
{
    return metricsOn.load(std::memory_order_relaxed);
}
/** Turn recording on/off (instruments and values are kept either way). */
void enableMetrics(bool on = true);
/** Zero every registered instrument (references stay valid). */
void resetMetrics();

/** Find-or-create; references stay valid for the process lifetime. */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);
Histogram &histogram(const std::string &name,
                     const std::vector<uint64_t> &bounds = {});

/** Current value of a counter; 0 when it was never registered. */
uint64_t counterValue(const std::string &name);

/** Deterministic snapshots (instruments sorted by name). */
std::string metricsJson();
std::string metricsText();

/**
 * Check @p text against the schema of metricsJson(): non-negative
 * numeric counters and gauges, and histograms whose bucket bounds
 * increase and whose bucket counts sum to "count". Returns "" when
 * valid, else the first violation.
 */
std::string checkMetricsJson(const std::string &text);

/**
 * Write a snapshot to @p path: JSON when it ends in ".json", text
 * otherwise. Returns false (and warns) when the file cannot be written.
 */
bool writeMetrics(const std::string &path);

} // namespace hwdbg::obs

// Call-site macros: one relaxed load + branch when disabled; the
// instrument lookup happens once per site, on the first enabled hit.
#define HWDBG_STAT_INC(name, n)                                         \
    do {                                                                \
        if (::hwdbg::obs::metricsEnabled()) {                           \
            static ::hwdbg::obs::Counter &hwdbg_stat_c_ =               \
                ::hwdbg::obs::counter(name);                            \
            hwdbg_stat_c_.inc(n);                                       \
        }                                                               \
    } while (0)

#define HWDBG_STAT_MAX(name, v)                                         \
    do {                                                                \
        if (::hwdbg::obs::metricsEnabled()) {                           \
            static ::hwdbg::obs::Gauge &hwdbg_stat_g_ =                 \
                ::hwdbg::obs::gauge(name);                              \
            hwdbg_stat_g_.setMax(v);                                    \
        }                                                               \
    } while (0)

#define HWDBG_STAT_HIST(name, v)                                        \
    do {                                                                \
        if (::hwdbg::obs::metricsEnabled()) {                           \
            static ::hwdbg::obs::Histogram &hwdbg_stat_h_ =             \
                ::hwdbg::obs::histogram(name);                          \
            hwdbg_stat_h_.record(v);                                    \
        }                                                               \
    } while (0)

#endif // HWDBG_OBS_METRICS_HH
