/**
 * @file
 * Shared pieces of the end-to-end benchmark binary: options, the seeded
 * RNG, the raw-result record each workload fills, and the workload
 * interface.
 *
 * The binary measures and checks; it computes no statistics. It prints
 * one JSON object of raw samples and counts, and run.py turns those into
 * the reported metrics (medians, tails, geomeans, per-layer shares).
 *
 * Layer spans: every call into a library layer that the traced run
 * splits out is wrapped in an obs::ObsSpan named "bench:<layer>", and
 * every timed operation in one named "bench:op". They record only while
 * a trace session is armed, so the untraced run pays one relaxed load
 * per span.
 */

#ifndef HWDBG_PERFBENCH_BENCH_HH
#define HWDBG_PERFBENCH_BENCH_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
microsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    /** The engine `hwdbg cover` and `trace` use without --backend
     *  ("interp" or "bytecode"); run.py reads it off the built CLI. */
    std::string cliBackend = "interp";
};

/** splitmix64: every input stream the benchmark draws comes from one. */
struct Rng
{
    uint64_t state;
    explicit Rng(uint64_t seed) : state(seed) {}
    uint64_t next()
    {
        uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
    /** Uniform draw in [0, n); n must be positive. */
    uint64_t below(uint64_t n) { return next() % n; }
};

/** Fisher-Yates shuffle driven by @p rng. */
template <class T>
void
shuffle(std::vector<T> &items, Rng &rng)
{
    for (size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(i)]);
}

/**
 * While it lives, moves the thread that created it to the next CPU of
 * the process's affinity mask every 50 ms, from a helper thread, so the
 * move lands inside long operations too. On a shared host each CPU has
 * its own slow phases lasting seconds; visiting every CPU in turn keeps
 * one contended CPU from setting the speed of an operation or a run.
 *
 * Only corpus_sim uses it: its operations last up to half a second, and
 * in interleaved ten-seed runs with and without it the rotor halved the
 * run-to-run spread of its times. On testbed_cli's sub-millisecond
 * commands it narrowed nothing and added the migrations' cost, so that
 * workload runs without it (METRICS.md, Noise).
 */
class CpuRotor
{
  public:
    CpuRotor();
    ~CpuRotor();
    CpuRotor(const CpuRotor &) = delete;
    CpuRotor &operator=(const CpuRotor &) = delete;

  private:
    void rotate(int tid);

    std::vector<int> cpus_;
    std::mutex mu_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

/**
 * The latency samples of one group. Every sample is kept up to kCap;
 * past that a uniform reservoir (Algorithm R) of kCap samples stands
 * for all of them. A long, fast run then holds bounded memory, so its
 * peak RSS measures the program rather than this bookkeeping.
 */
class Samples
{
  public:
    static constexpr size_t kCap = size_t(1) << 16;

    void add(double us);
    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    const std::vector<double> &kept() const { return kept_; }

  private:
    uint64_t count_ = 0;
    double sum_ = 0;
    std::vector<double> kept_;
    Rng rng_{0x73616d706c6573ULL};
};

/** Raw measurements of one run, printed as JSON by main.cc. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** The first few failure messages, for the log. */
    std::vector<std::string> errors;
    /** One wall time per set-up repetition. */
    std::vector<double> setupS;
    /** Wall time of the timed region(s). */
    double measureS = 0;
    /** Latency samples in microseconds, by group; "op" holds every
     *  timed operation. */
    std::map<std::string, Samples> samples;
    /** Counts and other scalars, by name. */
    std::map<std::string, double> values;

    /** Count one checked operation; record @p error when it failed. */
    void check(bool ok, const std::string &error);
    /** Add @p other's check counts and errors. */
    void mergeChecks(const Report &other);
    std::string json() const;
};

/**
 * One workload. setup() runs the set-up repetitions and the untimed
 * output checks; measure() runs timed operations for @p seconds (and
 * at least until the workload's minimum sample count); finish() runs
 * the checks that need the whole run.
 *
 * @p traced selects the composed pipeline (every layer call spanned
 * from the benchmark) where it differs from the library entry point the
 * CLI calls; the composed pipeline's output is checked against the
 * entry point's.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setup(Report &rep) = 0;
    virtual void measure(double seconds, bool traced, Report &rep) = 0;
    virtual void finish(Report &) {}
};

std::unique_ptr<Workload> makeTestbedCli(const Options &opts);
std::unique_ptr<Workload> makeCorpusSim(const Options &opts);
std::unique_ptr<Workload> makeServeDebug(const Options &opts);

} // namespace perfbench

#endif // HWDBG_PERFBENCH_BENCH_HH
