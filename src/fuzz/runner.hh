/**
 * @file
 * Fuzzing campaign driver: seed scheduling, the worker pool, report
 * rendering, and the mutation self-check.
 *
 * Seeds are independent, so the driver fans them out over a pool of
 * worker threads pulling from an atomic counter. All results are
 * collected and sorted by seed before rendering: the report for a given
 * configuration is byte-identical no matter how many workers ran it or
 * how they interleaved (timing goes to stderr, never into the report).
 *
 * --self-check mode validates the harness itself: it activates the
 * known mutations from common/testhooks.hh one at a time (sequentially,
 * single-threaded — the mutation switch is a global) and sweeps seeds
 * until an oracle catches each one, then reports the catch rate. The
 * build is considered sound when at least 80% of mutations are caught.
 */

#ifndef HWDBG_FUZZ_RUNNER_HH
#define HWDBG_FUZZ_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/oracles.hh"

namespace hwdbg::fuzz
{

struct FuzzConfig
{
    uint64_t seeds = 100;
    uint64_t start = 0;
    uint32_t jobs = 1;
    uint32_t cycles = 24;
    /** Oracle bitmask (oracleBit). */
    uint32_t mask = 0xF;
    bool json = false;
    /** Run exactly one seed (reports it even when clean). */
    bool replay = false;
    uint64_t replaySeed = 0;
    /** Validate the harness against the mutation catalog instead of
     *  hunting for new bugs. */
    bool selfCheck = false;
    uint32_t shrinkBudget = 600;
    /**
     * Track structural coverage signatures per seed (a second,
     * oracle-independent pass over each generated design). Never
     * changes verdicts: coverage is reported alongside them.
     */
    bool cover = false;
    /** Consecutive no-new-coverage seeds that declare a plateau. */
    uint32_t coverPlateau = 32;
    /**
     * Percent chance of the generator's scheduler-race template
     * (GeneratorOptions::raceChance). Useful together with the Order
     * oracle: it plants blocking-write races for the analyze race pass
     * to flag and the permutation run to confirm.
     */
    uint32_t raceChance = 0;
    /** Execution backend for the campaign's simulators (--backend);
     *  empty runs the interpreter. See OracleOptions::backend. */
    sim::BackendFactory backend;
};

/** One failing seed, with its shrunk reproducer. */
struct SeedFailure
{
    uint64_t seed = 0;
    Oracle oracle = Oracle::Roundtrip;
    std::string detail;
    /** Verilog text of the shrunk design. */
    std::string reproducer;
    uint32_t itemsBefore = 0;
    uint32_t itemsAfter = 0;
    uint32_t shrinkAttempts = 0;
};

/** Outcome of one injected mutation during --self-check. */
struct MutationOutcome
{
    int id = 0;
    std::string description;
    std::string expectedOracle;
    bool caught = false;
    uint64_t seed = 0;
    std::string caughtBy;
    std::string detail;
    std::string reproducer;
    /** Seeds tried before the catch (or the full budget). */
    uint64_t seedsTried = 0;
};

/** Coverage novelty of one seed (campaign --cover mode). */
struct SeedCoverage
{
    uint64_t seed = 0;
    /** Signature keys this seed's design+stimulus covered. */
    uint32_t keys = 0;
    /** Of those, keys no earlier seed had covered. */
    uint32_t newKeys = 0;
};

struct FuzzReport
{
    uint64_t seedsRun = 0;
    std::vector<SeedFailure> failures;
    bool selfCheck = false;
    std::vector<MutationOutcome> mutations;
    /**
     * --cover results, in seed order. Folded after the worker pool
     * joins (novelty depends on seed order, not completion order), so
     * the numbers are identical for any --jobs count.
     */
    std::vector<SeedCoverage> coverage;
    /** Distinct signature keys across the whole campaign. */
    uint64_t coverKeys = 0;
    /** coverPlateau consecutive seeds added nothing new. */
    bool coverPlateaued = false;
    /** Seed at which the plateau was declared (when plateaued). */
    uint64_t coverPlateauSeed = 0;
    /**
     * Order-oracle verdict tally across the campaign (all zero unless
     * the order oracle is in the mask). Divergence on an unflagged
     * design is a failure, never a stat, so every "confirmed" here is a
     * statically flagged race that really diverged under permutation.
     */
    OrderStats order;
    /**
     * Wall-clock latency of each completed seed, in completion order.
     * Timing is nondeterministic, so this never reaches the rendered
     * report: fuzzMain() summarizes it (p50/p95) on stderr only.
     */
    std::vector<double> seedLatenciesMs;
};

/** True when the report means exit code 0. */
bool reportOk(const FuzzReport &report);

/** Run the configured campaign. Pure: no output, deterministic. */
FuzzReport runFuzz(const FuzzConfig &config);

/** Deterministic report text (text or JSON per config.json). */
/** Validate the JSON report (`fuzz --format json`): "" when valid. */
std::string checkFuzzReportJson(const std::string &text);

std::string renderReport(const FuzzReport &report,
                         const FuzzConfig &config);

/**
 * CLI entry: run, print the report to stdout and wall-clock/throughput
 * to stderr. Returns the process exit code (0 ok, 1 failures).
 */
int fuzzMain(const FuzzConfig &config);

} // namespace hwdbg::fuzz

#endif // HWDBG_FUZZ_RUNNER_HH
