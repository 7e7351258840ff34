#include "fuzz/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "common/testhooks.hh"
#include "cover/run.hh"
#include "cover/signature.hh"
#include "elab/elaborate.hh"
#include "fuzz/generator.hh"
#include "fuzz/shrink.hh"
#include "hdl/printer.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hwdbg::fuzz
{

namespace
{

OracleOptions
oracleOptions(const FuzzConfig &config)
{
    OracleOptions opts;
    opts.cycles = config.cycles;
    opts.mask = config.mask;
    opts.backend = config.backend;
    return opts;
}

GeneratorOptions
generatorOptions(const FuzzConfig &config)
{
    GeneratorOptions opts;
    opts.raceChance = config.raceChance;
    return opts;
}

/** Run one seed end to end; returns all failures, first one shrunk. */
std::vector<SeedFailure>
runSeed(uint64_t seed, const FuzzConfig &config, OrderStats *stats)
{
    OracleOptions opts = oracleOptions(config);
    GeneratedDesign gd = generateDesign(seed, generatorOptions(config));
    std::vector<Failure> failures = runOracles(gd, seed, opts, stats);
    std::vector<SeedFailure> out;
    for (size_t i = 0; i < failures.size(); ++i) {
        SeedFailure sf;
        sf.seed = seed;
        sf.oracle = failures[i].oracle;
        sf.detail = failures[i].detail;
        if (i == 0) {
            ShrinkResult shrunk =
                shrinkDesign(gd, seed, failures[i].oracle, opts,
                             config.shrinkBudget);
            sf.reproducer = hdl::printDesign(shrunk.design.design);
            sf.itemsBefore = shrunk.itemsBefore;
            sf.itemsAfter = shrunk.itemsAfter;
            sf.shrinkAttempts = shrunk.attempts;
        }
        out.push_back(std::move(sf));
    }
    return out;
}

/**
 * Signature keys covered by @p seed's design under the campaign's
 * random stimulus. A second pass, fully separate from the oracle run:
 * it regenerates the design and simulates it with coverage attached,
 * so the oracle verdicts cannot be perturbed by --cover.
 */
std::vector<std::string>
seedCoverKeys(uint64_t seed, const FuzzConfig &config)
{
    GeneratedDesign gd = generateDesign(seed, generatorOptions(config));
    auto flat = elab::elaborate(gd.design, gd.top).mod;
    cover::Snapshot snap = cover::coverDesign(
        std::move(flat), sim::Stimulus::random(seed, config.cycles));
    return cover::signatureKeys(snap);
}

FuzzReport
runCampaign(const FuzzConfig &config)
{
    FuzzReport report;
    uint64_t first = config.replay ? config.replaySeed : config.start;
    uint64_t count = config.replay ? 1 : config.seeds;
    report.seedsRun = count;

    // One slot per seed index; each worker writes only its own slots,
    // so the pool needs no lock here and the fold below sees seed
    // order regardless of scheduling.
    std::vector<std::vector<std::string>> coverKeys(
        config.cover ? count : 0);

    std::atomic<uint64_t> next{0};
    std::mutex collect;
    auto worker = [&] {
        for (;;) {
            uint64_t idx = next.fetch_add(1);
            if (idx >= count)
                return;
            uint64_t seed = first + idx;
            auto t0 = std::chrono::steady_clock::now();
            std::vector<SeedFailure> failures;
            OrderStats orderStats;
            {
                obs::ObsSpan span("seed " + std::to_string(seed));
                failures = runSeed(seed, config, &orderStats);
            }
            if (config.cover) {
                obs::ObsSpan span("cover seed " +
                                  std::to_string(seed));
                coverKeys[idx] = seedCoverKeys(seed, config);
            }
            auto t1 = std::chrono::steady_clock::now();
            HWDBG_STAT_INC("fuzz.seeds", 1);
            HWDBG_STAT_INC("fuzz.failures", failures.size());
            std::lock_guard<std::mutex> lock(collect);
            report.seedLatenciesMs.push_back(
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count());
            report.order.flagged += orderStats.flagged;
            report.order.confirmed += orderStats.confirmed;
            report.order.unrefuted += orderStats.unrefuted;
            for (auto &failure : failures)
                report.failures.push_back(std::move(failure));
        }
    };

    uint32_t jobs = std::max<uint32_t>(1, config.jobs);
    if (jobs == 1 || count <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        for (uint32_t i = 0; i < jobs; ++i)
            pool.emplace_back([&worker, i] {
                obs::setTraceThreadName("fuzz-worker-" +
                                        std::to_string(i));
                worker();
            });
        for (auto &thread : pool)
            thread.join();
    }

    std::sort(report.failures.begin(), report.failures.end(),
              [](const SeedFailure &a, const SeedFailure &b) {
                  if (a.seed != b.seed)
                      return a.seed < b.seed;
                  return static_cast<uint32_t>(a.oracle) <
                         static_cast<uint32_t>(b.oracle);
              });

    if (config.cover) {
        // Fold novelty in seed order so the result is independent of
        // worker interleaving (and hence of --jobs).
        std::set<std::string> campaign;
        uint32_t dry = 0;
        uint32_t window = std::max<uint32_t>(1, config.coverPlateau);
        for (uint64_t idx = 0; idx < count; ++idx) {
            SeedCoverage sc;
            sc.seed = first + idx;
            sc.keys = static_cast<uint32_t>(coverKeys[idx].size());
            for (const auto &key : coverKeys[idx])
                if (campaign.insert(key).second)
                    ++sc.newKeys;
            dry = sc.newKeys ? 0 : dry + 1;
            if (dry >= window && !report.coverPlateaued) {
                report.coverPlateaued = true;
                report.coverPlateauSeed = sc.seed;
                inform("fuzz: coverage plateau at seed %llu (%u "
                     "consecutive seed(s) added no new coverage)",
                     static_cast<unsigned long long>(sc.seed),
                     window);
            }
            report.coverage.push_back(sc);
        }
        report.coverKeys = campaign.size();
    }
    return report;
}

FuzzReport
runSelfCheck(const FuzzConfig &config)
{
    FuzzReport report;
    report.selfCheck = true;
    OracleOptions opts = oracleOptions(config);

    // Single-threaded on purpose: activeMutation is a process global.
    for (const auto &info : mutationCatalog()) {
        MutationOutcome outcome;
        outcome.id = info.id;
        outcome.description = info.description;
        outcome.expectedOracle = info.oracle;

        activeMutation = info.id;
        for (uint64_t i = 0; i < config.seeds; ++i) {
            uint64_t seed = config.start + i;
            GeneratedDesign gd = generateDesign(seed);
            auto failures = runOracles(gd, seed, opts);
            outcome.seedsTried = i + 1;
            if (failures.empty())
                continue;
            outcome.caught = true;
            outcome.seed = seed;
            outcome.caughtBy = oracleName(failures.front().oracle);
            outcome.detail = failures.front().detail;
            ShrinkResult shrunk =
                shrinkDesign(gd, seed, failures.front().oracle, opts,
                             std::min<uint32_t>(config.shrinkBudget,
                                                300));
            outcome.reproducer =
                hdl::printDesign(shrunk.design.design);
            break;
        }
        activeMutation = MUT_NONE;

        report.seedsRun += outcome.seedsTried;
        report.mutations.push_back(std::move(outcome));
    }
    return report;
}

using obs::jsonEscape;

std::string
indented(const std::string &text, const std::string &pad)
{
    std::string out;
    std::istringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) {
        out += pad;
        out += line;
        out += '\n';
    }
    return out;
}

std::string
oracleListText(uint32_t mask)
{
    std::string out;
    for (uint32_t i = 0; i < kOracleCount; ++i) {
        if (!(mask & (1u << i)))
            continue;
        if (!out.empty())
            out += ",";
        out += oracleName(static_cast<Oracle>(i));
    }
    return out;
}

} // namespace

bool
reportOk(const FuzzReport &report)
{
    if (!report.selfCheck)
        return report.failures.empty();
    uint64_t caught = 0;
    for (const auto &outcome : report.mutations)
        if (outcome.caught)
            ++caught;
    uint64_t total = report.mutations.size();
    // The acceptance bar: at least 80% of the injected mutations must
    // be caught, out of a catalog of at least 10.
    return total >= 10 && caught * 10 >= total * 8;
}

FuzzReport
runFuzz(const FuzzConfig &config)
{
    return config.selfCheck ? runSelfCheck(config)
                            : runCampaign(config);
}

std::string
renderReport(const FuzzReport &report, const FuzzConfig &config)
{
    std::ostringstream out;
    if (config.json) {
        out << "{\n";
        out << "  \"mode\": \""
            << (report.selfCheck ? "self-check"
                                 : (config.replay ? "replay" : "fuzz"))
            << "\",\n";
        out << "  \"build\": " << obs::buildInfoJson() << ",\n";
        out << "  \"start\": "
            << (config.replay ? config.replaySeed : config.start)
            << ",\n";
        out << "  \"seeds\": " << report.seedsRun << ",\n";
        out << "  \"cycles\": " << config.cycles << ",\n";
        out << "  \"oracles\": [";
        bool firstOracle = true;
        for (uint32_t i = 0; i < kOracleCount; ++i) {
            if (!(config.mask & (1u << i)))
                continue;
            if (!firstOracle)
                out << ", ";
            firstOracle = false;
            out << '"' << oracleName(static_cast<Oracle>(i)) << '"';
        }
        out << "],\n";
        if (report.selfCheck) {
            uint64_t caught = 0;
            for (const auto &outcome : report.mutations)
                if (outcome.caught)
                    ++caught;
            out << "  \"mutations\": [\n";
            for (size_t i = 0; i < report.mutations.size(); ++i) {
                const auto &outcome = report.mutations[i];
                out << "    {\"id\": " << outcome.id
                    << ", \"description\": \""
                    << jsonEscape(outcome.description)
                    << "\", \"expected_oracle\": \""
                    << jsonEscape(outcome.expectedOracle)
                    << "\", \"caught\": "
                    << (outcome.caught ? "true" : "false");
                if (outcome.caught) {
                    out << ", \"seed\": " << outcome.seed
                        << ", \"caught_by\": \""
                        << jsonEscape(outcome.caughtBy)
                        << "\", \"detail\": \""
                        << jsonEscape(outcome.detail)
                        << "\", \"reproducer\": \""
                        << jsonEscape(outcome.reproducer) << '"';
                }
                out << ", \"seeds_tried\": " << outcome.seedsTried
                    << "}"
                    << (i + 1 < report.mutations.size() ? "," : "")
                    << "\n";
            }
            out << "  ],\n";
            out << "  \"caught\": " << caught << ",\n";
            out << "  \"total\": " << report.mutations.size() << ",\n";
        } else {
            out << "  \"failures\": [\n";
            for (size_t i = 0; i < report.failures.size(); ++i) {
                const auto &failure = report.failures[i];
                out << "    {\"seed\": " << failure.seed
                    << ", \"oracle\": \"" << oracleName(failure.oracle)
                    << "\", \"detail\": \"" << jsonEscape(failure.detail)
                    << '"';
                if (!failure.reproducer.empty()) {
                    out << ", \"items_before\": " << failure.itemsBefore
                        << ", \"items_after\": " << failure.itemsAfter
                        << ", \"shrink_attempts\": "
                        << failure.shrinkAttempts
                        << ", \"reproducer\": \""
                        << jsonEscape(failure.reproducer) << '"';
                }
                out << "}"
                    << (i + 1 < report.failures.size() ? "," : "")
                    << "\n";
            }
            out << "  ],\n";
            if (config.mask & oracleBit(Oracle::Order)) {
                out << "  \"order\": {\"flagged\": "
                    << report.order.flagged
                    << ", \"confirmed\": " << report.order.confirmed
                    << ", \"unrefuted\": " << report.order.unrefuted
                    << "},\n";
            }
            if (config.cover) {
                out << "  \"coverage\": {\n";
                out << "    \"keys\": " << report.coverKeys << ",\n";
                out << "    \"plateau_window\": "
                    << config.coverPlateau << ",\n";
                out << "    \"plateaued\": "
                    << (report.coverPlateaued ? "true" : "false")
                    << ",\n";
                if (report.coverPlateaued)
                    out << "    \"plateau_seed\": "
                        << report.coverPlateauSeed << ",\n";
                out << "    \"seeds\": [\n";
                for (size_t i = 0; i < report.coverage.size(); ++i) {
                    const auto &sc = report.coverage[i];
                    out << "      {\"seed\": " << sc.seed
                        << ", \"keys\": " << sc.keys
                        << ", \"new\": " << sc.newKeys << "}"
                        << (i + 1 < report.coverage.size() ? ","
                                                           : "")
                        << "\n";
                }
                out << "    ]\n";
                out << "  },\n";
            }
        }
        out << "  \"ok\": " << (reportOk(report) ? "true" : "false")
            << "\n";
        out << "}\n";
        return out.str();
    }

    if (report.selfCheck) {
        out << "hwdbg fuzz --self-check: " << report.mutations.size()
            << " mutations, up to " << config.seeds
            << " seed(s) each, oracles: "
            << oracleListText(config.mask) << "\n";
        uint64_t caught = 0;
        for (const auto &outcome : report.mutations) {
            out << "mutation " << outcome.id << " ("
                << outcome.description << "): ";
            if (outcome.caught) {
                ++caught;
                out << "CAUGHT by " << outcome.caughtBy << " at seed "
                    << outcome.seed << " (expected "
                    << outcome.expectedOracle << ")\n";
                out << "  " << outcome.detail << "\n";
                out << "  reproducer:\n"
                    << indented(outcome.reproducer, "    ");
            } else {
                out << "MISSED after " << outcome.seedsTried
                    << " seed(s)\n";
            }
        }
        out << "self-check: " << caught << "/"
            << report.mutations.size() << " mutations caught: "
            << (reportOk(report) ? "PASS" : "FAIL (need >= 80%)")
            << "\n";
        return out.str();
    }

    uint64_t first = config.replay ? config.replaySeed : config.start;
    out << "hwdbg fuzz: " << report.seedsRun << " seed(s) from "
        << first << ", " << config.cycles
        << " cycles, oracles: " << oracleListText(config.mask) << "\n";
    for (const auto &failure : report.failures) {
        out << "seed " << failure.seed << ": FAIL ["
            << oracleName(failure.oracle) << "] " << failure.detail
            << "\n";
        if (!failure.reproducer.empty()) {
            out << "  shrunk reproducer (" << failure.itemsBefore
                << " -> " << failure.itemsAfter << " items, "
                << failure.shrinkAttempts << " attempts):\n"
                << indented(failure.reproducer, "    ");
        }
    }
    if (config.mask & oracleBit(Oracle::Order)) {
        out << "order oracle: " << report.order.flagged
            << " design(s) flagged by analyze, "
            << report.order.confirmed << " confirmed by divergence, "
            << report.order.unrefuted << " unrefuted\n";
    }
    if (config.cover) {
        // Only seeds that advanced coverage get a line: the key space
        // is finite, so the list is short even for huge campaigns.
        for (const auto &sc : report.coverage)
            if (sc.newKeys)
                out << "seed " << sc.seed << ": +" << sc.newKeys
                    << " new coverage key(s) (" << sc.keys
                    << " covered)\n";
        out << "coverage: " << report.coverKeys
            << " distinct key(s) across " << report.coverage.size()
            << " seed(s)\n";
        if (report.coverPlateaued)
            out << "coverage plateau: reached at seed "
                << report.coverPlateauSeed << " ("
                << config.coverPlateau
                << " consecutive seed(s) added nothing)\n";
        else
            out << "coverage plateau: not reached (window "
                << config.coverPlateau << ")\n";
    }
    std::set<uint64_t> failingSeeds;
    for (const auto &failure : report.failures)
        failingSeeds.insert(failure.seed);
    if (report.failures.empty())
        out << "result: PASS (" << report.seedsRun
            << " seed(s) clean)\n";
    else
        out << "result: FAIL (" << failingSeeds.size() << " of "
            << report.seedsRun << " seed(s) failing)\n";
    return out.str();
}

int
fuzzMain(const FuzzConfig &config)
{
    auto begin = std::chrono::steady_clock::now();
    FuzzReport report = runFuzz(config);
    auto end = std::chrono::steady_clock::now();

    std::fputs(renderReport(report, config).c_str(), stdout);

    // Timing is real-world noise: stderr only, so stdout stays
    // deterministic for --replay and the golden CLI tests.
    double ms = std::chrono::duration<double, std::milli>(end - begin)
                    .count();
    double rate = ms > 0 ? 1000.0 * static_cast<double>(report.seedsRun)
                               / ms
                         : 0;
    std::fprintf(stderr,
                 "[fuzz] %llu seed(s) in %.1f ms (%.1f seeds/s, jobs=%u)\n",
                 static_cast<unsigned long long>(report.seedsRun), ms,
                 rate, std::max<uint32_t>(1, config.jobs));
    if (!report.seedLatenciesMs.empty()) {
        std::vector<double> sorted = report.seedLatenciesMs;
        std::sort(sorted.begin(), sorted.end());
        auto pct = [&](double p) {
            size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
            return sorted[idx];
        };
        std::fprintf(stderr,
                     "[fuzz] seed latency p50=%.2f ms p95=%.2f ms "
                     "max=%.2f ms\n",
                     pct(0.50), pct(0.95), sorted.back());
    }
    return reportOk(report) ? 0 : 1;
}

} // namespace hwdbg::fuzz
