/**
 * @file
 * Serve-layer attach scaling: the shared design cache's reason to
 * exist, measured and gated.
 *
 * For each testbed bug the bench times two attaches through the same
 * `serve::DesignCache` the server uses. The cold attach pays the full
 * builder — parse, elaborate, instrument, and a complete recording run
 * of the bug's workload to capture the stimulus tape. The warm attach
 * is what every subsequent session pays: a cache hit plus a private
 * engine (module clone + simulator + initial checkpoint) over the
 * shared tape. The gate is the geometric-mean cold/warm ratio, which
 * must stay >= 5x or the bench exits 1 — the bar ISSUE 9 sets for
 * elaborate-once-serve-many to justify the cache.
 *
 * While it measures, the bench asserts the cached design is actually
 * shared: one build per bug, every later attach a hit, and both
 * engines stopped at the same cycle after replaying the tape.
 *
 * With a path argument the per-bug table and the geomean land in a
 * BENCH_serve_scaling.json trajectory file, the perf baseline future
 * PRs diff against.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bugbase/testbed.hh"
#include "debug/engine.hh"
#include "debug/workload.hh"
#include "hdl/ast.hh"
#include "serve/cache.hh"

using namespace hwdbg;

namespace
{

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The server's bug build: debug::buildWorkload, instrumented, with a
 *  recording simulation of the bug's workload. */
serve::CachedDesign
buildBug(const bugs::TestbedBug &bug)
{
    debug::WorkloadSpec spec;
    spec.bug = bug.id;
    spec.instrument = true;
    return debug::buildWorkload(spec);
}

/** One session attach against an already-resolved cache entry: clone
 *  the master and build an engine ready at cycle 0 — exactly what the
 *  server's `open debug` pays after the cache resolves. */
std::unique_ptr<debug::Engine>
attachSession(const std::shared_ptr<const serve::CachedDesign> &design)
{
    debug::EngineOptions eopts;
    eopts.constants = design->constants;
    return std::make_unique<debug::Engine>(
        hdl::cloneModule(*design->instrumented), design->tape, eopts);
}

struct Row
{
    std::string bug;
    double coldSec;
    double warmSec;
    double ratio;
    uint64_t cycles;
};

} // namespace

int
main(int argc, char **argv)
{
    const char *jsonPath = argc > 1 ? argv[1] : nullptr;
    const double kGate = 5.0;

    std::printf("Serve attach scaling: cold build vs. warm cache hit\n");
    std::printf("%-6s %-9s %-10s %-10s %-8s\n", "bug", "cycles",
                "cold s", "warm s", "ratio");

    std::vector<Row> rows;
    double logSum = 0;
    bool broken = false;
    for (const auto &bug : bugs::testbedBugs()) {
        serve::DesignCache cache;
        auto builder = [&bug] { return buildBug(bug); };

        double t0 = now();
        auto cold = cache.getOrBuild(bug.id, builder);
        auto coldEngine = attachSession(cold.design);
        double t1 = now();
        auto warm = cache.getOrBuild(bug.id, builder);
        auto warmEngine = attachSession(warm.design);
        double t2 = now();

        // Untimed equivalence check: both sessions replay the shared
        // tape to the same stopping cycle.
        coldEngine->run();
        warmEngine->run();
        uint64_t coldCycle = coldEngine->cycle();
        uint64_t warmCycle = warmEngine->cycle();

        if (cold.hit || !warm.hit || cache.stats().builds != 1 ||
            warm.design.get() != cold.design.get() ||
            warmCycle != coldCycle) {
            std::fprintf(stderr,
                         "FATAL: %s: warm attach did not share the "
                         "cold build\n",
                         bug.id.c_str());
            broken = true;
        }

        Row row{bug.id, t1 - t0, t2 - t1,
                t2 - t1 > 0 ? (t1 - t0) / (t2 - t1) : 0, coldCycle};
        rows.push_back(row);
        logSum += std::log(row.ratio);
        std::printf("%-6s %-9llu %-10.5f %-10.5f %-8.2f\n",
                    row.bug.c_str(),
                    static_cast<unsigned long long>(row.cycles),
                    row.coldSec, row.warmSec, row.ratio);
    }

    double geomean = std::exp(logSum / static_cast<double>(rows.size()));
    std::printf("\ngeomean cold/warm: %.2fx (gate: >= %.1fx)\n", geomean,
                kGate);

    if (jsonPath) {
        FILE *f = std::fopen(jsonPath, "w");
        if (!f) {
            std::fprintf(stderr, "FATAL: cannot write %s\n", jsonPath);
            return 1;
        }
        std::fprintf(f, "{\n  \"bench\": \"serve_scaling\",\n"
                        "  \"bugs\": [\n");
        for (size_t i = 0; i < rows.size(); ++i)
            std::fprintf(f,
                         "    {\"bug\": \"%s\", \"cycles\": %llu, "
                         "\"cold_sec\": %.6f, \"warm_sec\": %.6f, "
                         "\"ratio\": %.3f}%s\n",
                         rows[i].bug.c_str(),
                         static_cast<unsigned long long>(rows[i].cycles),
                         rows[i].coldSec, rows[i].warmSec,
                         rows[i].ratio,
                         i + 1 < rows.size() ? "," : "");
        std::fprintf(f,
                     "  ],\n  \"geomean_ratio\": %.3f,\n"
                     "  \"gate\": %.1f\n}\n",
                     geomean, kGate);
        std::fclose(f);
        std::printf("trajectory written to %s\n", jsonPath);
    }

    if (broken)
        return 1;
    if (geomean < kGate) {
        std::fprintf(stderr,
                     "FATAL: geomean attach ratio %.2fx below the "
                     "%.1fx gate\n",
                     geomean, kGate);
        return 1;
    }
    return 0;
}
