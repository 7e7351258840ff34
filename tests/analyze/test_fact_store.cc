/**
 * @file
 * The one fact store per module: every static fact of a module is
 * built once, by its analyze::Context, whoever reads it and however
 * often. The "analyze.fact.<name>.builds" counters are the witness:
 *  - a D1 debug workload with an engine and two backtraces;
 *  - lint, then analyze, on D1;
 *  - three serve debug sessions, then two cover sessions, on one
 *    cached D4 design;
 * plus several threads first-touching the facts of one shared Context,
 * and bytecode simulators, which lower and run without building any.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analyze/analyze.hh"
#include "analyze/context.hh"
#include "bugbase/testbed.hh"
#include "compile/backend.hh"
#include "debug/engine.hh"
#include "debug/workload.hh"
#include "elab/elaborate.hh"
#include "fuzz/generator.hh"
#include "lint/lint.hh"
#include "obs/jsoncheck.hh"
#include "obs/metrics.hh"
#include "serve/server.hh"
#include "sim/simulator.hh"

using namespace hwdbg;

namespace
{

const char *const kFacts[] = {"signals",   "assigns",  "assignsOf",
                              "displays",  "graph",    "fsms",
                              "relations", "fixpoint", "wires"};

/** Fact name -> builds since the last reset. */
std::map<std::string, uint64_t>
factBuilds()
{
    std::map<std::string, uint64_t> out;
    for (const char *fact : kFacts)
        out[fact] = obs::counterValue(std::string("analyze.fact.") + fact +
                                      ".builds");
    return out;
}

/** Every "analyze.fact.<name>.builds" counter registered, by name. */
std::map<std::string, uint64_t>
registeredFactBuilds()
{
    std::string error;
    obs::JsonPtr root = obs::parseJson(obs::metricsJson(), &error);
    EXPECT_TRUE(root) << error;
    std::map<std::string, uint64_t> out;
    if (!root)
        return out;
    const std::string prefix = "analyze.fact.", suffix = ".builds";
    for (const auto &[name, value] : (*root)["counters"].members)
        if (name.starts_with(prefix) && name.ends_with(suffix))
            out[name] = value->asUint();
    return out;
}

/** Every fact built at most @p modules times. */
void
expectAtMost(const std::map<std::string, uint64_t> &builds,
             uint64_t modules)
{
    for (const auto &[fact, n] : builds)
        EXPECT_LE(n, modules) << fact;
}

class FactStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::enableMetrics(true);
        obs::resetMetrics();
    }
    void TearDown() override { obs::enableMetrics(false); }
};

} // namespace

TEST_F(FactStoreTest, DebugWorkloadBuildsEachFactOncePerModule)
{
    debug::WorkloadSpec spec;
    spec.bug = "D1";
    spec.instrument = true;
    debug::Workload w = debug::buildWorkload(spec);
    debug::Engine engine(w.instrumented, w.instrumentedFacts, w.tape);
    engine.run();
    const std::string reg = bugs::bugById("D1").lossCheck->sink;
    EXPECT_FALSE(engine.backtrace(reg, 2).empty());
    auto once = factBuilds();
    EXPECT_FALSE(engine.backtrace(reg, 3).empty());
    EXPECT_EQ(factBuilds(), once);

    // Base (FSM monitor, LossCheck) and instrumented (coverage goals,
    // backtrace): at most one build of each fact per module, where the
    // monitors and the engine used to rebuild the assignment list five
    // times, the graph twice and the FSMs twice.
    expectAtMost(once, 2);
    EXPECT_EQ(once["assigns"], 2u);
    EXPECT_EQ(once["graph"], 2u);
    EXPECT_EQ(once["fsms"], 2u);
    EXPECT_EQ(once["relations"], 1u);
}

TEST_F(FactStoreTest, LintAndAnalyzeBuildEachFactOnce)
{
    auto mod = bugs::buildDesign(bugs::bugById("D1"), true).mod;
    lint::runLint(*mod);
    auto lint = factBuilds();
    expectAtMost(lint, 1);
    EXPECT_EQ(lint["assigns"], 1u);

    obs::resetMetrics();
    analyze::runAnalyze(*mod);
    auto analyze = factBuilds();
    expectAtMost(analyze, 1);
    EXPECT_EQ(analyze["assigns"], 1u);
    // The fixpoint and the read-uninitialized pass share one index.
    EXPECT_EQ(analyze["assignsOf"], 1u);
    EXPECT_EQ(analyze["fixpoint"], 1u);
}

TEST_F(FactStoreTest, ServeSessionsOnACachedDesignShareItsFacts)
{
    serve::Server server;
    auto run = [&](const std::string &script) {
        std::istringstream in(script);
        std::ostringstream out;
        EXPECT_EQ(server.runChannel(in, out), 0) << out.str();
        EXPECT_EQ(out.str().find("\"ok\":false"), std::string::npos)
            << out.str();
    };
    run("open debug bug=D4\n@1 backtrace m_len 2\n");
    auto first = factBuilds();
    run("open debug bug=D4\nopen debug bug=D4\n"
        "@2 backtrace m_len 2\n@3 backtrace m_len 2\n");
    auto three = factBuilds();

    // Base (LossCheck) and instrumented (coverage goals, backtrace):
    // the second and third sessions build nothing, where each session
    // used to run FSM detection again.
    EXPECT_EQ(three, first);
    EXPECT_EQ(three["fsms"], 1u);

    // One-shot cover sessions read the base module's cached FSMs: the
    // first builds them, the second nothing.
    run("open cover bug=D4\nopen cover bug=D4\n");
    auto covers = factBuilds();
    expectAtMost(covers, 2);
    EXPECT_EQ(covers["fsms"], 2u);
}

TEST_F(FactStoreTest, ConcurrentFirstTouchBuildsEachFactOnce)
{
    auto mod = bugs::buildDesign(bugs::bugById("D4"), true).mod;
    auto facts = std::make_shared<const analyze::Context>(*mod);
    std::vector<std::thread> threads;
    std::vector<size_t> sizes(4);
    for (size_t i = 0; i < sizes.size(); ++i)
        threads.emplace_back([&, i] {
            sizes[i] = facts->relations().relations().size() +
                       facts->fsms().size() + facts->graph().edges().size() +
                       facts->fixpoint().env.size() + facts->wires().size();
        });
    for (auto &thread : threads)
        thread.join();
    for (size_t size : sizes)
        EXPECT_EQ(size, sizes.front());
    auto builds = factBuilds();
    expectAtMost(builds, 1);
    EXPECT_EQ(builds["graph"], 1u);
    EXPECT_EQ(builds["relations"], 1u);
}

TEST_F(FactStoreTest, BytecodeSimulatorBuildsNoFact)
{
    // Lowering to bytecode reads the elaborated module alone: a
    // bytecode Simulator, built and run, builds no static fact — on a
    // testbed bug and on a generated design with every template on
    // (FSMs, FIFOs, memories, submodules), as in the speedup corpus.
    auto bug = bugs::buildDesign(bugs::bugById("D1"), false).mod;
    fuzz::GeneratorOptions opts;
    opts.fsmChance = opts.fifoChance = opts.memChance = 100;
    opts.submoduleChance = 100;
    fuzz::GeneratedDesign gd = fuzz::generateDesign(6, opts);
    auto corpus = elab::elaborate(gd.design, gd.top).mod;
    obs::resetMetrics();

    for (const auto &mod : {bug, corpus}) {
        sim::Simulator sim(mod);
        sim.setBackend(compile::makeBytecodeBackend());
        for (int i = 0; i < 4; ++i) {
            sim.poke("clk", uint64_t(i % 2));
            sim.eval();
        }
    }
    for (const auto &[name, n] : registeredFactBuilds())
        EXPECT_EQ(n, 0u) << name;
}
