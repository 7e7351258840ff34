/**
 * @file
 * fuzz --cover: signature keys are design-independent and
 * deterministic, coverage folding is independent of the worker count,
 * plateau detection fires, and — critically — enabling coverage never
 * changes the oracle verdicts.
 */

#include <gtest/gtest.h>

#include "cover/run.hh"
#include "cover/signature.hh"
#include "elab/elaborate.hh"
#include "fuzz/generator.hh"
#include "fuzz/runner.hh"

using namespace hwdbg;
using namespace hwdbg::fuzz;

namespace
{

FuzzConfig
smallCampaign()
{
    FuzzConfig config;
    config.seeds = 8;
    config.start = 0;
    config.cycles = 24;
    config.cover = true;
    return config;
}

} // namespace

TEST(FuzzCoverTest, SignatureKeysAreDeterministic)
{
    GeneratedDesign gd = generateDesign(3);
    auto snapA = cover::coverDesign(
        elab::elaborate(gd.design, gd.top).mod, sim::Stimulus::random(3, 24));
    GeneratedDesign gd2 = generateDesign(3);
    auto snapB = cover::coverDesign(
        elab::elaborate(gd2.design, gd2.top).mod,
        sim::Stimulus::random(3, 24));
    auto keysA = cover::signatureKeys(snapA);
    EXPECT_FALSE(keysA.empty());
    EXPECT_EQ(keysA, cover::signatureKeys(snapB));
}

TEST(FuzzCoverTest, ReportIsIndependentOfJobs)
{
    FuzzConfig one = smallCampaign();
    one.jobs = 1;
    FuzzConfig four = smallCampaign();
    four.jobs = 4;

    FuzzReport ra = runFuzz(one);
    FuzzReport rb = runFuzz(four);
    // Rendered reports (text and JSON) must be byte-identical.
    EXPECT_EQ(renderReport(ra, one), renderReport(rb, four));
    one.json = four.json = true;
    EXPECT_EQ(renderReport(ra, one), renderReport(rb, four));
}

TEST(FuzzCoverTest, CoverageDoesNotChangeVerdicts)
{
    FuzzConfig with = smallCampaign();
    FuzzConfig without = smallCampaign();
    without.cover = false;

    FuzzReport rw = runFuzz(with);
    FuzzReport ro = runFuzz(without);
    EXPECT_EQ(reportOk(rw), reportOk(ro));
    ASSERT_EQ(rw.failures.size(), ro.failures.size());
    for (size_t i = 0; i < rw.failures.size(); ++i) {
        EXPECT_EQ(rw.failures[i].seed, ro.failures[i].seed);
        EXPECT_EQ(rw.failures[i].oracle, ro.failures[i].oracle);
        EXPECT_EQ(rw.failures[i].detail, ro.failures[i].detail);
    }
}

TEST(FuzzCoverTest, NoveltyFoldsInSeedOrder)
{
    FuzzReport report = runFuzz(smallCampaign());
    ASSERT_EQ(report.coverage.size(), 8u);
    EXPECT_EQ(report.coverage[0].seed, 0u);
    // The first seed's keys are all new by definition.
    EXPECT_EQ(report.coverage[0].newKeys, report.coverage[0].keys);
    EXPECT_GT(report.coverKeys, 0u);
    // The union is at least the best single seed.
    for (const auto &sc : report.coverage)
        EXPECT_LE(sc.keys, report.coverKeys);
}

TEST(FuzzCoverTest, PlateauFiresAfterWindowDrySeeds)
{
    FuzzConfig config = smallCampaign();
    config.coverPlateau = 1;
    FuzzReport report = runFuzz(config);
    // With a window of one, any zero-novelty seed declares a plateau;
    // eight consecutive seeds all finding fresh keys would mean the
    // deliberately finite key space is not saturating as designed.
    EXPECT_TRUE(report.coverPlateaued);
    EXPECT_GT(report.coverPlateauSeed, 0u);

    // Disabled coverage produces no coverage records at all.
    config.cover = false;
    FuzzReport off = runFuzz(config);
    EXPECT_TRUE(off.coverage.empty());
    EXPECT_FALSE(off.coverPlateaued);
}
