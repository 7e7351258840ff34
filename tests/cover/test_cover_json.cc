/**
 * @file
 * The hwdbg-cover JSON format: serialize/parse roundtrip, the schema
 * check behind `hwdbg obscheck`, and the merge algebra the format
 * promises — associative, commutative, idempotent, and refused across
 * differing design fingerprints.
 */

#include <gtest/gtest.h>

#include "cover/run.hh"
#include "cover/snapshot.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"

using namespace hwdbg;
using namespace hwdbg::cover;

namespace
{

const char *kDesign =
    "module m(input wire clk, input wire rst, input wire [3:0] a,\n"
    "         output reg [3:0] q);\n"
    "always @(posedge clk) begin\n"
    "  if (rst) q <= 0;\n"
    "  else if (a[0]) q <= q + a;\n"
    "  else q <= q ^ a;\n"
    "end\n"
    "endmodule\n";

const char *kOtherDesign =
    "module m(input wire clk, output reg [7:0] n);\n"
    "always @(posedge clk) n <= n + 1;\nendmodule\n";

Snapshot
snapFor(const char *src, uint64_t seed, uint32_t cycles = 40)
{
    hdl::Design design = hdl::parse(src);
    auto mod = elab::elaborate(design, "m").mod;
    return coverDesign(mod, analyze::Context(*mod),
                       sim::Stimulus::random(seed, cycles));
}

std::string
merged(Snapshot a, const Snapshot &b)
{
    EXPECT_EQ(mergeInto(a, b), "");
    return toJson(a);
}

} // namespace

TEST(CoverJsonTest, RoundtripIsByteStable)
{
    Snapshot snap = snapFor(kDesign, 1);
    std::string json = toJson(snap);

    Snapshot parsed;
    std::string error;
    ASSERT_TRUE(parseSnapshot(json, &parsed, &error)) << error;
    EXPECT_EQ(toJson(parsed), json);
    EXPECT_EQ(parsed.fingerprint, snap.fingerprint);
    EXPECT_EQ(parsed.totals().covered(), snap.totals().covered());
}

TEST(CoverJsonTest, SchemaCheckAcceptsValidAndRejectsCorrupt)
{
    Snapshot snap = snapFor(kDesign, 1);
    std::string json = toJson(snap);
    EXPECT_EQ(checkCoverageJson(json), "");

    EXPECT_NE(checkCoverageJson(""), "");
    EXPECT_NE(checkCoverageJson("{}"), "");
    EXPECT_NE(checkCoverageJson(json.substr(0, json.size() / 2)), "");

    // Wrong version number is refused, not guessed at.
    std::string wrong = json;
    auto pos = wrong.find("\"version\": 1,");
    ASSERT_NE(pos, std::string::npos);
    wrong.replace(pos, 13, "\"version\": 9,");
    EXPECT_NE(checkCoverageJson(wrong), "");
}

TEST(CoverMergeTest, Idempotent)
{
    Snapshot a = snapFor(kDesign, 1);
    EXPECT_EQ(merged(a, a), toJson(a));
}

TEST(CoverMergeTest, Commutative)
{
    Snapshot a = snapFor(kDesign, 1);
    Snapshot b = snapFor(kDesign, 2);
    EXPECT_EQ(merged(a, b), merged(b, a));
}

TEST(CoverMergeTest, Associative)
{
    Snapshot a = snapFor(kDesign, 1);
    Snapshot b = snapFor(kDesign, 2);
    Snapshot c = snapFor(kDesign, 3);

    Snapshot ab = a;
    ASSERT_EQ(mergeInto(ab, b), "");
    Snapshot bc = b;
    ASSERT_EQ(mergeInto(bc, c), "");
    EXPECT_EQ(merged(ab, c), merged(a, bc));
}

TEST(CoverMergeTest, UnionsWorkloadsAndNeverLosesCoverage)
{
    Snapshot a = snapFor(kDesign, 1);
    Snapshot b = snapFor(kDesign, 2);
    Snapshot ab = a;
    ASSERT_EQ(mergeInto(ab, b), "");

    ASSERT_EQ(ab.workloads.size(), 2u);
    EXPECT_EQ(ab.workloads[0], "seed:1");
    EXPECT_EQ(ab.workloads[1], "seed:2");
    EXPECT_GE(ab.totals().covered(), a.totals().covered());
    EXPECT_GE(ab.totals().covered(), b.totals().covered());
    EXPECT_EQ(ab.totals().total(), a.totals().total());
}

TEST(CoverMergeTest, RefusesDifferentDesigns)
{
    Snapshot a = snapFor(kDesign, 1);
    Snapshot other = snapFor(kOtherDesign, 1);
    ASSERT_NE(a.fingerprint, other.fingerprint);
    std::string error = mergeInto(a, other);
    EXPECT_NE(error, "");
    EXPECT_NE(error.find("fingerprint"), std::string::npos);
}
