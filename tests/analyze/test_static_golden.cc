/**
 * @file
 * Golden pin of the two static-analysis reports over the testbed.
 *
 * For all 20 bugs, buggy and fixed, the test builds the design
 * in-process (as the effectiveness bench does) and renders
 * lint::renderJson of runLint and of runAnalyze. The concatenation
 * must match tests/analyze/testbed_static.golden byte for byte, so a
 * refactor of the rules, the passes or their shared context cannot
 * silently change a finding, a location, a message or the order.
 *
 * None of the testbed designs has a combinational process, so a second
 * pin covers generated seeds 1-200 (most have one): the FNV-1a digest
 * of each seed's two reports must match
 * tests/analyze/seeds_static.golden.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "analyze/analyze.hh"
#include "bugbase/testbed.hh"
#include "elab/elaborate.hh"
#include "fuzz/generator.hh"
#include "lint/lint.hh"

using namespace hwdbg;

namespace
{

const char *const kGolden = HWDBG_TESTS_DIR "/analyze/testbed_static.golden";
const char *const kSeedGolden =
    HWDBG_TESTS_DIR "/analyze/seeds_static.golden";

std::string
readFile(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** 64-bit FNV-1a, as 16 hex digits. */
std::string
fnv1a(const std::string &text)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

/** Section header -> rendered report, in testbed order. */
std::vector<std::pair<std::string, std::string>>
renderSections()
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &bug : bugs::testbedBugs()) {
        for (bool buggy : {true, false}) {
            auto mod = bugs::buildDesign(bug, buggy).mod;
            std::string tag = bug.id + (buggy ? " buggy" : " fixed");
            out.emplace_back("## " + tag + " lint",
                             lint::renderJson(lint::runLint(*mod)));
            out.emplace_back("## " + tag + " analyze",
                             lint::renderJson(analyze::runAnalyze(*mod)));
        }
    }
    return out;
}

std::string
join(const std::vector<std::pair<std::string, std::string>> &sections)
{
    std::string text;
    for (const auto &[header, body] : sections)
        text += header + "\n" + body;
    return text;
}

/** Split golden text back into header -> body. */
std::map<std::string, std::string>
splitSections(const std::string &text)
{
    std::map<std::string, std::string> out;
    std::istringstream in(text);
    std::string line, header;
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0) {
            header = line;
            out[header];
        } else {
            out[header] += line + "\n";
        }
    }
    return out;
}

} // namespace

TEST(StaticGoldenTest, TestbedLintAndAnalyzeReportsArePinned)
{
    auto sections = renderSections();
    ASSERT_EQ(sections.size(), 80u);
    std::string actual = join(sections);

    std::string golden = readFile(kGolden);
    ASSERT_FALSE(golden.empty()) << "missing " << kGolden;

    // Per-section comparison first, so a failure names the design.
    auto expected = splitSections(golden);
    for (const auto &[header, body] : sections) {
        auto it = expected.find(header);
        ASSERT_NE(it, expected.end()) << header << " not in golden";
        EXPECT_EQ(body, it->second) << header;
    }
    EXPECT_EQ(actual, golden);
}

TEST(StaticGoldenTest, GeneratedSeedLintAndAnalyzeReportsArePinned)
{
    std::string golden = readFile(kSeedGolden);
    ASSERT_FALSE(golden.empty()) << "missing " << kSeedGolden;
    std::istringstream expected(golden);
    std::string actual, want;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        auto gd = fuzz::generateDesign(seed);
        auto mod = elab::elaborate(gd.design, gd.top).mod;
        std::string line =
            "seed " + std::to_string(seed) + " lint " +
            fnv1a(lint::renderJson(lint::runLint(*mod))) + " analyze " +
            fnv1a(lint::renderJson(analyze::runAnalyze(*mod)));
        std::getline(expected, want);
        EXPECT_EQ(line, want);
        actual += line + "\n";
    }
    EXPECT_EQ(actual, golden);
}
