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
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "analyze/analyze.hh"
#include "bugbase/testbed.hh"
#include "lint/lint.hh"

using namespace hwdbg;

namespace
{

const char *const kGolden = HWDBG_TESTS_DIR "/analyze/testbed_static.golden";

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

    std::ifstream in(kGolden, std::ios::binary);
    ASSERT_TRUE(in) << "missing " << kGolden;
    std::stringstream golden;
    golden << in.rdbuf();

    // Per-section comparison first, so a failure names the design.
    auto expected = splitSections(golden.str());
    for (const auto &[header, body] : sections) {
        auto it = expected.find(header);
        ASSERT_NE(it, expected.end()) << header << " not in golden";
        EXPECT_EQ(body, it->second) << header;
    }
    EXPECT_EQ(actual, golden.str());
}
