/**
 * @file
 * Printer/parser round-trip over every testbed design.
 *
 * The fuzzer's round-trip oracle (DESIGN.md §9) checks generated
 * designs; this is the same property pinned on the hand-written bug
 * testbed: parse -> print -> parse must reach a structural fixpoint,
 * in the buggy AND the fixed `ifdef variant of every design. A printer
 * that loses parentheses, literal widths, or statement structure shows
 * up here as a structural diff or as churn between two print passes.
 */

#include <gtest/gtest.h>

#include "bugbase/designs.hh"
#include "bugbase/testbed.hh"
#include "hdl/parser.hh"
#include "hdl/preproc.hh"
#include "hdl/printer.hh"

namespace hwdbg
{
namespace
{

using bugs::testbedBugs;

class RoundtripTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(RoundtripTest, ParsePrintParseIsFixpoint)
{
    const auto &[bug_id, buggy] = GetParam();
    const auto &bug = bugs::bugById(bug_id);
    std::map<std::string, std::string> defines;
    if (buggy)
        defines.emplace(bug.bugDefine, "1");
    std::string text = hdl::preprocess(
        bugs::designSource(bug.designName), defines, bug.designName);

    hdl::Design first = hdl::parse(text, bug.designName);
    std::string printed = hdl::printDesign(first);
    hdl::Design second = hdl::parse(printed, bug.designName + ".2");
    EXPECT_TRUE(hdl::designEquals(first, second))
        << bug.id << (buggy ? " buggy" : " fixed")
        << ": reparse of printed text differs structurally";

    // Printing the reparsed design must reproduce the text verbatim.
    EXPECT_EQ(printed, hdl::printDesign(second))
        << bug.id << (buggy ? " buggy" : " fixed")
        << ": printed text is not a fixpoint";
}

std::vector<std::tuple<std::string, bool>>
allVariants()
{
    std::vector<std::tuple<std::string, bool>> out;
    for (const auto &bug : testbedBugs()) {
        out.emplace_back(bug.id, true);
        out.emplace_back(bug.id, false);
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllBugs, RoundtripTest, ::testing::ValuesIn(allVariants()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>
           &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_buggy" : "_fixed");
    });

} // namespace
} // namespace hwdbg
