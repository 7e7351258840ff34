/**
 * @file
 * JSON of a design read from a Latin-1 file name is valid UTF-8: the
 * lint, analyze and cover documents name the file, each passes its
 * obscheck schema, and the cover file merges with itself.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "analyze/analyze.hh"
#include "bugbase/designs.hh"
#include "bugbase/testbed.hh"
#include "cover/run.hh"
#include "cover/snapshot.hh"
#include "debug/workload.hh"
#include "lint/lint.hh"
#include "sim/stimulus.hh"

using namespace hwdbg;

namespace
{

/** Strict RFC 3629 check, independent of the writer's escaper. */
bool
validUtf8(const std::string &text)
{
    for (size_t i = 0; i < text.size();) {
        auto c = static_cast<unsigned char>(text[i]);
        size_t len = c < 0x80 ? 1 : c >= 0xc2 && c <= 0xdf ? 2
                     : c >= 0xe0 && c <= 0xef           ? 3
                     : c >= 0xf0 && c <= 0xf4           ? 4
                                                        : 0;
        if (!len || i + len > text.size())
            return false;
        uint32_t cp = len == 1 ? c : c & (0x7f >> len);
        for (size_t k = 1; k < len; ++k) {
            auto cc = static_cast<unsigned char>(text[i + k]);
            if ((cc & 0xc0) != 0x80)
                return false;
            cp = (cp << 6) | (cc & 0x3f);
        }
        static const uint32_t kMin[] = {0, 0, 0x80, 0x800, 0x10000};
        if (cp < kMin[len] || cp > 0x10ffff ||
            (cp >= 0xd800 && cp <= 0xdfff))
            return false;
        i += len;
    }
    return true;
}

} // namespace

TEST(Latin1Path, JsonIsValidUtf8AndPassesItsSchema)
{
    const bugs::TestbedBug &bug = bugs::bugById("D3");
    std::string path = ::testing::TempDir() + "caf\xe9_d3.v";
    {
        std::ofstream out(path);
        out << bugs::designSources().at(bug.designName);
    }
    debug::WorkloadSpec spec;
    spec.file = path;
    spec.defines.emplace(bug.bugDefine, "1");
    debug::Workload w = debug::buildWorkload(spec);

    std::string lint = lint::renderJson(lint::runLint(*w.base));
    std::string analyze = analyze::renderAnalyzeJson(
        analyze::selectedPasses({}), analyze::runAnalyze(*w.base));
    std::string cover = cover::toJson(cover::coverDesign(
        hdl::cloneModule(*w.base), *w.baseFacts,
        sim::Stimulus::random(1, 20)));
    std::remove(path.c_str());

    for (const std::string *json : {&lint, &analyze, &cover}) {
        EXPECT_TRUE(validUtf8(*json)) << *json;
        EXPECT_NE(json->find("caf\\u00e9_d3.v"), std::string::npos);
    }
    EXPECT_EQ(analyze::checkDiagnosticsJson(lint), "");
    EXPECT_EQ(analyze::checkAnalyzeJson(analyze), "");
    EXPECT_EQ(cover::checkCoverageJson(cover), "");

    cover::Snapshot a, b;
    std::string error;
    ASSERT_TRUE(cover::parseSnapshot(cover, &a, &error)) << error;
    ASSERT_TRUE(cover::parseSnapshot(cover, &b, &error)) << error;
    EXPECT_EQ(cover::mergeInto(a, b), "");
    EXPECT_EQ(cover::toJson(a), cover);
}
