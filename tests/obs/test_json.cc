/**
 * @file
 * The shared JSON escaper (the one every emitter now uses) and the
 * build-provenance stamp.
 */

#include <gtest/gtest.h>

#include "obs/json.hh"

using namespace hwdbg;

TEST(JsonEscape, PassesPlainTextThrough)
{
    EXPECT_EQ(obs::jsonEscape(""), "");
    EXPECT_EQ(obs::jsonEscape("hello world 123"), "hello world 123");
    EXPECT_EQ(obs::jsonEscape("a[3:0] <= b + 1;"), "a[3:0] <= b + 1;");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes)
{
    EXPECT_EQ(obs::jsonEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(obs::jsonEscape("C:\\path\\file"), "C:\\\\path\\\\file");
    EXPECT_EQ(obs::jsonEscape("\\\""), "\\\\\\\"");
}

TEST(JsonEscape, ShortFormsForCommonControls)
{
    EXPECT_EQ(obs::jsonEscape("line1\nline2"), "line1\\nline2");
    EXPECT_EQ(obs::jsonEscape("col\tcol"), "col\\tcol");
    EXPECT_EQ(obs::jsonEscape("cr\rlf\n"), "cr\\rlf\\n");
}

TEST(JsonEscape, UnicodeEscapesForOtherControlBytes)
{
    EXPECT_EQ(obs::jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(obs::jsonEscape(std::string(1, '\x1f')), "\\u001f");
    std::string nul(1, '\0');
    EXPECT_EQ(obs::jsonEscape(nul), "\\u0000");
}

TEST(JsonEscape, NonAsciiBytesPassThrough)
{
    // UTF-8 multibyte sequences are valid inside JSON strings; the
    // escaper must not mangle them into \u escapes byte by byte.
    std::string utf8 = "caf\xc3\xa9";
    EXPECT_EQ(obs::jsonEscape(utf8), utf8);
}

TEST(BuildInfo, FieldsAreNonEmptyAndStable)
{
    const obs::BuildInfo &info = obs::buildInfo();
    EXPECT_FALSE(info.version.empty());
    EXPECT_FALSE(info.git.empty());
    EXPECT_FALSE(info.buildType.empty());
    // Constant within one process: double-run byte-diff tests depend
    // on the stamp never changing mid-session.
    EXPECT_EQ(obs::buildInfoJson(), obs::buildInfoJson());
}

TEST(BuildInfo, JsonShape)
{
    std::string json = obs::buildInfoJson();
    EXPECT_NE(json.find("\"tool\":\"hwdbg\""), std::string::npos);
    EXPECT_NE(json.find("\"version\":"), std::string::npos);
    EXPECT_NE(json.find("\"git\":"), std::string::npos);
    EXPECT_NE(json.find("\"type\":"), std::string::npos);
}

TEST(JsonEscape, BytesOutsideWellFormedUtf8BecomeUnicodeEscapes)
{
    // A Latin-1 file name: 0xE9 starts no well-formed sequence.
    EXPECT_EQ(obs::jsonEscape("caf\xe9.v"), "caf\\u00e9.v");
    // A lone continuation byte, an overlong form, a surrogate and a
    // truncated sequence are each escaped byte by byte.
    EXPECT_EQ(obs::jsonEscape("\x80"), "\\u0080");
    EXPECT_EQ(obs::jsonEscape("\xc0\xaf"), "\\u00c0\\u00af");
    EXPECT_EQ(obs::jsonEscape("\xed\xa0\x80"), "\\u00ed\\u00a0\\u0080");
    EXPECT_EQ(obs::jsonEscape("\xe2\x82"), "\\u00e2\\u0082");
    // The largest code point passes; one above it does not.
    EXPECT_EQ(obs::jsonEscape("\xf4\x8f\xbf\xbf"), "\xf4\x8f\xbf\xbf");
    EXPECT_EQ(obs::jsonEscape("\xf4\x90\x80\x80"),
              "\\u00f4\\u0090\\u0080\\u0080");
}

TEST(JsonWriter, SpacedLayoutWithLineBreaks)
{
    std::string out;
    obs::JsonWriter w(out, obs::JsonWriter::Style::Spaced);
    w.beginObject().member("a", 1);
    w.newline(0).key("list").beginArray();
    for (int i = 0; i < 2; ++i)
        w.newline(2).beginObject().member("i", i).endObject();
    w.newline(0).endArray();
    w.key("empty").beginArray().newline(0).endArray();
    w.key("x").fixed(1.5, 3).key("h").hexU64(255);
    uint64_t words[] = {0xf};
    w.key("w").hexWords(words, 1, 9).key("n").null().endObject();
    EXPECT_EQ(out, "{\"a\": 1,\n\"list\": [\n  {\"i\": 0},\n  {\"i\": 1}\n],"
                   " \"empty\": [\n], \"x\": 1.500, \"h\": \"0xff\","
                   " \"w\": \"0x00f\", \"n\": null}");
}
